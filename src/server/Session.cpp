//===- server/Session.cpp - Per-connection compile-service state ----------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "server/Session.h"

#include "prof/Profiler.h"
#include "support/Json.h"

using namespace iaa;
using namespace iaa::server;

Session::Session(SessionEnv E) : Env(E) {
  // Bound the per-session trace ring: a long-lived connection tracing many
  // runs must not grow without limit (drops are counted, not silent).
  Trace.setMaxEvents(1 << 14);
}

Session::ProgramState &Session::stateFor(const Request &R, bool &CacheHit) {
  // Content-keyed like the artifact cache: the full source, never a hash
  // of it, so two distinct programs cannot alias one state slot.
  std::string Key = artifactKey(R.Source, R.Mode, R.Audit);

  auto [It, Inserted] = Programs.try_emplace(Key);
  ProgramState &PS = It->second;
  if (Inserted || !PS.Art) {
    PS.Art = Env.Artifacts->get(R.Source, R.Mode, R.Audit, CacheHit);
    if (PS.Art->ok()) {
      // The session's interpreter executes against the artifact's Program
      // (pinned by PS.Art against cache eviction) and shares the
      // artifact's bytecode store with every other session running it.
      PS.Interp = std::make_unique<interp::Interpreter>(*PS.Art->Prog);
      PS.Interp->setBytecodeCache(PS.Art->Bytecode);
    }
  } else {
    // This session already holds the artifact: for the client it is a
    // hit, and the cross-session cache only needs to know it is in use.
    Env.Artifacts->touch(Key);
    CacheHit = true;
  }
  PS.LastUse = ++ProgramClock;

  // LRU-recycle past the bound, never the state being returned. Erasing
  // releases the evictee's artifact pin and interpreter; a re-submission
  // rebuilds from the (still cached) artifact.
  while (Programs.size() > MaxPrograms) {
    auto Victim = Programs.end();
    for (auto I = Programs.begin(); I != Programs.end(); ++I) {
      if (I == It)
        continue;
      if (Victim == Programs.end() ||
          I->second.LastUse < Victim->second.LastUse)
        Victim = I;
    }
    if (Victim == Programs.end())
      break;
    Programs.erase(Victim);
  }
  return PS;
}

Response Session::handleRun(const Request &R) {
  bool CacheHit = false;
  ProgramState &PS = stateFor(R, CacheHit);

  Response Resp;
  Resp.Id = R.Id;
  Resp.HasCache = true;
  Resp.CacheHit = CacheHit;
  if (!PS.Art->ok()) {
    Resp.St = Response::Status::Error;
    Resp.Error = "compile failed: " + PS.Art->BuildError;
    if (Env.Counters)
      Env.Counters->Errors.fetch_add(1, std::memory_order_relaxed);
    return Resp;
  }

  // Per-request resource envelope: the request's own limits, else the
  // server defaults. The token outlives the Scope via shared_ptr, so a
  // deadline that fires exactly as the run finishes still has a live
  // target to cancel.
  uint64_t DeadlineMs = R.DeadlineMs ? R.DeadlineMs : Env.DefaultDeadlineMs;
  uint64_t MemLimitMb = R.MemLimitMb ? R.MemLimitMb : Env.DefaultMemLimitMb;
  auto Token = std::make_shared<interp::CancelToken>();
  Watchdog::Scope Deadline(*Env.Deadlines, DeadlineMs, Token);

  prof::Session Prof;
  interp::ExecOptions Opts;
  Opts.Plans = &PS.Art->Plans;
  Opts.Threads = R.Threads;
  Opts.Sched = R.Sched;
  Opts.ChunkSize = R.ChunkSize;
  Opts.Engine = R.Engine;
  Opts.Locality = R.Locality;
  Opts.RuntimeChecks = R.RuntimeChecks;
  Opts.OnFault = R.OnFault; // Abort was refused at the protocol boundary.
  Opts.Simulate = R.Simulate;
  Opts.Cancel = Token.get();
  Opts.MemLimitBytes = static_cast<size_t>(MemLimitMb) << 20;
  if (!R.Simulate)
    Opts.SharedPool = Env.SharedPool;
  if (R.Profile)
    Opts.Prof = &Prof;

  interp::ExecStats RunStats;
  interp::Memory Mem = PS.Interp->run(Opts, &RunStats);
  const interp::FaultState &FS = PS.Interp->faultState();

  if (!RunStats.FaultRemarks.empty())
    Remarks.add(RunStats.FaultRemarks);

  if (FS.Faulted) {
    Resp.St = Response::Status::Fault;
    Resp.FaultKind = interp::faultKindName(FS.Fault.Kind);
    Resp.FaultDetail = FS.Fault.str();
    switch (FS.Fault.Kind) {
    case interp::FaultKind::DeadlineExceeded:
      Resp.ExitEquivalent = 5;
      break;
    case interp::FaultKind::ResourceExhausted:
      Resp.ExitEquivalent = 6;
      break;
    default:
      Resp.ExitEquivalent = 4;
      break;
    }
    if (Env.Counters)
      Env.Counters->Faults.fetch_add(1, std::memory_order_relaxed);
  } else {
    Resp.HasChecksum = true;
    Resp.Checksum =
        Mem.checksumExcluding(interp::deadPrivateIds(PS.Art->Plans));
    Resp.Seconds = RunStats.TotalSeconds;
  }

  if (R.Remarks)
    Resp.RemarksJsonl =
        PS.Art->RemarksJsonl + remarksJsonl(RunStats.FaultRemarks);
  if (R.Profile)
    Resp.ProfileJsonl = Prof.jsonl(&PS.Art->Plans);
  if (R.Counters)
    Resp.CountersJson = Stats.json();
  if (R.Trace) {
    Resp.HasTraceEvents = true;
    Resp.TraceEvents = Trace.eventCount();
  }
  return Resp;
}

Response Session::handleCompile(const Request &R) {
  // A compile reads the artifact cache directly: it builds no run state,
  // so it cannot push this session's run programs (and their verdict and
  // bytecode caches) out of the bounded program map.
  bool CacheHit = false;
  std::shared_ptr<const Artifact> Art =
      Env.Artifacts->get(R.Source, R.Mode, R.Audit, CacheHit);

  Response Resp;
  Resp.Id = R.Id;
  Resp.HasCache = true;
  Resp.CacheHit = CacheHit;
  if (!Art->ok()) {
    Resp.St = Response::Status::Error;
    Resp.Error = "compile failed: " + Art->BuildError;
    if (Env.Counters)
      Env.Counters->Errors.fetch_add(1, std::memory_order_relaxed);
    return Resp;
  }
  Resp.PlanSummary = Art->PlanSummary;
  if (R.Remarks)
    Resp.RemarksJsonl = Art->RemarksJsonl;
  return Resp;
}

Response Session::handleStats(const Request &R) {
  Response Resp;
  Resp.Id = R.Id;
  uint64_t Requests = 0, Faults = 0, Errors = 0, Shed = 0;
  if (Env.Counters) {
    Requests = Env.Counters->Requests.load(std::memory_order_relaxed);
    Faults = Env.Counters->Faults.load(std::memory_order_relaxed);
    Errors = Env.Counters->Errors.load(std::memory_order_relaxed);
    Shed = Env.Counters->Shed.load(std::memory_order_relaxed);
  }
  Resp.StatsJson = "{\"requests\": " + std::to_string(Requests) +
                   ", \"faults\": " + std::to_string(Faults) +
                   ", \"errors\": " + std::to_string(Errors) +
                   ", \"shed\": " + std::to_string(Shed) +
                   ", \"cache_hits\": " +
                   std::to_string(Env.Artifacts->hits()) +
                   ", \"cache_misses\": " +
                   std::to_string(Env.Artifacts->misses()) +
                   ", \"cache_entries\": " +
                   std::to_string(Env.Artifacts->size()) +
                   ", \"deadlines_fired\": " +
                   std::to_string(Env.Deadlines->fired()) + "}";
  return Resp;
}

Response Session::handle(const Request &R) {
  ++Handled;
  if (Env.Counters)
    Env.Counters->Requests.fetch_add(1, std::memory_order_relaxed);

  // Install the session's observability context for the request. The
  // worker pool re-installs it inside workers per fork/join generation,
  // so a shared pool still attributes to this session.
  stat::CollectorScope StatScope(&Stats);
  trace::BufferScope TraceScope(R.Trace ? &Trace : nullptr);

  switch (R.Kind) {
  case Op::Run:
    return handleRun(R);
  case Op::Compile:
    return handleCompile(R);
  case Op::Ping: {
    Response Resp;
    Resp.Id = R.Id;
    Resp.St = Response::Status::Pong;
    return Resp;
  }
  case Op::Stats:
    return handleStats(R);
  case Op::Shutdown: {
    Response Resp;
    Resp.Id = R.Id;
    Resp.St = Response::Status::Bye;
    if (Env.ShutdownFlag)
      Env.ShutdownFlag->store(true, std::memory_order_release);
    return Resp;
  }
  }
  return errorResponse(R.Id, "unhandled op");
}

std::string Session::handleLine(const std::string &Line) {
  std::string Err;
  std::optional<Request> R = parseRequest(Line, Err, Env.MaxRequestBytes);
  if (!R) {
    if (Env.Counters) {
      Env.Counters->Requests.fetch_add(1, std::memory_order_relaxed);
      Env.Counters->Errors.fetch_add(1, std::memory_order_relaxed);
    }
    return errorResponse("", Err).toJsonLine();
  }
  return handle(*R).toJsonLine();
}
