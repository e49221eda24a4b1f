//===- perfbench/src/Workloads.cpp - The benchmark's workloads ------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Pipeline.h"
#include "Programs.h"

#include "server/ArtifactCache.h"
#include "server/Client.h"
#include "server/Daemon.h"
#include "server/Session.h"
#include "support/Json.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace iaa;

namespace {

/// Set-ups per run; set-up time is their median. A pause between them lets
/// the scheduler move the thread, so the median samples more than the CPU
/// the process happened to start on. service_mix sets up fewer times
/// because stopping a daemon waits out its 200 ms accept poll.
constexpr unsigned SetupRepeats = 31;
constexpr unsigned ServiceSetupRepeats = 11;
constexpr auto SetupPause = std::chrono::milliseconds(5);
/// service_mix blocks per client the traced run replays in process.
constexpr unsigned ReplayBlocks = 3;

double cpuSeconds() {
  rusage U{};
  ::getrusage(RUSAGE_SELF, &U);
  return double(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         double(U.ru_utime.tv_usec + U.ru_stime.tv_usec) * 1e-6;
}

double peakRssMb() {
  rusage U{};
  ::getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

std::string fmt(const char *Format, double A, double B = 0, double C = 0) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), Format, A, B, C);
  return Buf;
}

std::string lower(std::string S) {
  for (char &Ch : S)
    Ch = char(std::tolower(static_cast<unsigned char>(Ch)));
  return S;
}

/// Latencies and counts of one timed phase. Thread-safe recording.
struct Timed {
  std::mutex M;
  std::vector<double> LatMs;
  /// Operations per second of each whole unit of work: a round of the
  /// program workloads, a client's block of requests on service_mix.
  std::vector<double> UnitRates;
  /// Units that run at once (service_mix clients).
  unsigned Concurrency = 1;
  uint64_t Attempted = 0, Failed = 0;
  double Cpu = 0;
  std::vector<std::string> Failures; ///< The first few, for the log.
  /// service_mix latencies per request kind, for the log.
  std::map<std::string, std::vector<double>> KindMs;

  void unit(double Ops, double Seconds) {
    std::lock_guard<std::mutex> Lock(M);
    UnitRates.push_back(Ops / std::max(Seconds, 1e-9));
  }

  void record(double Ms, bool Ok, const std::string &Why,
              const char *Kind = nullptr) {
    std::lock_guard<std::mutex> Lock(M);
    LatMs.push_back(Ms);
    if (Kind)
      KindMs[Kind].push_back(Ms);
    ++Attempted;
    if (!Ok) {
      ++Failed;
      if (Failures.size() < 5)
        Failures.push_back(Why);
    }
  }
  /// Throughput from the median unit, which a burst of load from outside
  /// the process moves less than a mean over the whole phase.
  double opsPerSecond() const { return Concurrency * median(UnitRates); }
};

/// Adds the phases' operation and failure counts, and the failures
/// themselves, to \p R.
void tally(RunResult &R, std::initializer_list<const Timed *> Phases) {
  for (const Timed *T : Phases) {
    R.Attempted += T->Attempted;
    R.Failed += T->Failed;
    R.Notes.insert(R.Notes.end(), T->Failures.begin(), T->Failures.end());
  }
  R.Ok = true;
}

/// The result of an untraced run: counts and end-to-end metrics.
void endToEnd(const std::vector<double> &SetupS, const Timed &T,
              RunResult &R) {
  tally(R, {&T});
  std::vector<double> Lat = T.LatMs;
  std::sort(Lat.begin(), Lat.end());
  size_t N = Lat.size();
  // The highest percentile with at least 10 samples beyond it.
  size_t TailIdx = N > 10 ? N - 11 : (N ? N - 1 : 0);
  double Tail = N ? Lat[TailIdx] : 0;
  R.Notes.push_back(fmt("latency_tail_ms is p%.1f: %.0f samples, %.0f beyond it",
                        N ? 100.0 * double(TailIdx + 1) / double(N) : 0,
                        double(N), double(N - std::min(N, TailIdx + 1))));
  if (N) {
    std::string Deciles = "latency deciles (ms):";
    for (size_t D = 1; D < 10; ++D)
      Deciles += fmt(" %.4g", Lat[D * (N - 1) / 10]);
    R.Notes.push_back(Deciles);
  }
  for (auto [Kind, Ms] : T.KindMs) {
    std::sort(Ms.begin(), Ms.end());
    R.Notes.push_back(Kind + fmt(" requests: %.0f, latency p10 %.4g ms", double(Ms.size()),
                                 Ms[Ms.size() / 10]) +
                      fmt(", p50 %.4g ms, p90 %.4g ms", Ms[Ms.size() / 2],
                          Ms[Ms.size() * 9 / 10]));
  }
  R.Notes.push_back(fmt("error_rate %.6g (%.0f failed of %.0f attempted)",
                        T.Attempted ? double(T.Failed) / double(T.Attempted)
                                    : 0,
                        double(T.Failed), double(T.Attempted)));
  double Values[] = {median(SetupS),
                     T.opsPerSecond(),
                     median(Lat),
                     Tail,
                     T.Attempted ? T.Cpu * 1e3 / double(T.Attempted) : 0,
                     peakRssMb()};
  const auto &Defs = endToEndMetrics();
  for (size_t I = 0; I < Defs.size(); ++I)
    R.Metrics.emplace_back(&Defs[I], Values[I]);
}

void countLoc(const RunConfig &C, LayerSink &L) {
  namespace fs = std::filesystem;
  for (const std::string &Mod : modules()) {
    fs::path Dir = fs::path(C.SrcDir) / Mod;
    std::error_code Ec;
    if (!fs::is_directory(Dir, Ec)) {
      L.absent("loc." + Mod, "no directory " + Dir.string());
      continue;
    }
    double Lines = 0;
    for (const auto &E : fs::recursive_directory_iterator(Dir, Ec)) {
      if (!E.is_regular_file())
        continue;
      std::ifstream F(E.path(), std::ios::binary);
      Lines += double(std::count(std::istreambuf_iterator<char>(F),
                                 std::istreambuf_iterator<char>(), '\n'));
    }
    L.set("loc." + Mod, Lines);
  }
}

/// Median microseconds of one empty fork/join generation at \p Width.
double forkJoinMicros(interp::WorkerPool &Pool, unsigned Width) {
  std::vector<double> Us;
  for (unsigned I = 0; I < 2000; ++I) {
    double T0 = nowSeconds();
    Pool.run(Width, [](unsigned) {});
    Us.push_back((nowSeconds() - T0) * 1e6);
  }
  return median(Us);
}


/// The compile-layer figures of one traced compile.
void sampleCompile(const OpLayers &O, LayerSink &L, bool Count) {
  L.sample("mf.parse_ms", O.ParseMs);
  L.sample("mf.source_bytes", double(O.SourceBytes));
  L.sample("xform.pipeline_ms", O.PipelineMs);
  for (const auto &[Phase, Seconds] : O.PhaseSeconds)
    L.sample("xform.phase." + Phase + "_ms", Seconds * 1e3);
  L.sample("verify.audit_ms", O.AuditMs);
  if (!Count)
    return;
  L.add("analysis.property_queries", O.PropertyQueries);
  L.add("xform.loops_static", O.LoopsStatic);
  L.add("xform.loops_conditional", O.LoopsConditional);
  L.add("xform.loops_serial", O.LoopsSerial);
  L.add("verify.loops_certified", O.LoopsCertified);
}

const char *NoDaemon = "this workload runs in process, without the daemon";

/// What every traced run ends with: per-layer self times per operation,
/// the metrics only paper has, line counts, the spans written out, and
/// every per-layer metric resolved.
void finishLayers(const RunConfig &C, const Tracer &T, double Ops,
                  LayerSink &L, RunResult &R) {
  auto Self = T.selfSeconds();
  for (const std::string &Layer : layers())
    if (Self.count(Layer))
      L.set("layer." + Layer + ".self_ms", Self[Layer] * 1e3 / Ops);
  for (const char *Layer : {"vm", "sched"})
    L.absent(std::string("layer.") + Layer + ".self_ms",
             std::string(Layer) +
                 " runs inside interp::Interpreter::run, which the benchmark "
                 "cannot split from outside; its time is in "
                 "layer.interp.self_ms");
  if (C.Workload != "paper")
    for (const MetricDef &D : perLayerMetrics())
      if (D.Name.rfind("model.", 0) == 0 ||
          D.Name.rfind("interp.run_ms.", 0) == 0)
        L.absent(D.Name, "reported for the five paper programs only");
  countLoc(C, L);
  std::string Path = C.ScratchDir + "/spans-" + C.Workload + ".jsonl";
  if (T.writeJsonl(Path))
    R.Notes.push_back("spans written to " + Path + " (" +
                      std::to_string(T.spans().size()) + " spans)");
  R.Metrics = L.resolve(R.Notes);
}

//===----------------------------------------------------------------------===//
// paper and sparse_large: cold source-to-checksum operations
//===----------------------------------------------------------------------===//

struct ProgramSet {
  std::vector<benchprogs::BenchmarkProgram> Progs;
  std::unique_ptr<interp::WorkerPool> Pool;
};

bool isPaper(const RunConfig &C) { return C.Workload == "paper"; }

ProgramSet setupPrograms(const RunConfig &C) {
  ProgramSet S;
  if (isPaper(C)) {
    S.Progs = paperPrograms();
  } else {
    for (unsigned I = 0; I < SparsePrograms; ++I)
      S.Progs.push_back(sparseProgram(C.Seed, I));
  }
  S.Pool = std::make_unique<interp::WorkerPool>(C.Nproc);
  return S;
}

/// Counts that must repeat exactly for one seed, summed over one round.
struct RoundCounts {
  uint64_t VmChunks = 0, Chunks = 0;
  bool Counted = false; ///< A whole round has been counted.
};

void sampleRun(const benchprogs::BenchmarkProgram &P, const OpLayers &O,
               bool Paper, bool Count, LayerSink &L, RoundCounts &RC) {
  sampleCompile(O, L, Count);
  const interp::ExecStats &S = O.Stats;
  L.sample("interp.run_ms", O.RunMs);
  if (Paper)
    L.sample("interp.run_ms." + lower(P.Name), O.RunMs);
  L.sample("interp.irregular_loop_ms", O.IrregularLoopMs);
  L.sample("interp.serial_ms", O.SerialMs);
  L.sample("interp.alloc_ms", O.AllocMs);
  L.sample("interp.inspect_ms", O.InspectMs);
  if (S.ChunkSecondsSum > 0)
    L.sample("interp.chunk_imbalance",
             S.ChunkSecondsMax * S.ChunksRun / S.ChunkSecondsSum);
  if (!Count)
    return;
  L.add("interp.dispatch_static", S.DispatchStatic);
  L.add("interp.dispatch_conditional", S.DispatchConditional);
  L.add("interp.dispatch_serial", S.DispatchSerial);
  L.add("interp.dispatch_replay", S.DispatchReplay);
  L.add("interp.chunks_run", S.ChunksRun);
  L.add("interp.inspections_run", S.InspectionsRun);
  L.add("interp.inspections_cached", S.InspectionsCached);
  L.add("interp.inspection_lookups", S.InspectionsRun + S.InspectionsCached);
  L.add("interp.runtime_check_fails", S.RuntimeCheckFails);
  L.add("interp.rollbacks", S.FaultRollbacks);
  L.add("interp.replays", S.FaultReplays);
  L.add("vm.loops_compiled", S.VmLoopsCompiled);
  L.add("vm.bailouts", S.VmBailouts);
  L.add("sched.model_picks", S.LocalityModelPicks);
  L.add("sched.reorders", S.LocalityReorders);
  L.add("sched.reorders_cached", S.LocalityReordersCached);
  RC.VmChunks += S.VmChunksRun;
  RC.Chunks += S.ChunksRun;
}

/// Runs whole seeded rounds until \p Seconds have passed, adding to \p Out.
/// Traced, the counts of the first round ever traced into \p L are the
/// run's deterministic counts.
void runRounds(const RunConfig &C, ProgramSet &S, const std::vector<double> &Ref,
               double Seconds, unsigned &Round, Tracer *T, LayerSink *L,
               RoundCounts *RC, Timed &Out) {
  OpConfig Oc;
  Oc.Threads = C.Nproc;
  Oc.Locality = isPaper(C) ? sched::LocalityMode::Off
                           : sched::LocalityMode::Reorder;
  Oc.Pool = S.Pool.get();
  unsigned First = Round;
  double Start = nowSeconds(), Cpu0 = cpuSeconds();
  do {
    std::vector<unsigned> Order = roundOrder(C.Seed, isPaper(C) ? 0 : 1, Round,
                                             unsigned(S.Progs.size()));
    double RoundStart = nowSeconds();
    for (unsigned Idx : Order) {
      const benchprogs::BenchmarkProgram &P = S.Progs[Idx];
      double T0 = nowSeconds();
      OpResult R = runOperation(P, Oc, T, Out.Attempted);
      double Ms = (nowSeconds() - T0) * 1e3;
      std::string Why = R.Ok ? "" : P.Name + ": " + R.Error;
      if (R.Ok && R.Checksum != Ref[Idx])
        Why = P.Name + ": checksum " + json::num(R.Checksum) +
              " differs from the serial reference " + json::num(Ref[Idx]);
      Out.record(Ms, Why.empty(), Why);
      if (L && R.Ok)
        sampleRun(P, R.Layers, isPaper(C), Round == First && !RC->Counted, *L,
                  *RC);
    }
    Out.unit(double(Order.size()), nowSeconds() - RoundStart);
    ++Round;
    if (RC)
      RC->Counted = true;
  } while (nowSeconds() - Start < Seconds);
  Out.Cpu += cpuSeconds() - Cpu0;
}

/// model.*: simulated and real-thread speedups over the serial tree walk.
void modelVsReal(const RunConfig &C, ProgramSet &S, LayerSink &L,
                 RunResult &R) {
  for (const auto &P : S.Progs) {
    std::string N = lower(P.Name);
    double Serial = runSeconds(P.Source, 1, false, nullptr);
    double Real = runSeconds(P.Source, C.Nproc, false, S.Pool.get());
    double Sim = runSeconds(P.Source, C.Nproc, true, nullptr);
    if (Serial <= 0 || Real <= 0 || Sim <= 0)
      continue;
    L.set("model.sim_speedup." + N, Serial / Sim);
    L.set("model.real_speedup." + N, Serial / Real);
    L.set("model.sim_over_real." + N, Real / Sim);
    R.Notes.push_back("model " + P.Name +
                      fmt(" at T=%.0f, tree walk over serial: simulated "
                          "%.2fx, real threads %.2fx",
                          double(C.Nproc), Serial / Sim, Serial / Real) +
                      fmt("; the model overstates real threads %.2fx",
                          Real / Sim));
  }
}

RunResult runPrograms(const RunConfig &C) {
  RunResult R;
  std::vector<double> SetupS;
  ProgramSet S;
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    double T0 = nowSeconds();
    ProgramSet Fresh = setupPrograms(C);
    SetupS.push_back(nowSeconds() - T0);
    S = std::move(Fresh);
    std::this_thread::sleep_for(SetupPause);
  }

  std::vector<double> Ref(S.Progs.size());
  for (size_t I = 0; I < S.Progs.size(); ++I)
    if (!referenceChecksum(S.Progs[I].Source, Ref[I], R.Error)) {
      R.Error = S.Progs[I].Name + " reference: " + R.Error;
      return R;
    }

  unsigned Round = 0;
  if (!C.Trace) {
    Timed T;
    runRounds(C, S, Ref, C.Seconds, Round, nullptr, nullptr, nullptr, T);
    endToEnd(SetupS, T, R);
    return R;
  }

  // Traced: untraced and traced quarters of the same stream, alternating.
  LayerSink L;
  Tracer Tr;
  RoundCounts RC;
  Timed Plain, Traced;
  for (unsigned Slice = 0; Slice < 2; ++Slice) {
    runRounds(C, S, Ref, C.Seconds / 4, Round, nullptr, nullptr, nullptr,
              Plain);
    runRounds(C, S, Ref, C.Seconds / 4, Round, &Tr, &L, &RC, Traced);
  }
  tally(R, {&Plain, &Traced});

  L.set("bench.trace_overhead",
        Traced.opsPerSecond() / std::max(1e-9, Plain.opsPerSecond()));
  double Lookups = L.value("interp.inspection_lookups");
  if (Lookups > 0)
    L.set("interp.inspection_hit_ratio",
          L.value("interp.inspections_cached") / Lookups);
  else
    L.absent("interp.inspection_hit_ratio", "no runtime-checked dispatch");
  if (RC.Chunks)
    L.set("vm.chunk_share", double(RC.VmChunks) / double(RC.Chunks));
  L.set("interp.forkjoin_us", forkJoinMicros(*S.Pool, C.Nproc));
  L.absent("layer.server.self_ms", NoDaemon);
  for (const char *M :
       {"server.rtt_ms", "server.exec_ms", "server.handle_ms",
        "server.transport_queue_ms", "server.artifact_hit_ratio",
        "server.artifact_hits", "server.artifact_lookups",
        "server.response_bytes", "server.shed", "protocol.parse_us",
        "protocol.serialize_us"})
    L.absent(M, NoDaemon);
  if (isPaper(C))
    modelVsReal(C, S, L, R);
  finishLayers(C, Tr, double(Traced.Attempted), L, R);
  return R;
}

//===----------------------------------------------------------------------===//
// service_mix: closed-loop clients of an in-process daemon
//===----------------------------------------------------------------------===//

unsigned clientsFor(const RunConfig &C) { return std::max(1u, C.Nproc / 2); }

struct ServiceRig {
  std::unique_ptr<server::Daemon> Daemon;
  std::vector<std::unique_ptr<server::Client>> Clients;
  std::vector<std::vector<ServiceRequest>> FirstBlocks;

  /// Closes the connections, then stops the daemon.
  void reset() {
    Clients.clear();
    Daemon.reset();
    FirstBlocks.clear();
  }
};

bool setupService(const RunConfig &C, ServiceRig &Rig, std::string &Err) {
  unsigned Clients = clientsFor(C);
  for (unsigned Cl = 0; Cl < Clients; ++Cl)
    Rig.FirstBlocks.push_back(serviceBlock(C.Seed, Cl, 0));
  server::DaemonConfig Cfg;
  Cfg.SocketPath = C.ScratchDir + "/perfbench-" + std::to_string(::getpid()) +
                   ".sock";
  Cfg.PoolThreads = C.Nproc;
  Cfg.ServiceThreads = Clients;
  Rig.Daemon = std::make_unique<server::Daemon>(Cfg);
  if (!Rig.Daemon->start(&Err))
    return false;
  for (unsigned Cl = 0; Cl < Clients; ++Cl) {
    Rig.Clients.push_back(std::make_unique<server::Client>());
    if (!Rig.Clients.back()->connect(Cfg.SocketPath, &Err))
      return false;
  }
  std::string Reply;
  if (!Rig.Clients[0]->roundTrip("{\"op\": \"ping\"}", Reply, &Err))
    return false;
  if (Reply.find("\"pong\"") == std::string::npos) {
    Err = "ping answered " + Reply;
    return false;
  }
  return true;
}

/// A plan summary's lines, sorted, with the reason of each serial verdict
/// dropped. The summary lists a loop's per-array outcomes in an order that
/// varies from one compile to the next, and a serial loop's reason names
/// whichever of its dependent arrays comes first in that order, so replies
/// are compared as multisets of lines with the verdicts kept.
std::string canonicalPlan(const std::string &Summary) {
  std::vector<std::string> Lines;
  size_t Pos = 0;
  while (Pos < Summary.size()) {
    size_t Eol = Summary.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Summary.size();
    std::string Line = Summary.substr(Pos, Eol - Pos);
    size_t Reason = Line.find(": serial (");
    if (Reason != std::string::npos)
      Line.resize(Reason + 8);
    Lines.push_back(Line);
    Pos = Eol + 1;
  }
  std::sort(Lines.begin(), Lines.end());
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}

/// What every reply is checked against.
struct ServiceExpect {
  /// canonicalPlan of the plan summary per (paper program, scale).
  std::vector<std::vector<std::string>> Plans;
  /// json::num of the serial reference checksum per (client, repeat).
  std::vector<std::vector<std::string>> Checksums;

  bool check(const ServiceRequest &Q, unsigned Client, const std::string &Line,
             std::string &Why, double *ExecSeconds) const {
    std::optional<json::Value> V = json::parse(Line);
    const json::Value *St = V ? V->member("status") : nullptr;
    if (!St || !St->isString()) {
      Why = "unparsable reply " + Line.substr(0, 200);
      return false;
    }
    auto Str = [&](const char *Key) {
      const json::Value *M = V->member(Key);
      return M && M->isString() ? M->S : std::string();
    };
    auto Num = [&](const char *Key, double &Out) {
      const json::Value *M = V->member(Key);
      if (M && M->isNumber())
        Out = M->N;
      return M && M->isNumber();
    };
    Why = Q.Line.substr(0, 60) + "... -> " + Line.substr(0, 200);
    switch (Q.K) {
    case ServiceRequest::Kind::Compile:
      return St->S == "ok" && !Str("plan").empty() &&
             canonicalPlan(Str("plan")) == Plans[Q.Program][Q.Scale];
    case ServiceRequest::Kind::Repeat: {
      double Sum = 0;
      if (St->S != "ok" || !Num("checksum", Sum) ||
          json::num(Sum) != Checksums[Client][Q.Program])
        return false;
      if (ExecSeconds)
        Num("seconds", *ExecSeconds);
      return true;
    }
    case ServiceRequest::Kind::Fault: {
      double Exit = 0;
      return St->S == "fault" && Str("fault") == "div-by-zero" &&
             Num("exit_equivalent", Exit) && Exit == 4;
    }
    }
    return false;
  }
};

bool buildExpectations(const RunConfig &C, ServiceExpect &E, std::string &Err) {
  server::ArtifactCache Cache(64);
  size_t Scales = std::size(ServiceScales);
  E.Plans.assign(5, std::vector<std::string>(Scales));
  for (unsigned P = 0; P < 5; ++P)
    for (unsigned S = 0; S < Scales; ++S) {
      bool Hit = false;
      auto Art = Cache.get(compileSource(P, S, "expected plan"),
                           xform::PipelineMode::Full,
                           verify::AuditMode::Strict, Hit);
      if (!Art->ok()) {
        Err = "compile reference: " + Art->BuildError;
        return false;
      }
      E.Plans[P][S] = canonicalPlan(Art->PlanSummary);
    }
  E.Checksums.assign(clientsFor(C), std::vector<std::string>(RepeatPrograms));
  for (unsigned Cl = 0; Cl < clientsFor(C); ++Cl)
    for (unsigned J = 0; J < RepeatPrograms; ++J) {
      double Sum = 0;
      if (!referenceChecksum(repeatSource(C.Seed, Cl, J), Sum, Err))
        return false;
      E.Checksums[Cl][J] = json::num(Sum);
    }
  return true;
}

/// Per-client traced figures of the socket phase.
struct ClientTrace {
  Tracer Spans;
  std::vector<double> RttMs, ExecMs;
  double ResponseBytes = 0;
};

/// Every client sends whole blocks until \p Seconds have passed.
void runClients(const RunConfig &C, ServiceRig &Rig, const ServiceExpect &E,
                double Seconds, std::vector<unsigned> &NextBlock,
                std::vector<ClientTrace> *Traces, Timed &Out) {
  double Start = nowSeconds(), Cpu0 = cpuSeconds();
  std::vector<std::thread> Threads;
  for (unsigned Cl = 0; Cl < Rig.Clients.size(); ++Cl)
    Threads.emplace_back([&, Cl] {
      server::Client &Client = *Rig.Clients[Cl];
      ClientTrace *CT = Traces ? &(*Traces)[Cl] : nullptr;
      do {
        unsigned B = NextBlock[Cl]++;
        std::vector<ServiceRequest> Block =
            B == 0 ? Rig.FirstBlocks[Cl] : serviceBlock(C.Seed, Cl, B);
        double BlockStart = nowSeconds();
        for (unsigned I = 0; I < Block.size(); ++I) {
          const ServiceRequest &Q = Block[I];
          std::string Reply, Why;
          double T0 = nowSeconds();
          uint64_t OpId = uint64_t(Cl) << 32 | (uint64_t(B) * ServiceBlock + I);
          Scope Span(CT ? &CT->Spans : nullptr, "server.roundTrip", OpId);
          bool Sent = Client.roundTrip(Q.Line, Reply, &Why);
          Span.end();
          double Ms = (nowSeconds() - T0) * 1e3, Exec = -1;
          bool Ok = Sent && E.check(Q, Cl, Reply, Why, &Exec);
          static const char *const KindNames[] = {"compile", "repeat run",
                                                  "faulting run"};
          Out.record(Ms, Ok, Why, KindNames[int(Q.K)]);
          if (!Sent)
            return;
          if (CT) {
            CT->RttMs.push_back(Ms);
            CT->ResponseBytes += double(Reply.size());
            if (Exec >= 0)
              CT->ExecMs.push_back(Exec * 1e3);
          }
        }
        Out.unit(double(Block.size()), nowSeconds() - BlockStart);
      } while (nowSeconds() - Start < Seconds);
    });
  for (std::thread &T : Threads)
    T.join();
  Out.Cpu += cpuSeconds() - Cpu0;
}

/// Replays the first ReplayBlocks blocks of every client's stream through
/// in-process Sessions, timing the protocol and session calls apart and
/// the compile layers by direct calls on each compile request's source.
void replayInProcess(const RunConfig &C, const ServiceExpect &E, Tracer &Tr,
                     LayerSink &L, Timed &Out) {
  server::ArtifactCache Cache(64);
  server::Watchdog Deadlines;
  interp::WorkerPool Pool(C.Nproc);
  server::ServiceCounters Counters;
  std::atomic<bool> Shutdown{false};
  server::SessionEnv Env;
  Env.Artifacts = &Cache;
  Env.Deadlines = &Deadlines;
  Env.SharedPool = &Pool;
  Env.Counters = &Counters;
  Env.ShutdownFlag = &Shutdown;
  std::vector<std::unique_ptr<server::Session>> Sessions;
  for (unsigned Cl = 0; Cl < clientsFor(C); ++Cl)
    Sessions.push_back(std::make_unique<server::Session>(Env));

  uint64_t OpId = 1u << 30;
  for (unsigned B = 0; B < ReplayBlocks; ++B)
    for (unsigned Cl = 0; Cl < Sessions.size(); ++Cl)
      for (const ServiceRequest &Q : serviceBlock(C.Seed, Cl, B)) {
        std::string Line, Err, Why;
        double T0 = nowSeconds();
        {
          Scope Handle(&Tr, "server.handleLine", OpId);
          std::optional<server::Request> Req;
          {
            Scope S(&Tr, "protocol.parseRequest", OpId);
            Req = server::parseRequest(Q.Line, Err, Env.MaxRequestBytes);
            L.sample("protocol.parse_us", S.end() * 1e6);
          }
          server::Response Resp =
              Req ? Sessions[Cl]->handle(*Req) : server::errorResponse("", Err);
          if (Resp.HasChecksum)
            Tr.reported("interp.run", Resp.Seconds, OpId);
          {
            Scope S(&Tr, "protocol.toJsonLine", OpId);
            Line = Resp.toJsonLine();
            L.sample("protocol.serialize_us", S.end() * 1e6);
          }
          L.sample("server.handle_ms", Handle.end() * 1e3);
        }
        bool Ok = E.check(Q, Cl, Line, Why, nullptr);
        if (Ok && Q.K == ServiceRequest::Kind::Compile) {
          OpLayers O;
          Ok = compileLayers(Q.Source, &Tr, OpId, O);
          sampleCompile(O, L, true);
        }
        Out.record((nowSeconds() - T0) * 1e3, Ok, Why);
        ++OpId;
      }

  auto Sum = [&](const char *Stat) {
    double V = 0;
    for (const auto &S : Sessions)
      V += double(S->counters().value(Stat));
    return V;
  };
  double Run = Sum("interp_inspections_run"),
         Cached = Sum("interp_inspections_cached");
  L.set("interp.inspections_run", Run);
  L.set("interp.inspections_cached", Cached);
  L.set("interp.inspection_lookups", Run + Cached);
  if (Run + Cached > 0)
    L.set("interp.inspection_hit_ratio", Cached / (Run + Cached));
  else
    L.absent("interp.inspection_hit_ratio", "no runtime-checked dispatch");
  L.set("interp.runtime_check_fails", Sum("interp_runtime_check_fails"));
  L.set("interp.rollbacks", Sum("interp_fault_rollbacks"));
  L.set("interp.replays", Sum("interp_fault_replays"));
  L.set("interp.chunks_run", Sum("interp_chunks_run"));
  L.set("sched.model_picks", Sum("interp_locality_model_picks"));
  L.set("sched.reorders", Sum("interp_locality_reorders"));
  L.set("sched.reorders_cached", Sum("interp_locality_reorders_cached"));
}

RunResult runService(const RunConfig &C) {
  RunResult R;
  std::vector<double> SetupS;
  ServiceRig Rig;
  for (unsigned I = 0; I < ServiceSetupRepeats; ++I) {
    Rig.reset(); // Tear the previous rig down outside the timing.
    double T0 = nowSeconds();
    if (!setupService(C, Rig, R.Error))
      return R;
    SetupS.push_back(nowSeconds() - T0);
    std::this_thread::sleep_for(SetupPause);
  }
  ServiceExpect E;
  if (!buildExpectations(C, E, R.Error))
    return R;

  std::vector<unsigned> NextBlock(Rig.Clients.size(), 0);
  if (!C.Trace) {
    Timed T;
    T.Concurrency = unsigned(Rig.Clients.size());
    runClients(C, Rig, E, C.Seconds, NextBlock, nullptr, T);
    endToEnd(SetupS, T, R);
    return R;
  }

  // Untraced and traced quarters over the socket, alternating; the
  // artifact-cache counters are read around the traced ones.
  LayerSink L;
  Timed Plain, Traced, Replayed;
  Plain.Concurrency = Traced.Concurrency = unsigned(Rig.Clients.size());
  server::ArtifactCache &Art = Rig.Daemon->artifacts();
  std::vector<ClientTrace> Traces(Rig.Clients.size());
  double Hits = 0, Lookups = 0;
  for (unsigned Slice = 0; Slice < 2; ++Slice) {
    runClients(C, Rig, E, C.Seconds / 4, NextBlock, nullptr, Plain);
    double Hits0 = double(Art.hits()), Misses0 = double(Art.misses());
    runClients(C, Rig, E, C.Seconds / 4, NextBlock, &Traces, Traced);
    Hits += double(Art.hits()) - Hits0;
    Lookups += double(Art.hits()) - Hits0 + double(Art.misses()) - Misses0;
  }
  double Shed = double(Rig.Daemon->counters().Shed.load());

  Tracer Tr;
  std::vector<double> Rtt, Exec;
  double Bytes = 0;
  for (ClientTrace &CT : Traces) {
    Tr.append(CT.Spans);
    Rtt.insert(Rtt.end(), CT.RttMs.begin(), CT.RttMs.end());
    Exec.insert(Exec.end(), CT.ExecMs.begin(), CT.ExecMs.end());
    Bytes += CT.ResponseBytes;
  }
  replayInProcess(C, E, Tr, L, Replayed);
  tally(R, {&Plain, &Traced, &Replayed});

  auto Mean = [](const std::vector<double> &V) {
    double S = 0;
    for (double X : V)
      S += X;
    return V.empty() ? 0 : S / double(V.size());
  };
  L.set("server.rtt_ms", Mean(Rtt));
  L.set("server.exec_ms", Mean(Exec));
  L.set("server.transport_queue_ms", Mean(Rtt) - L.value("server.handle_ms"));
  L.set("server.artifact_hits", Hits);
  L.set("server.artifact_lookups", Lookups);
  if (Lookups > 0)
    L.set("server.artifact_hit_ratio", Hits / Lookups);
  L.set("server.response_bytes", Rtt.empty() ? 0 : Bytes / double(Rtt.size()));
  L.set("server.shed", Shed);
  L.set("bench.trace_overhead",
        Traced.opsPerSecond() / std::max(1e-9, Plain.opsPerSecond()));
  {
    interp::WorkerPool Pool(C.Nproc);
    L.set("interp.forkjoin_us", forkJoinMicros(Pool, ServiceRequestThreads));
  }
  const char *NoStats =
      "the daemon's Session returns no ExecStats and its counters have no "
      "such entry";
  for (const char *M :
       {"interp.dispatch_static", "interp.dispatch_conditional",
        "interp.dispatch_serial", "interp.dispatch_replay",
        "interp.chunk_imbalance", "interp.irregular_loop_ms",
        "interp.serial_ms", "vm.loops_compiled", "vm.bailouts",
        "vm.chunk_share"})
    L.absent(M, NoStats);
  for (const char *M : {"interp.alloc_ms", "interp.inspect_ms"})
    L.absent(M, "the daemon allocates and inspects inside Session::handle");
  L.absent("interp.run_ms", "execution time is server.exec_ms here");
  finishLayers(C, Tr, double(Traced.Attempted + Replayed.Attempted), L, R);
  return R;
}

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {"paper", "sparse_large",
                                                 "service_mix"};
  return Names;
}

RunResult perfbench::runWorkload(const RunConfig &C) {
  if (C.Workload == "service_mix")
    return runService(C);
  return runPrograms(C);
}

namespace {

/// One traced round of a program workload: its references and the counts
/// that must repeat exactly for a seed.
bool tracedRound(const RunConfig &C, std::vector<double> &Ref,
                 std::vector<double> &Counts) {
  ProgramSet S = setupPrograms(C);
  Ref.assign(S.Progs.size(), 0);
  std::string Err;
  for (size_t I = 0; I < S.Progs.size(); ++I)
    if (!referenceChecksum(S.Progs[I].Source, Ref[I], Err))
      return false;
  LayerSink L;
  Tracer T;
  RoundCounts RC;
  Timed Td;
  unsigned Round = 0;
  runRounds(C, S, Ref, /*Seconds=*/0, Round, &T, &L, &RC, Td);
  Counts.clear();
  for (const char *M :
       {"xform.loops_static", "xform.loops_conditional", "xform.loops_serial",
        "analysis.property_queries", "vm.loops_compiled", "vm.bailouts",
        "interp.dispatch_static", "interp.dispatch_conditional",
        "interp.dispatch_serial", "interp.dispatch_replay",
        "interp.inspections_run"})
    Counts.push_back(L.value(M));
  return Td.Failed == 0;
}

} // namespace

bool perfbench::selfTest(const RunConfig &C) {
  bool AllOk = true;
  auto Expect = [&](bool Cond, const std::string &What) {
    std::printf("%s %s\n", Cond ? "ok  " : "FAIL", What.c_str());
    AllOk &= Cond;
  };
  uint64_t S1 = C.Seed, S2 = C.Seed + 1;

  Expect(sparseProgram(S1, 0).Source == sparseProgram(S1, 0).Source,
         "same seed: byte-identical sparse_large source");
  Expect(sparseProgram(S1, 0).Source != sparseProgram(S2, 0).Source,
         "other seed: other sparse_large source");
  auto Lines = [](uint64_t Seed) {
    std::string All;
    for (const ServiceRequest &Q : serviceBlock(Seed, 0, 0))
      All += Q.Line + "\n";
    return All;
  };
  Expect(Lines(S1) == Lines(S1), "same seed: byte-identical service_mix stream");
  Expect(Lines(S1) != Lines(S2), "other seed: other service_mix stream");
  bool SameOrder = true, OtherOrder = false;
  for (unsigned R = 0; R < 8; ++R) {
    SameOrder &= roundOrder(S1, 0, R, 5) == roundOrder(S1, 0, R, 5);
    OtherOrder |= roundOrder(S1, 0, R, 5) != roundOrder(S2, 0, R, 5);
  }
  Expect(SameOrder, "same seed: same paper order");
  Expect(OtherOrder, "other seed: other paper order");

  std::vector<std::string> Sources;
  for (const auto &P : paperPrograms())
    Sources.push_back(P.Source);
  Sources.push_back(sparseProgram(S1, 0).Source);
  for (unsigned J = 0; J < 5; ++J)
    Sources.push_back(repeatSource(S1, 0, J));
  for (size_t I = 0; I < Sources.size(); ++I) {
    std::string Why;
    Expect(untransformedArraysAgree(Sources[I], Why),
           "reference arrays equal those of the untransformed program (input " +
               std::to_string(I) + ")" + (Why.empty() ? "" : ": " + Why));
  }

  for (const char *W : {"paper", "sparse_large"}) {
    RunConfig Cw = C;
    Cw.Workload = W;
    std::vector<double> RefA, RefB, CountA, CountB;
    bool RanA = tracedRound(Cw, RefA, CountA);
    bool RanB = tracedRound(Cw, RefB, CountB);
    Expect(RanA && RanB, std::string(W) + ": two traced rounds, no failure");
    Expect(RefA == RefB, std::string(W) + ": reference checksums repeat");
    Expect(CountA == CountB, std::string(W) +
                                 ": plan, dispatch, VM and inspection counts "
                                 "repeat");
    if (Cw.Workload == "sparse_large") {
      double Other = 0;
      std::string Err;
      Expect(referenceChecksum(sparseProgram(S2, 0).Source, Other, Err) &&
                 Other != RefA[0],
             "other seed: other sparse_large reference checksum");
    }
  }
  return AllOk;
}
