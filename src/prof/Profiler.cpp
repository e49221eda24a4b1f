//===- prof/Profiler.cpp - Sampling memory-access profiler ----------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "prof/Profiler.h"

#include "support/Json.h"
#include "support/Statistic.h"
#include "support/Trace.h"
#include "xform/Parallelizer.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>

using namespace iaa;
using namespace iaa::prof;

#define IAA_STAT_GROUP "prof"
IAA_STAT(prof_loops_recorded, "Loop invocations fully recorded");
IAA_STAT(prof_loops_light, "Loop invocations past the recording cap");
IAA_STAT(prof_accesses_sampled, "Element accesses admitted to line streams");

//===----------------------------------------------------------------------===//
// Reuse distances (Olken)
//===----------------------------------------------------------------------===//

namespace {

/// Fenwick tree over stream positions (1-based internally);
/// prefix(P) = # set flags in positions [0, P].
class Fenwick {
public:
  explicit Fenwick(size_t N) : Tree(N + 1, 0) {}

  void add(size_t Pos, int Delta) {
    for (size_t I = Pos + 1; I < Tree.size(); I += I & (0 - I))
      Tree[I] += Delta;
  }

  int64_t prefix(size_t Pos) const {
    int64_t S = 0;
    for (size_t I = Pos + 1; I > 0; I -= I & (0 - I))
      S += Tree[I];
    return S;
  }

private:
  std::vector<int64_t> Tree;
};

} // namespace

void iaa::prof::reuseDistances(const std::vector<uint32_t> &Lines,
                               ReuseHistogram &H) {
  // Olken: keep, per line, the position of its last access, and a Fenwick
  // tree with a 1 at every position that is currently someone's last
  // access. The number of distinct lines touched strictly between two
  // accesses to the same line is then a prefix-sum difference.
  Fenwick Live(Lines.size());
  std::unordered_map<uint32_t, size_t> Last;
  Last.reserve(Lines.size());
  for (size_t T = 0; T < Lines.size(); ++T) {
    uint32_t L = Lines[T];
    auto It = Last.find(L);
    if (It == Last.end()) {
      ++H.Cold;
    } else {
      size_t P = It->second;
      // Distinct live last-accesses in (P, T) = Sum(T-1) - Sum(P).
      uint64_t D = static_cast<uint64_t>(Live.prefix(T - 1) - Live.prefix(P));
      H.add(D);
      Live.add(P, -1);
    }
    Live.add(T, +1);
    Last[L] = T;
  }
}

//===----------------------------------------------------------------------===//
// Names and JSON helpers
//===----------------------------------------------------------------------===//

const char *iaa::prof::dispatchKindName(DispatchKind K) {
  switch (K) {
  case DispatchKind::Serial:
    return "serial";
  case DispatchKind::SerialSmall:
    return "serial-small";
  case DispatchKind::Parallel:
    return "parallel";
  case DispatchKind::CondParallel:
    return "conditional-parallel";
  case DispatchKind::CondSerial:
    return "conditional-serial";
  case DispatchKind::Replay:
    return "replay";
  case DispatchKind::RaceCheck:
    return "race-check";
  }
  return "serial";
}

namespace {

std::string jsonArrayProfile(const ArrayProfile &A) {
  std::string Hist = "[";
  for (unsigned I = 0; I < ReuseHistogram::NumBuckets; ++I) {
    if (I)
      Hist += ",";
    Hist += std::to_string(A.Hist.Buckets[I]);
  }
  Hist += "]";
  return "{\"name\": " + json::str(A.Name) +
         ", \"reads\": " + std::to_string(A.Reads) +
         ", \"writes\": " + std::to_string(A.Writes) +
         ", \"sampled\": " + std::to_string(A.Sampled) +
         ", \"dropped\": " + std::to_string(A.SamplesDropped) +
         ", \"lines\": " + std::to_string(A.FootprintLines) +
         ", \"cold\": " + std::to_string(A.Hist.Cold) +
         ", \"reuse_hist\": " + Hist +
         ", \"locality\": " + json::num(A.Hist.localityScore()) + "}";
}

std::string jsonWorker(const WorkerTimeline &W) {
  return "{\"worker\": " + std::to_string(W.Worker) +
         ", \"chunks\": " + std::to_string(W.Chunks) +
         ", \"dispatch_us\": " + json::num(W.DispatchUs) +
         ", \"busy_us\": " + json::num(W.BusyUs) +
         ", \"stall_us\": " + json::num(W.StallUs) +
         ", \"lines\": " + std::to_string(W.FootprintLines) +
         ", \"first_iter\": " + std::to_string(W.FirstIter) +
         ", \"last_iter\": " + std::to_string(W.LastIter) +
         ", \"events_dropped\": " + std::to_string(W.EventsDropped) + "}";
}

std::string jsonChunk(unsigned Worker, const ChunkEvent &E) {
  return "{\"worker\": " + std::to_string(Worker) +
         ", \"chunk\": " + std::to_string(E.Chunk) +
         ", \"first\": " + std::to_string(E.First) +
         ", \"last\": " + std::to_string(E.Last) +
         ", \"start_us\": " + json::num(E.StartUs) +
         ", \"dur_us\": " + json::num(E.DurUs) + "}";
}

} // namespace

std::string LoopProfile::jsonLine() const {
  std::string Out = "{\"type\": \"loop\", \"label\": " + json::str(Label) +
                    ", \"invocation\": " + std::to_string(Invocation) +
                    ", \"dispatch\": " +
                    json::str(dispatchKindName(Dispatch.Kind)) +
                    ", \"detail\": " + json::str(Dispatch.Detail) +
                    ", \"engine\": " + json::str(Dispatch.Engine) +
                    ", \"lo\": " + std::to_string(Dispatch.Lo) +
                    ", \"up\": " + std::to_string(Dispatch.Up) +
                    ", \"niter\": " + std::to_string(Dispatch.NIter) +
                    ", \"threads\": " + std::to_string(Dispatch.Threads) +
                    ", \"schedule\": " + json::str(Dispatch.Schedule) +
                    ", \"locality\": " + json::str(Dispatch.Locality) +
                    ", \"worker_lines\": " + std::to_string(WorkerLinesSum) +
                    ", \"wall_us\": " + json::num(WallUs) +
                    ", \"inspect_us\": " + json::num(InspectUs) +
                    ", \"rollback_us\": " + json::num(RollbackUs) +
                    ", \"replay_us\": " + json::num(ReplayUs);
  if (Perf.Valid)
    Out += ", \"perf\": {\"cycles\": " + std::to_string(Perf.Cycles) +
           ", \"instructions\": " + std::to_string(Perf.Instructions) +
           ", \"llc_misses\": " + std::to_string(Perf.LlcMisses) + "}";
  else
    Out += ", \"perf\": null";
  Out += ", \"arrays\": [";
  for (size_t I = 0; I < Arrays.size(); ++I)
    Out += (I ? ", " : "") + jsonArrayProfile(Arrays[I]);
  Out += "], \"workers\": [";
  for (size_t I = 0; I < Workers.size(); ++I)
    Out += (I ? ", " : "") + jsonWorker(Workers[I]);
  Out += "], \"chunks\": [";
  bool First = true;
  for (const WorkerTimeline &W : Workers)
    for (const ChunkEvent &E : W.Events) {
      Out += (First ? "" : ", ") + jsonChunk(W.Worker, E);
      First = false;
    }
  Out += "]}";
  return Out;
}

std::string LoopHealth::jsonLine() const {
  return "{\"type\": \"health\", \"label\": " + json::str(Label) +
         ", \"verdict\": " + json::str(Verdict) +
         ", \"why\": " + json::str(Why) +
         ", \"invocations\": " + std::to_string(Invocations) +
         ", \"recorded\": " + std::to_string(Recorded) +
         ", \"threads_max\": " + std::to_string(ThreadsMax) +
         ", \"locality\": " + json::num(LocalityScore) +
         ", \"imbalance_pct\": " + json::num(ImbalancePct) +
         ", \"analysis_pct\": " + json::num(AnalysisPct) +
         ", \"wall_us\": " + json::num(WallUs) +
         ", \"footprint_lines\": " + std::to_string(FootprintLines) +
         ", \"worker_lines\": " + std::to_string(WorkerLines) +
         ", \"sampled\": " + std::to_string(SampledAccesses) +
         ", \"dispatch\": {\"static\": " + std::to_string(DispatchStatic) +
         ", \"conditional\": " + std::to_string(DispatchConditional) +
         ", \"serial\": " + std::to_string(DispatchSerial) +
         ", \"replay\": " + std::to_string(DispatchReplay) + "}}";
}

std::string LoopHealth::str() const {
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "  %-10s %-20s locality %.2f  imbalance %5.1f%%  "
                "analysis %4.1f%%  wall %.0fus  lines %llu  x%u\n",
                Label.c_str(), Verdict.c_str(), LocalityScore, ImbalancePct,
                AnalysisPct, WallUs,
                static_cast<unsigned long long>(FootprintLines), Invocations);
  std::string Out = Buf;
  std::snprintf(Buf, sizeof(Buf),
                "             dispatch: static %u / conditional %u / "
                "serial %u / replay %u\n",
                DispatchStatic, DispatchConditional, DispatchSerial,
                DispatchReplay);
  Out += Buf;
  if (!Why.empty())
    Out += "             why: " + Why + "\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

Session::Session(SessionOptions O) : Opts(O) {
  unsigned ElemsPerLine = Opts.LineBytes / 8; // 8-byte int64/double elems.
  LineShift = 0;
  while ((1u << (LineShift + 1)) <= ElemsPerLine)
    ++LineShift;
}

Session::~Session() = default;

bool Session::countersAvailable() const { return Perf && Perf->available(); }

LoopRecorder *Session::beginLoop(const std::string &Label, unsigned NumSymbols,
                                 unsigned MaxWorkers, double InspectUs) {
  if (Opts.HardwareCounters && !PerfTried) {
    PerfTried = true;
    Perf = std::make_unique<PerfCounters>();
  }
  LabelAgg &Agg = Aggregates[Label];
  auto *R = new LoopRecorder();
  R->Label = Label;
  R->Invocation = Agg.Invocations++;
  R->Light = R->Invocation >= Opts.MaxInvocationsPerLoop;
  R->NumSymbols = NumSymbols;
  R->Period = Opts.SamplePeriod == 0 ? 1 : Opts.SamplePeriod;
  R->MaxSamples = Opts.MaxSamplesPerArray;
  R->MaxChunkEvents = Opts.MaxChunkEventsPerWorker;
  R->LineShift = LineShift;
  R->InspectUs = InspectUs;
  if (!R->Light) {
    R->Wrk.resize(MaxWorkers == 0 ? 1 : MaxWorkers);
    // Distinct nonzero xorshift seeds per worker keep runs reproducible
    // while decorrelating the workers' sampling clocks.
    for (size_t W = 0; W < R->Wrk.size(); ++W)
      R->Wrk[W].Rng = 0x9E3779B9u ^ (static_cast<uint32_t>(W) * 0x85EBCA6Bu +
                                     0x27D4EB2Fu);
    if (Perf && Perf->available())
      R->PerfBegin = Perf->read();
  }
  R->Clock.reset();
  return R;
}

void Session::endLoop(LoopRecorder *R) {
  std::unique_ptr<LoopRecorder> Owner(R);
  double WallUs = R->nowUs();
  LabelAgg &Agg = Aggregates[R->Label];
  Agg.WallUs += WallUs;
  Agg.AnalysisUs += R->InspectUs + R->RollbackUs + R->ReplayUs;
  const DispatchInfo &D = R->Dispatch;
  Agg.ThreadsMax = std::max(Agg.ThreadsMax, D.Threads);
  Agg.KindsSeen |= 1u << unsigned(D.Kind);
  ++Agg.Tiers[unsigned(tierOf(D.Kind))];
  if (!D.Detail.empty())
    Agg.Detail = D.Detail;
  if (R->Light) {
    ++prof_loops_light;
    return;
  }
  ++prof_loops_recorded;
  ++Agg.Recorded;

  LoopProfile P;
  P.Label = R->Label;
  P.Invocation = R->Invocation;
  P.Dispatch = D;
  P.WallUs = WallUs;
  P.InspectUs = R->InspectUs;
  P.RollbackUs = R->RollbackUs;
  P.ReplayUs = R->ReplayUs;
  if (Perf && Perf->available() && R->PerfBegin.Valid)
    P.Perf = Perf->read() - R->PerfBegin;

  // Merge per-worker array records. The sampled line streams are only
  // *stashed* here — the O(n log n) reuse-distance analysis is deferred
  // to finalizeAnalysis() so it never lands inside a measured loop wall
  // time. Streams stay separate per worker (each worker models its own
  // cache); footprints union across workers (lines are lines no matter
  // who touched them).
  std::map<unsigned, ArrayProfile> Merged; // By symbol id, so ordered.
  uint64_t InvocationFootprint = 0;
  for (auto &W : R->Wrk) {
    for (auto &A : W.Arrays) {
      if (!A.Sym)
        continue;
      ArrayProfile &Out = Merged[A.Sym->id()];
      if (Out.Name.empty())
        Out.Name = A.Sym->name();
      // Sampled counters scale back up by the period into estimated
      // totals (exact at period 1).
      Out.Reads += A.Reads * R->Period;
      Out.Writes += A.Writes * R->Period;
      Out.Sampled += A.Lines.size();
      Out.SamplesDropped += A.Dropped;
      Out.PendingLines.push_back(std::move(A.Lines));
    }
  }
  // Footprint over sampled accesses (exact at period 1): pop-count the
  // union of the per-worker bitmaps.
  for (auto &[Id, Out] : Merged) {
    std::vector<uint64_t> Union;
    for (const auto &W : R->Wrk) {
      if (Id >= W.Arrays.size() || !W.Arrays[Id].Sym)
        continue;
      const auto &Bits = W.Arrays[Id].LineBits;
      if (Union.size() < Bits.size())
        Union.resize(Bits.size(), 0);
      for (size_t I = 0; I < Bits.size(); ++I)
        Union[I] |= Bits[I];
    }
    for (uint64_t Word : Union)
      Out.FootprintLines += static_cast<uint64_t>(__builtin_popcountll(Word));
    InvocationFootprint += Out.FootprintLines;
    prof_accesses_sampled += Out.Sampled;
    P.Arrays.push_back(std::move(Out));
  }
  if (InvocationFootprint > Agg.FootprintLines)
    Agg.FootprintLines = InvocationFootprint;

  // Per-worker distinct-line counts. The union footprint above is
  // schedule-invariant; these per-worker pop-counts are what a
  // locality-aware schedule actually shrinks (fewer workers sharing the
  // same lines), so their sum is the measurable win metric.
  std::vector<uint64_t> WLines(R->Wrk.size(), 0);
  for (size_t WId = 0; WId < R->Wrk.size(); ++WId) {
    for (const auto &A : R->Wrk[WId].Arrays) {
      if (!A.Sym)
        continue;
      for (uint64_t Word : A.LineBits)
        WLines[WId] += static_cast<uint64_t>(__builtin_popcountll(Word));
    }
    P.WorkerLinesSum += WLines[WId];
  }
  if (P.WorkerLinesSum > Agg.WorkerLines)
    Agg.WorkerLines = P.WorkerLinesSum;

  // Worker timelines. Serial-dispatch invocations never saw a chunk grant;
  // synthesize a single worker-0 lane (busy = wall) so every loop record
  // has a timeline.
  bool AnyChunks = false;
  for (const auto &W : R->Wrk)
    if (W.Chunks > 0)
      AnyChunks = true;
  if (!AnyChunks) {
    WorkerTimeline T;
    T.Worker = 0;
    T.Chunks = 1;
    T.BusyUs = WallUs;
    T.FootprintLines = WLines.empty() ? 0 : WLines[0];
    T.FirstIter = D.Lo;
    T.LastIter = D.NIter > 0 ? D.Up : D.Lo - 1;
    P.Workers.push_back(std::move(T));
  } else {
    for (unsigned WId = 0; WId < R->Wrk.size(); ++WId) {
      const auto &W = R->Wrk[WId];
      if (W.Chunks == 0)
        continue;
      WorkerTimeline T;
      T.Worker = WId;
      T.Chunks = W.Chunks;
      T.BusyUs = W.BusyUs;
      T.FootprintLines = WLines[WId];
      // Clamp into [0, wall]: a worker whose first poll raced the
      // dispenser's cancellation (fault drain) can report a first-chunk
      // start at — or, with clock skew, fractionally past — the loop's
      // recorded wall time, which would otherwise push the derived stall
      // interval negative.
      T.DispatchUs =
          W.FirstStartUs < 0 ? 0 : std::min(W.FirstStartUs, WallUs);
      T.StallUs = std::max(0.0, WallUs - T.DispatchUs - T.BusyUs);
      T.FirstIter = W.FirstIter == INT64_MAX ? 0 : W.FirstIter;
      T.LastIter = W.LastIter == INT64_MIN ? 0 : W.LastIter;
      T.Events = W.Events;
      T.EventsDropped = W.EventsDropped;
      P.Workers.push_back(std::move(T));
    }
  }

  // Per-invocation imbalance feeds the label aggregate: sum of max worker
  // busy vs. sum of mean worker busy across invocations.
  double MaxBusy = 0, SumBusy = 0;
  for (const WorkerTimeline &T : P.Workers) {
    MaxBusy = std::max(MaxBusy, T.BusyUs);
    SumBusy += T.BusyUs;
  }
  if (!P.Workers.empty()) {
    Agg.MaxBusySumUs += MaxBusy;
    Agg.AvgBusySumUs += SumBusy / static_cast<double>(P.Workers.size());
  }

  // Counter samples for the Chrome tracer: one track per loop label. The
  // locality counter needs the reuse histograms, so this invocation's
  // deferred analysis runs now — tracing already opted into overhead.
  if (trace::enabled()) {
    analyzeArrays(P, Agg);
    trace::counter("loop-wall-us " + P.Label, P.WallUs);
    ReuseHistogram All;
    for (const ArrayProfile &A : P.Arrays)
      All.merge(A.Hist);
    trace::counter("loop-locality " + P.Label, All.localityScore());
    trace::counter("loop-footprint-lines " + P.Label,
                   static_cast<double>(InvocationFootprint));
    if (P.Perf.Valid)
      trace::counter("loop-llc-misses " + P.Label,
                     static_cast<double>(P.Perf.LlcMisses));
  }

  Profiles.push_back(std::move(P));
}

void Session::analyzeArrays(LoopProfile &P, LabelAgg &Agg) {
  for (ArrayProfile &A : P.Arrays) {
    if (A.PendingLines.empty())
      continue; // Already analyzed.
    for (const std::vector<uint32_t> &Stream : A.PendingLines)
      reuseDistances(Stream, A.Hist);
    A.PendingLines.clear();
    A.PendingLines.shrink_to_fit();
    Agg.Hist.merge(A.Hist);
  }
}

void Session::finalizeAnalysis() {
  for (LoopProfile &P : Profiles)
    analyzeArrays(P, Aggregates[P.Label]);
}

void Session::notePhase(const std::string &Name, double Seconds) {
  Phases.emplace_back(Name, Seconds);
}

std::vector<LoopHealth> Session::health(const xform::PipelineResult *Plans) {
  finalizeAnalysis();
  std::vector<LoopHealth> Out;
  for (const auto &[Label, Agg] : Aggregates) {
    auto Saw = [&](DispatchKind K) {
      return (Agg.KindsSeen >> unsigned(K) & 1) != 0;
    };
    auto Tier = [&](DispatchTier T) { return Agg.Tiers[unsigned(T)]; };
    LoopHealth H;
    H.Label = Label;
    // A replayed invocation did dispatch in parallel before its fault, so
    // the label still reads as parallelized.
    const bool Parallelized =
        Tier(DispatchTier::Static) || Tier(DispatchTier::Replay);
    if (Parallelized)
      H.Verdict = "parallelized";
    else if (Tier(DispatchTier::Conditional))
      H.Verdict = "conditional";
    else
      H.Verdict = "serial";
    const bool CondPass = Saw(DispatchKind::CondParallel),
               CondFail = Saw(DispatchKind::CondSerial);
    if (CondPass && CondFail)
      H.Why = "inspection passed on some invocations, failed on others";
    else if (CondPass)
      H.Why = "runtime inspection passed";
    else if (CondFail)
      H.Why = "runtime inspection failed" +
              (Agg.Detail.empty() ? "" : ": " + Agg.Detail);
    else if (Saw(DispatchKind::SerialSmall))
      H.Why = "below the parallel profitability threshold";
    else if (!Agg.Detail.empty())
      H.Why = Agg.Detail;
    if (H.Why.empty() && !Parallelized && Plans) {
      if (const xform::LoopReport *R = Plans->reportFor(Label))
        if (!R->Parallel && !R->WhyNot.empty())
          H.Why = R->WhyNot;
    }
    H.Invocations = Agg.Invocations;
    H.Recorded = Agg.Recorded;
    H.ThreadsMax = Agg.ThreadsMax;
    H.LocalityScore = Agg.Hist.localityScore();
    // Clamped at zero: when a fault cancels the dispenser before some
    // workers' first poll, the surviving busy intervals can be degenerate
    // (zero-length) and floating-point noise would otherwise let the ratio
    // dip fractionally below 1 — a negative imbalance is meaningless.
    H.ImbalancePct =
        Agg.AvgBusySumUs > 0
            ? std::max(0.0,
                       (Agg.MaxBusySumUs / Agg.AvgBusySumUs - 1.0) * 100.0)
            : 0.0;
    H.AnalysisPct = Agg.WallUs > 0 ? Agg.AnalysisUs / Agg.WallUs * 100.0 : 0.0;
    H.WallUs = Agg.WallUs;
    H.FootprintLines = Agg.FootprintLines;
    H.WorkerLines = Agg.WorkerLines;
    H.SampledAccesses = Agg.Hist.Total + Agg.Hist.Cold;
    H.DispatchStatic = Tier(DispatchTier::Static);
    H.DispatchConditional = Tier(DispatchTier::Conditional);
    H.DispatchSerial = Tier(DispatchTier::Serial);
    H.DispatchReplay = Tier(DispatchTier::Replay);
    Out.push_back(std::move(H));
  }
  return Out;
}

std::string Session::healthText(const xform::PipelineResult *Plans) {
  std::string Out = "--- per-loop health report ---\n";
  std::vector<LoopHealth> Hs = health(Plans);
  if (Hs.empty())
    Out += "  (no labeled loops executed)\n";
  for (const LoopHealth &H : Hs)
    Out += H.str();
  double AnalysisUs = 0;
  for (const auto &[Name, Secs] : Phases)
    AnalysisUs += Secs * 1e6;
  if (!Phases.empty()) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "  analysis phases: %.0fus (", AnalysisUs);
    Out += Buf;
    for (size_t I = 0; I < Phases.size(); ++I) {
      std::snprintf(Buf, sizeof(Buf), "%s%s %.0fus", I ? ", " : "",
                    Phases[I].first.c_str(), Phases[I].second * 1e6);
      Out += Buf;
    }
    Out += ")\n";
  }
  return Out;
}

std::string Session::jsonl(const xform::PipelineResult *Plans) {
  finalizeAnalysis();
  std::string Out =
      "{\"type\": \"session\", \"sample_period\": " +
      std::to_string(Opts.SamplePeriod) +
      ", \"line_bytes\": " + std::to_string(Opts.LineBytes) +
      ", \"max_invocations_per_loop\": " +
      std::to_string(Opts.MaxInvocationsPerLoop) +
      ", \"perf_counters\": " + (countersAvailable() ? "true" : "false") +
      "}\n";
  for (const auto &[Name, Secs] : Phases)
    Out += "{\"type\": \"phase\", \"name\": " + json::str(Name) +
           ", \"seconds\": " + json::num(Secs) + "}\n";
  for (const LoopProfile &P : Profiles)
    Out += P.jsonLine() + "\n";
  for (const LoopHealth &H : health(Plans))
    Out += H.jsonLine() + "\n";
  return Out;
}

bool Session::writeJsonl(const std::string &Path,
                         const xform::PipelineResult *Plans) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << jsonl(Plans);
  return static_cast<bool>(Out);
}
