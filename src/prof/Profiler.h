//===- prof/Profiler.h - Sampling memory-access profiler --------*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement substrate for locality-aware scheduling (ROADMAP item 4):
/// a sampling memory-access profiler the interpreter feeds from its
/// gather/scatter element accesses. Per labeled-loop invocation it records
///
///  - per-array cache-line telemetry: a footprint count (a bitmap over the
///    array's lines fed by the sampled accesses; exact at sample period 1)
///    and a log2-bucketed reuse-distance histogram computed from the
///    sampled line stream (Olken stack distances over the samples, so
///    overhead stays bounded);
///  - a per-worker chunk timeline (dispatch delay, busy/stall seconds,
///    iteration ranges) derived from the ChunkDispenser's chunk grants;
///  - optional hardware counters (cycles, instructions, LLC misses) via
///    perf_event_open, with silent graceful fallback where the syscall is
///    unavailable (fields become JSON null);
///  - the analysis tax: seconds spent in inspector scans, fault rollback,
///    and serial replay attributed to the loop that paid them.
///
/// A Session aggregates invocations per loop label into a *health report*
/// (parallelized / conditional / serial, why, access-locality score,
/// imbalance %, analysis-cost share) and emits everything as JSONL
/// (`mfpar --profile`). When tracing is on, per-loop counter samples also
/// flow into the Chrome trace as "ph":"C" events.
///
/// The reuse-distance model here is deliberately the interface a future
/// locality-aware scheduler consumes: a loop whose sampled accesses mostly
/// reuse lines at small distances benefits from index-adjacent chunking; a
/// flat histogram says the gather is cache-hostile no matter the schedule.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_PROF_PROFILER_H
#define IAA_PROF_PROFILER_H

#include "mf/Symbol.h"
#include "prof/PerfCounters.h"
#include "support/Timer.h"

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace iaa {

namespace xform {
struct PipelineResult;
} // namespace xform

namespace prof {

//===----------------------------------------------------------------------===//
// Reuse-distance histogram
//===----------------------------------------------------------------------===//

/// Log2-bucketed histogram of cache-line reuse distances. The distance of
/// an access is the number of *distinct other lines* touched since the
/// previous access to the same line: 0 means immediate re-touch (the line
/// is still hot), large distances mean the line was almost certainly
/// evicted in between. Bucket 0 holds distance 0; bucket k >= 1 holds
/// distances in [2^(k-1), 2^k). First-ever touches (infinite distance) are
/// counted separately as Cold.
struct ReuseHistogram {
  static constexpr unsigned NumBuckets = 20;
  std::array<uint64_t, NumBuckets> Buckets{};
  uint64_t Cold = 0;  ///< First-touch accesses (no prior access to the line).
  uint64_t Total = 0; ///< Reuses counted (sum over Buckets).

  /// The bucket index for \p Distance (clamped into the last bucket).
  static unsigned bucketFor(uint64_t Distance) {
    if (Distance == 0)
      return 0;
    unsigned B = 64 - static_cast<unsigned>(__builtin_clzll(Distance));
    return B < NumBuckets ? B : NumBuckets - 1;
  }

  void add(uint64_t Distance) {
    ++Buckets[bucketFor(Distance)];
    ++Total;
  }

  void merge(const ReuseHistogram &O) {
    for (unsigned I = 0; I < NumBuckets; ++I)
      Buckets[I] += O.Buckets[I];
    Cold += O.Cold;
    Total += O.Total;
  }

  /// Access-locality score in [0, 1]: the fraction of sampled accesses
  /// whose reuse distance is below 32 lines (buckets 0..5 — small enough to
  /// survive in L1/L2). Cold first touches count against the score; a
  /// stream with no samples scores a neutral 1.
  double localityScore() const {
    uint64_t All = Total + Cold;
    if (All == 0)
      return 1.0;
    uint64_t Near = 0;
    for (unsigned I = 0; I <= 5 && I < NumBuckets; ++I)
      Near += Buckets[I];
    return static_cast<double>(Near) / static_cast<double>(All);
  }
};

/// Computes exact reuse distances over one access stream of cache-line ids
/// and accumulates them into \p H (Olken's algorithm: a last-access map
/// plus a Fenwick tree over stream positions, O(n log n)).
void reuseDistances(const std::vector<uint32_t> &Lines, ReuseHistogram &H);

//===----------------------------------------------------------------------===//
// Finalized per-invocation profiles
//===----------------------------------------------------------------------===//

/// How the interpreter dispatched one loop invocation.
enum class DispatchKind {
  Serial,       ///< No plan: the loop is statically serial.
  SerialSmall,  ///< A plan exists but the profitability guard kept it serial.
  Parallel,     ///< Statically-certified parallel dispatch.
  CondParallel, ///< Runtime-conditional plan; inspection passed.
  CondSerial,   ///< Runtime-conditional plan; inspection failed.
  Replay,       ///< Dispatched parallel, trapped a worker fault, rolled
                ///< back, and re-executed serially. One invocation, one
                ///< tier: the original parallel tier is not also counted.
  RaceCheck,    ///< Plan-marked loop run serially under the shadow-memory
                ///< race checker (ExecOptions::RaceCheck).
};

const char *dispatchKindName(DispatchKind K);

/// The dispatch tiers that partition loop invocations, one tier each:
/// static (parallel on a static proof, no inspection), conditional (the
/// inspector decided, whichever way), serial (no plan, or the
/// profitability guard kept a planned loop serial), replay (faulted in
/// parallel, rolled back, serially replayed). Both the --stats "dispatch"
/// group and the health report count tierOf(kind).
enum class DispatchTier { Static, Conditional, Serial, Replay };
constexpr unsigned NumDispatchTiers = 4;

/// The tier an invocation dispatched as \p K counts in. A race-checked
/// loop counts as static: its plan is a static proof, checked instead of
/// forked.
constexpr DispatchTier tierOf(DispatchKind K) {
  switch (K) {
  case DispatchKind::Parallel:
  case DispatchKind::RaceCheck:
    return DispatchTier::Static;
  case DispatchKind::CondParallel:
  case DispatchKind::CondSerial:
    return DispatchTier::Conditional;
  case DispatchKind::Serial:
  case DispatchKind::SerialSmall:
    return DispatchTier::Serial;
  case DispatchKind::Replay:
    return DispatchTier::Replay;
  }
  return DispatchTier::Serial;
}

/// What a profile keeps of the interpreter's dispatch decision for one
/// invocation; filled once, from that decision, when the invocation ends.
struct DispatchInfo {
  DispatchKind Kind = DispatchKind::Serial;
  std::string Detail; ///< Failing check, fault note, ... (may be empty).
  /// Execution engine of the loop body ("interp" tree walk or "vm"
  /// register bytecode). VM loops have no AST frames, so this is how
  /// profiles stay attributable to an engine.
  std::string Engine = "interp";
  int64_t Lo = 0, Up = 0, NIter = 0;
  unsigned Threads = 1;
  std::string Schedule; ///< Empty unless the invocation forked.
  std::string Locality; ///< Locality mode of a forked invocation.
};

/// Cache-line telemetry for one array within one loop invocation.
struct ArrayProfile {
  std::string Name;
  /// Estimated element reads/writes: sampled count scaled by the sample
  /// period (exact when the period is 1).
  uint64_t Reads = 0;
  uint64_t Writes = 0;
  uint64_t Sampled = 0;        ///< Accesses admitted to the line stream.
  uint64_t SamplesDropped = 0; ///< Samples past the per-array cap.
  /// Distinct cache lines among the sampled accesses (exact when the
  /// sample period is 1).
  uint64_t FootprintLines = 0;
  ReuseHistogram Hist;
  /// Per-worker sampled line streams awaiting the deferred reuse-distance
  /// analysis (each worker models its own cache, so streams stay
  /// separate). Consumed — and Hist filled — by
  /// Session::finalizeAnalysis(); empty afterwards.
  std::vector<std::vector<uint32_t>> PendingLines;
};

/// One chunk grant as seen by the profiler (times relative to loop entry).
struct ChunkEvent {
  unsigned Chunk = 0;
  int64_t First = 0, Last = 0;
  double StartUs = 0, DurUs = 0;
};

/// Per-worker dispatch/execute/stall accounting for one loop invocation.
struct WorkerTimeline {
  unsigned Worker = 0;
  unsigned Chunks = 0;
  double DispatchUs = 0; ///< Loop entry to this worker's first chunk start.
  double BusyUs = 0;     ///< Sum of chunk execution times.
  double StallUs = 0;    ///< Loop wall minus dispatch minus busy (>= 0).
  /// Distinct cache lines this worker's sampled accesses touched, summed
  /// over arrays (exact at sample period 1). The union across workers is
  /// schedule-invariant, but this per-worker count is not: a schedule that
  /// keeps index-adjacent iterations on one worker shrinks it.
  uint64_t FootprintLines = 0;
  int64_t FirstIter = 0, LastIter = 0;
  std::vector<ChunkEvent> Events; ///< Capped; EventsDropped counts the rest.
  unsigned EventsDropped = 0;
};

/// Everything measured for one invocation of one labeled loop.
struct LoopProfile {
  std::string Label;
  unsigned Invocation = 0; ///< 0-based per-label invocation number.
  DispatchInfo Dispatch;
  /// Sum over workers of per-worker distinct sampled cache lines. Unlike
  /// the per-array footprint (a union, schedule-invariant), this sum drops
  /// when the schedule keeps line-sharing iterations on the same worker —
  /// the measured quantity the locality scheduler tries to minimize.
  uint64_t WorkerLinesSum = 0;
  double WallUs = 0;
  double InspectUs = 0;  ///< Inspector scans charged to this invocation.
  double RollbackUs = 0; ///< Fault-containment snapshot restore.
  double ReplayUs = 0;   ///< Serial replay after a rollback.
  PerfSample Perf;       ///< Valid only when hardware counters opened.
  std::vector<ArrayProfile> Arrays;
  std::vector<WorkerTimeline> Workers;

  /// One JSON object (single line, no trailing newline) for JSONL output.
  std::string jsonLine() const;
};

/// Aggregated per-label verdict for the health report.
struct LoopHealth {
  std::string Label;
  std::string Verdict; ///< "parallelized", "conditional", or "serial".
  std::string Why;     ///< Pipeline remark reason or dispatch detail.
  unsigned Invocations = 0; ///< All invocations, including past the cap.
  unsigned Recorded = 0;    ///< Fully recorded invocations.
  unsigned ThreadsMax = 1;
  double LocalityScore = 1.0;
  double ImbalancePct = 0;    ///< (sum max busy / sum avg busy - 1) * 100.
  double AnalysisPct = 0;     ///< Analysis tax share of loop wall time.
  double WallUs = 0;          ///< Total wall microseconds across invocations.
  uint64_t FootprintLines = 0; ///< Max per-invocation total footprint.
  uint64_t WorkerLines = 0;    ///< Max per-invocation worker-lines sum.
  uint64_t SampledAccesses = 0;
  /// Invocation counts by dispatch tier (see DispatchTier). One tier per
  /// invocation: the four counts sum to Invocations.
  unsigned DispatchStatic = 0;
  unsigned DispatchConditional = 0;
  unsigned DispatchSerial = 0;
  unsigned DispatchReplay = 0;

  std::string str() const;
  std::string jsonLine() const;
};

//===----------------------------------------------------------------------===//
// Recording
//===----------------------------------------------------------------------===//

struct SessionOptions {
  /// Admit one of every SamplePeriod element accesses (per worker, on
  /// average — skips are jittered to defeat stride aliasing) to the
  /// reuse-distance line stream. 1 records every access deterministically
  /// (tests); the default keeps profiling overhead in single-digit
  /// percent.
  uint32_t SamplePeriod = 16;
  /// Cap on sampled line-stream entries per (worker, array, invocation).
  /// Streams are retained until the deferred reuse-distance analysis at
  /// report time, so the cap bounds both the profiler's memory and the
  /// report-time O(n log n) analysis cost.
  size_t MaxSamplesPerArray = 1 << 13;
  /// Fully recorded invocations per loop label; later invocations are
  /// counted (wall time, dispatch kind) but not sampled.
  size_t MaxInvocationsPerLoop = 32;
  /// Cap on stored chunk events per worker per invocation.
  size_t MaxChunkEventsPerWorker = 64;
  /// Cache-line size in bytes; elements are 8 bytes (int64/double).
  unsigned LineBytes = 64;
  /// Attempt to open hardware counters (silently absent when unavailable).
  bool HardwareCounters = true;
};

/// The per-invocation recording object the interpreter writes into. Access
/// notes go to per-worker slots, so parallel workers record without
/// synchronization; the fork/join barrier publishes them to endLoop.
class LoopRecorder {
public:
  /// True for a past-the-cap invocation: only wall time and dispatch kind
  /// are kept, and the access/chunk hooks are no-ops.
  bool light() const { return Light; }

  /// Microseconds since loop entry (timeline timebase). The entry lies
  /// InspectUs before beginLoop: the decision's inspection came first.
  double nowUs() const { return InspectUs + Clock.seconds() * 1e6; }

  /// Records one *sampled* element access to \p S at linear element
  /// \p Elem of a buffer with \p BufElems elements, and returns how many
  /// accesses the caller should skip before the next sample. The
  /// interpreter keeps the skip countdown in its per-worker frame, so
  /// the per-access cost of profiling is one pointer test plus one
  /// decrement; only sampled accesses (1-in-Period on average) reach this
  /// function and pay for counters, the footprint bitmap OR, and the
  /// line-stream push. Skips are jittered uniformly in [1, 2*Period-1]
  /// (mean Period), so strided access patterns cannot alias with the
  /// sampling clock. Contract: callers route accesses here through a
  /// pointer that is null for light invocations — no Light check needed.
  uint32_t noteSampledAccess(const mf::Symbol *S, size_t Elem,
                             size_t BufElems, bool IsWrite,
                             unsigned Worker) {
    WorkerRec &WR = Wrk[Worker < Wrk.size() ? Worker : 0];
    if (WR.Arrays.empty())
      WR.Arrays.resize(NumSymbols);
    ArrayRec &A = WR.Arrays[S->id()];
    if (!A.Sym) {
      A.Sym = S;
      A.LineBits.assign(((BufElems >> LineShift) >> 6) + 1, 0);
    }
    if (IsWrite)
      ++A.Writes;
    else
      ++A.Reads;
    size_t Line = Elem >> LineShift;
    A.LineBits[Line >> 6] |= uint64_t(1) << (Line & 63);
    if (A.Lines.size() < MaxSamples)
      A.Lines.push_back(static_cast<uint32_t>(Line));
    else
      ++A.Dropped;
    return nextSkip(WR);
  }

  /// Records one chunk grant executed by \p Worker.
  void noteChunk(unsigned Worker, unsigned ChunkId, int64_t First,
                 int64_t Last, double StartUs, double DurUs) {
    if (Light)
      return;
    WorkerRec &WR = Wrk[Worker < Wrk.size() ? Worker : 0];
    ++WR.Chunks;
    WR.BusyUs += DurUs;
    if (WR.FirstStartUs < 0)
      WR.FirstStartUs = StartUs;
    if (StartUs + DurUs > WR.LastEndUs)
      WR.LastEndUs = StartUs + DurUs;
    if (First < WR.FirstIter)
      WR.FirstIter = First;
    if (Last > WR.LastIter)
      WR.LastIter = Last;
    if (WR.Events.size() < MaxChunkEvents)
      WR.Events.push_back({ChunkId, First, Last, StartUs, DurUs});
    else
      ++WR.EventsDropped;
  }

  /// The invocation's dispatch decision; the interpreter fills it once,
  /// just before endLoop.
  DispatchInfo Dispatch;
  double InspectUs = 0;
  double RollbackUs = 0;
  double ReplayUs = 0;

private:
  friend class Session;

  struct ArrayRec {
    const mf::Symbol *Sym = nullptr;
    uint64_t Reads = 0, Writes = 0, Dropped = 0; ///< Sampled counts.
    std::vector<uint64_t> LineBits; ///< Footprint bitmap over samples.
    std::vector<uint32_t> Lines;    ///< Sampled line stream.
  };

  struct WorkerRec {
    uint32_t Rng = 0; ///< xorshift32 state for jittered sampling skips.
    std::vector<ArrayRec> Arrays; ///< Indexed by symbol id; lazily sized.
    unsigned Chunks = 0;
    double BusyUs = 0;
    double FirstStartUs = -1;
    double LastEndUs = 0;
    int64_t FirstIter = INT64_MAX, LastIter = INT64_MIN;
    std::vector<ChunkEvent> Events;
    unsigned EventsDropped = 0;
  };

  /// Accesses to skip until the next sample: always 1 at period 1 (exact
  /// recording for tests), otherwise uniform in [1, 2*Period-1] so the
  /// sample stream is an unbiased 1-in-Period subsample on average.
  uint32_t nextSkip(WorkerRec &WR) {
    if (Period <= 1)
      return 1;
    uint32_t X = WR.Rng;
    X ^= X << 13;
    X ^= X >> 17;
    X ^= X << 5;
    WR.Rng = X;
    return 1 + X % (2 * Period - 1);
  }

  std::string Label;
  unsigned Invocation = 0;
  bool Light = false;
  unsigned NumSymbols = 0;
  uint32_t Period = 8;
  size_t MaxSamples = 0;
  size_t MaxChunkEvents = 0;
  unsigned LineShift = 3;
  Timer Clock;
  PerfSample PerfBegin;
  std::vector<WorkerRec> Wrk;
};

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

/// One profiling session: owns the recorded invocations, the per-label
/// aggregates behind the health report, and the optional hardware-counter
/// group. beginLoop/endLoop are called from the interpreter's serial
/// context only (never from inside a parallel region); a session may span
/// several Interpreter::run calls and accumulates across them.
class Session {
public:
  explicit Session(SessionOptions O = {});
  ~Session();

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  const SessionOptions &options() const { return Opts; }

  /// True when the hardware-counter group opened successfully.
  bool countersAvailable() const;

  /// Starts recording one invocation of the loop labeled \p Label. Returns
  /// a light recorder past the per-label invocation cap. \p InspectUs is
  /// the inspection the dispatch decision ran before recording began: it
  /// is charged to the invocation, which starts that long before now.
  LoopRecorder *beginLoop(const std::string &Label, unsigned NumSymbols,
                          unsigned MaxWorkers, double InspectUs);

  /// Finalizes \p R (reuse histograms, timelines, counter deltas), stores
  /// the profile, folds it into the label aggregate, emits trace counter
  /// samples when tracing is on, and deletes the recorder.
  void endLoop(LoopRecorder *R);

  /// Attributes a program-level analysis cost (pipeline, audit, ...) to
  /// the session; shows up as a "phase" JSONL record.
  void notePhase(const std::string &Name, double Seconds);

  /// Runs the deferred reuse-distance analysis over every sampled line
  /// stream still pending. endLoop defers this O(n log n) work so it does
  /// not land inside the measured loop wall time; the report entry points
  /// below call it automatically, and it is idempotent. Until it runs,
  /// ArrayProfile::Hist and the per-label locality aggregates are empty.
  void finalizeAnalysis();

  /// Finalized invocations, in execution order. Reuse histograms are
  /// filled in once finalizeAnalysis() (or any report method) has run.
  const std::vector<LoopProfile> &invocations() const { return Profiles; }

  /// Per-label health verdicts, sorted by label. \p Plans (optional)
  /// supplies the pipeline's "why" for each loop.
  std::vector<LoopHealth> health(const xform::PipelineResult *Plans);

  /// Human-readable health report for terminals.
  std::string healthText(const xform::PipelineResult *Plans);

  /// The whole session as JSONL: a session header, phase records, one
  /// record per recorded invocation, then one health record per label.
  std::string jsonl(const xform::PipelineResult *Plans);

  /// Writes jsonl() to \p Path; false on I/O failure.
  bool writeJsonl(const std::string &Path, const xform::PipelineResult *Plans);

private:
  struct LabelAgg {
    unsigned Invocations = 0;
    unsigned Recorded = 0;
    unsigned ThreadsMax = 1;
    double WallUs = 0;
    double AnalysisUs = 0;
    double MaxBusySumUs = 0; ///< Sum over invocations of max worker busy.
    double AvgBusySumUs = 0; ///< Sum over invocations of mean worker busy.
    ReuseHistogram Hist;
    uint64_t FootprintLines = 0;
    uint64_t WorkerLines = 0;
    unsigned KindsSeen = 0; ///< Bit (1 << DispatchKind) per kind seen.
    unsigned Tiers[NumDispatchTiers] = {}; ///< Indexed by DispatchTier.
    std::string Detail;
  };

  /// Deferred per-array analysis for one profile: computes each pending
  /// stream's reuse histogram and folds it into the label aggregate.
  /// No-op when the profile was already analyzed.
  void analyzeArrays(LoopProfile &P, LabelAgg &Agg);

  SessionOptions Opts;
  unsigned LineShift = 3;
  std::unique_ptr<PerfCounters> Perf; ///< Lazily opened on first beginLoop.
  bool PerfTried = false;
  std::vector<LoopProfile> Profiles;
  std::map<std::string, LabelAgg> Aggregates;
  std::vector<std::pair<std::string, double>> Phases;
};

} // namespace prof
} // namespace iaa

#endif // IAA_PROF_PROFILER_H
