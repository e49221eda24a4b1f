//===- tests/test_profiler.cpp - Memory-access profiler tests -------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// Tests for the iaa::prof sampling profiler: reuse-distance histograms
/// match closed-form expectations on access patterns with known locality
/// (sequential, strided, random-permutation, repeated-single-line) at
/// sample period 1; program results are bit-identical with profiling on
/// or off across every schedule x thread-count combination; conditional
/// dispatch outcomes are attributed per invocation; the invocation cap
/// demotes later invocations to light (counted, unsampled) records; the
/// JSONL export round-trips through the strict parser; and absent
/// hardware counters degrade to "perf": null rather than failing.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "benchprogs/Benchmarks.h"
#include "interp/Interpreter.h"
#include "prof/Profiler.h"
#include "support/Json.h"
#include "verify/FaultInjector.h"
#include "xform/Parallelizer.h"

#include <regex>
#include <set>
#include <string>

using namespace iaa;
using namespace iaa::interp;
using iaa::test::parseOrDie;

namespace {

//===----------------------------------------------------------------------===//
// Harness
//===----------------------------------------------------------------------===//

/// Compiles \p Source through the full pipeline and runs it serially with
/// an exact-recording profiler (period 1, generous caps), returning the
/// session for inspection.
struct Profiled {
  std::unique_ptr<mf::Program> P;
  xform::PipelineResult Plan;
  prof::Session S;

  explicit Profiled(const std::string &Source,
                    prof::SessionOptions O = exactOptions())
      : P(parseOrDie(Source)),
        Plan(xform::parallelize(*P, xform::PipelineMode::Full)), S(O) {}

  static prof::SessionOptions exactOptions() {
    prof::SessionOptions O;
    O.SamplePeriod = 1; // Record every access: closed forms are exact.
    O.MaxSamplesPerArray = 1 << 20;
    return O;
  }

  /// Serial run (single worker, deterministic access order).
  void runSerial() {
    Interpreter I(*P);
    ExecOptions Opts;
    Opts.Prof = &S;
    I.run(Opts);
    S.finalizeAnalysis();
  }

  /// Parallel run against the pipeline plan.
  ExecStats runParallel(unsigned Threads, bool RuntimeChecks = false) {
    Interpreter I(*P);
    ExecOptions Opts;
    Opts.Plans = &Plan;
    Opts.Threads = Threads;
    Opts.MinParallelWork = 0;
    Opts.RuntimeChecks = RuntimeChecks;
    Opts.Prof = &S;
    ExecStats Stats;
    I.run(Opts, &Stats);
    S.finalizeAnalysis();
    return Stats;
  }

  /// The array profile named \p Array inside loop \p Loop's first
  /// recorded invocation; fails the test when absent.
  const prof::ArrayProfile *arrayProfile(const std::string &Loop,
                                         const std::string &Array) {
    for (const prof::LoopProfile &LP : S.invocations()) {
      if (LP.Label != Loop)
        continue;
      for (const prof::ArrayProfile &A : LP.Arrays)
        if (A.Name == Array)
          return &A;
    }
    ADD_FAILURE() << "no profile for array " << Array << " in loop " << Loop;
    return nullptr;
  }
};

/// Sum of every reuse bucket except \p Keep (for "all mass in one bucket"
/// assertions).
uint64_t bucketsExcept(const prof::ReuseHistogram &H, unsigned Keep) {
  uint64_t Sum = 0;
  for (unsigned I = 0; I < prof::ReuseHistogram::NumBuckets; ++I)
    if (I != Keep)
      Sum += H.Buckets[I];
  return Sum;
}

//===----------------------------------------------------------------------===//
// Closed-form reuse-distance histograms (period 1, serial, 8 elems/line)
//===----------------------------------------------------------------------===//

TEST(ProfilerReuse, SequentialSweepIsAllDistanceZero) {
  // x(i) = x(i) + 1 over 512 elements: each 64-byte line (8 elements) is
  // touched 16 consecutive times (read + write per element). One cold
  // miss per line; every other access reuses the current line at
  // distance 0.
  Profiled H(R"(program t
    integer i, n
    real x(512)
    n = 512
    seq: do i = 1, n
      x(i) = x(i) + 1.0
    end do
  end)");
  H.runSerial();
  const prof::ArrayProfile *A = H.arrayProfile("seq", "x");
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->Reads, 512u);
  EXPECT_EQ(A->Writes, 512u);
  EXPECT_EQ(A->Sampled, 1024u);
  EXPECT_EQ(A->FootprintLines, 64u);
  EXPECT_EQ(A->Hist.Cold, 64u);
  EXPECT_EQ(A->Hist.Buckets[0], 960u); // 1024 accesses - 64 cold.
  EXPECT_EQ(bucketsExcept(A->Hist, 0), 0u);
  EXPECT_NEAR(A->Hist.localityScore(), 960.0 / 1024.0, 1e-12);
}

TEST(ProfilerReuse, LineStrideNeverReusesALine) {
  // x(i * 8) hits a fresh cache line every iteration: 64 cold misses and
  // an empty reuse histogram — the classic stride-8 worst case.
  Profiled H(R"(program t
    integer i
    real x(512)
    str: do i = 1, 64
      x(i * 8) = 1.0
    end do
  end)");
  H.runSerial();
  const prof::ArrayProfile *A = H.arrayProfile("str", "x");
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->Writes, 64u);
  EXPECT_EQ(A->Reads, 0u);
  EXPECT_EQ(A->FootprintLines, 64u);
  EXPECT_EQ(A->Hist.Cold, 64u);
  EXPECT_EQ(A->Hist.Total, 0u);
  EXPECT_DOUBLE_EQ(A->Hist.localityScore(), 0.0);
}

TEST(ProfilerReuse, RepeatedSingleLineIsOneColdMiss) {
  // Reading x(1) a hundred times touches one line: 1 cold, 99 at
  // distance 0, locality 99/100.
  Profiled H(R"(program t
    integer i
    real s
    real x(8)
    rep: do i = 1, 100
      s = s + x(1)
    end do
  end)");
  H.runSerial();
  const prof::ArrayProfile *A = H.arrayProfile("rep", "x");
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->Reads, 100u);
  EXPECT_EQ(A->FootprintLines, 1u);
  EXPECT_EQ(A->Hist.Cold, 1u);
  EXPECT_EQ(A->Hist.Buckets[0], 99u);
  EXPECT_EQ(bucketsExcept(A->Hist, 0), 0u);
  EXPECT_NEAR(A->Hist.localityScore(), 0.99, 1e-12);
}

TEST(ProfilerReuse, PermutationRevisitPutsAllMassAtDistance63) {
  // Two identical passes over a random permutation of 64 distinct lines
  // (ind(j) * 8 lands element ind(j)*8-1 on line ind(j)-1). The first
  // pass is 64 cold misses; on the second pass every line was last seen
  // exactly 63 distinct lines ago, so the entire reuse mass lands in
  // bucket log2(63) = 6 — the signature of a working Olken stack
  // distance, which a simple "lines since last access" counter would get
  // wrong for any pattern with repeats.
  Profiled H(R"(program t
    integer i, j, n
    real s
    integer ind(64)
    real x(512)
    n = 64
    init: do i = 1, n
      ind(i) = mod(i * 13, n) + 1
    end do
    prm: do i = 1, 128
      j = mod(i - 1, n) + 1
      s = s + x(ind(j) * 8)
    end do
  end)");
  H.runSerial();
  const prof::ArrayProfile *A = H.arrayProfile("prm", "x");
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->Reads, 128u);
  EXPECT_EQ(A->FootprintLines, 64u);
  EXPECT_EQ(A->Hist.Cold, 64u);
  EXPECT_EQ(A->Hist.Buckets[6], 64u); // bucketFor(63) == 6.
  EXPECT_EQ(bucketsExcept(A->Hist, 6), 0u);
  // Distance 63 is far beyond the 32-line locality horizon.
  EXPECT_DOUBLE_EQ(A->Hist.localityScore(), 0.0);
}

//===----------------------------------------------------------------------===//
// Observation only: results are bit-identical with profiling on or off
//===----------------------------------------------------------------------===//

TEST(ProfilerInvariance, ChecksumsBitIdenticalAcrossSchedulesAndThreads) {
  const Schedule AllSchedules[] = {Schedule::Static, Schedule::Dynamic,
                                   Schedule::Guided};
  const unsigned ThreadCounts[] = {1, 2, 4, 7};

  auto P = parseOrDie(benchprogs::fig1aSource());
  xform::PipelineResult Plan =
      xform::parallelize(*P, xform::PipelineMode::Full);
  Interpreter I(*P);
  std::set<unsigned> Dead = deadPrivateIds(Plan);
  double Want = I.run(ExecOptions{}).checksumExcluding(Dead);

  for (Schedule S : AllSchedules)
    for (unsigned T : ThreadCounts) {
      ExecOptions Opts;
      Opts.Plans = &Plan;
      Opts.Threads = T;
      Opts.Sched = S;
      Opts.MinParallelWork = 0;
      prof::Session Prof; // Default sampling, as mfpar --profile uses.
      Opts.Prof = &Prof;
      Memory M = I.run(Opts);
      EXPECT_EQ(M.checksumExcluding(Dead), Want)
          << "schedule " << scheduleName(S) << ", T=" << T;
      EXPECT_FALSE(Prof.invocations().empty());
    }
}

//===----------------------------------------------------------------------===//
// Dispatch attribution
//===----------------------------------------------------------------------===//

TEST(ProfilerDispatch, ConditionalPassAndFailAreAttributed) {
  // A permutation index passes its injectivity inspection: the scat loop
  // must be recorded as conditional-parallel with the inspection cost
  // attributed. A duplicate-heavy index fails it: conditional-serial.
  const char *Permutation = R"(program t
    integer i, n
    integer ind(1000)
    real x(1000), y(1000)
    n = 1000
    init: do i = 1, n
      ind(i) = mod(i * 7, n) + 1
      y(i) = i * 0.5
    end do
    scat: do i = 1, n
      x(ind(i)) = x(ind(i)) + y(i) * 0.5
    end do
  end)";
  {
    Profiled H(Permutation);
    H.runParallel(4, /*RuntimeChecks=*/true);
    bool Saw = false;
    for (const prof::LoopProfile &LP : H.S.invocations())
      if (LP.Label == "scat") {
        Saw = true;
        EXPECT_EQ(LP.Dispatch.Kind, prof::DispatchKind::CondParallel);
        EXPECT_EQ(LP.Dispatch.Threads, 4u);
        EXPECT_GT(LP.InspectUs, 0.0);
      }
    EXPECT_TRUE(Saw);
  }
  {
    const char *Duplicates = R"(program t
      integer i, n
      integer ind(1000)
      real x(1000), y(1000)
      n = 1000
      init: do i = 1, n
        ind(i) = mod(i * 7, 500) + 1
        y(i) = i * 0.5
      end do
      scat: do i = 1, n
        x(ind(i)) = x(ind(i)) + y(i) * 0.5
      end do
    end)";
    Profiled H(Duplicates);
    H.runParallel(4, /*RuntimeChecks=*/true);
    bool Saw = false;
    for (const prof::LoopProfile &LP : H.S.invocations())
      if (LP.Label == "scat") {
        Saw = true;
        EXPECT_EQ(LP.Dispatch.Kind, prof::DispatchKind::CondSerial);
        EXPECT_GT(LP.InspectUs, 0.0);
      }
    EXPECT_TRUE(Saw);
  }
}

TEST(ProfilerDispatch, ParallelLoopRecordsWorkerTimelines) {
  Profiled H(benchprogs::fig1aSource());
  H.runParallel(4);
  bool SawParallel = false;
  for (const prof::LoopProfile &LP : H.S.invocations()) {
    // Every recorded invocation carries a timeline, even serial ones
    // (synthesized single-worker lane with busy == wall).
    ASSERT_FALSE(LP.Workers.empty()) << LP.Label;
    if (LP.Dispatch.Kind != prof::DispatchKind::Parallel)
      continue;
    SawParallel = true;
    unsigned Chunks = 0;
    for (const prof::WorkerTimeline &W : LP.Workers) {
      Chunks += W.Chunks;
      EXPECT_GE(W.BusyUs, 0.0);
    }
    EXPECT_GE(Chunks, LP.Workers.size())
        << LP.Label << ": every engaged worker ran at least one chunk";
  }
  EXPECT_TRUE(SawParallel);
}

TEST(ProfilerDispatch, InvocationCapDemotesToLightRecords) {
  // The inner loop runs 40 times but only the first 32 invocations are
  // fully recorded; the rest are counted in the health aggregate without
  // per-access sampling.
  Profiled H(R"(program t
    integer i, k, n
    real x(64)
    n = 64
    out: do k = 1, 40
      inn: do i = 1, n
        x(i) = x(i) + 1.0
      end do
    end do
  end)");
  H.runSerial();
  unsigned InnRecorded = 0;
  for (const prof::LoopProfile &LP : H.S.invocations())
    if (LP.Label == "inn")
      ++InnRecorded;
  EXPECT_EQ(InnRecorded, 32u);
  bool Saw = false;
  for (const prof::LoopHealth &LH : H.S.health(&H.Plan))
    if (LH.Label == "inn") {
      Saw = true;
      EXPECT_EQ(LH.Invocations, 40u);
      EXPECT_EQ(LH.Recorded, 32u);
    }
  EXPECT_TRUE(Saw);
}

TEST(ProfilerDispatch, CancelledDrainClampsTimelineAndImbalance) {
  // Regression: when a worker's first dynamic poll found the dispenser
  // already cancelled (a sibling faulted immediately), its timeline
  // recorded a zero-chunk lane whose dispatch span could exceed the loop
  // wall, driving StallUs and the aggregated imbalance percentage
  // negative. Single-iteration dynamic chunks with an every-iteration
  // parallel-only fault make the cancelled-drain path all but certain;
  // the pinned invariants must hold regardless of which worker loses the
  // race.
  Profiled H(R"(program t
    integer i, n
    real x(2000)
    n = 2000
    init: do i = 1, n
      x(i) = i * 0.5
    end do
    lp: do i = 1, n
      x(i) = x(i) * 2.0 + 1.0
    end do
  end)");
  verify::FaultInjector Inj;
  Inj.faultAt("lp", verify::InjectionPoint::EveryIteration,
              /*ParallelOnly=*/true);
  for (int Round = 0; Round < 4; ++Round) {
    Interpreter I(*H.P);
    ExecOptions Opts;
    Opts.Plans = &H.Plan;
    Opts.Threads = 7;
    Opts.Sched = Schedule::Dynamic;
    Opts.MinParallelWork = 0;
    Opts.Injector = &Inj;
    Opts.Prof = &H.S;
    I.run(Opts);
    ASSERT_FALSE(I.faultState().Faulted) << I.faultState().str();
  }
  H.S.finalizeAnalysis();
  for (const prof::LoopProfile &LP : H.S.invocations()) {
    if (LP.Label != "lp")
      continue;
    for (const prof::WorkerTimeline &W : LP.Workers) {
      EXPECT_GE(W.DispatchUs, 0.0) << LP.Invocation << "/" << W.Worker;
      EXPECT_LE(W.DispatchUs, LP.WallUs) << LP.Invocation << "/" << W.Worker
                                         << ": dispatch span past loop wall";
      EXPECT_GE(W.StallUs, 0.0) << LP.Invocation << "/" << W.Worker;
    }
  }
  for (const prof::LoopHealth &LH : H.S.health(&H.Plan))
    EXPECT_GE(LH.ImbalancePct, 0.0) << LH.Label;
}

//===----------------------------------------------------------------------===//
// Export
//===----------------------------------------------------------------------===//

TEST(ProfilerExport, JsonlRoundTripsThroughStrictParser) {
  Profiled H(benchprogs::fig1aSource());
  H.runParallel(4);
  std::string Out = H.S.jsonl(&H.Plan);

  size_t SessionRecords = 0, LoopRecords = 0, HealthRecords = 0;
  size_t Pos = 0;
  while (Pos < Out.size()) {
    size_t End = Out.find('\n', Pos);
    ASSERT_NE(End, std::string::npos) << "jsonl must end in a newline";
    std::string Line = Out.substr(Pos, End - Pos);
    Pos = End + 1;
    std::optional<json::Value> V = json::parse(Line);
    ASSERT_TRUE(V.has_value()) << "unparsable JSONL line: " << Line;
    ASSERT_TRUE(V->isObject()) << Line;
    const json::Value *Type = V->member("type");
    ASSERT_NE(Type, nullptr) << Line;
    if (Type->S == "session")
      ++SessionRecords;
    else if (Type->S == "loop") {
      ++LoopRecords;
      EXPECT_NE(V->member("arrays"), nullptr) << Line;
      EXPECT_NE(V->member("workers"), nullptr) << Line;
      EXPECT_NE(V->member("perf"), nullptr) << Line;
    } else if (Type->S == "health") {
      ++HealthRecords;
      EXPECT_NE(V->member("verdict"), nullptr) << Line;
      EXPECT_NE(V->member("locality"), nullptr) << Line;
    }
  }
  EXPECT_EQ(SessionRecords, 1u);
  EXPECT_FALSE(Out.empty());
  EXPECT_GT(LoopRecords, 0u);
  EXPECT_GT(HealthRecords, 0u);
  // Every executed labeled loop has a health record.
  EXPECT_EQ(HealthRecords, H.S.health(&H.Plan).size());
}

TEST(ProfilerExport, MissingHardwareCountersDegradeToNull) {
  Profiled H(R"(program t
    integer i, n
    real x(100)
    n = 100
    lp: do i = 1, n
      x(i) = i * 2.0
    end do
  end)");
  H.runSerial();
  // On hosts without perf_event access the session must still produce
  // complete records with "perf": null — never fail or omit the field.
  if (!H.S.countersAvailable()) {
    for (const prof::LoopProfile &LP : H.S.invocations()) {
      EXPECT_FALSE(LP.Perf.Valid);
      EXPECT_NE(LP.jsonLine().find("\"perf\": null"), std::string::npos);
    }
  } else {
    // Counters opened: the deltas must be populated and sane.
    for (const prof::LoopProfile &LP : H.S.invocations()) {
      if (LP.Perf.Valid) {
        EXPECT_GT(LP.Perf.Cycles, 0u);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Sampling determinism (per-worker xorshift reseeding)
//===----------------------------------------------------------------------===//

/// Strips wall-clock noise from a profiler JSONL dump: every timing value
/// (any key ending in _us, plus the timing-derived health percentages),
/// the global chunk-dispatch sequence number (which races across workers
/// even under a static schedule), and the perf object are zeroed, so two
/// runs of the same program compare byte-identical iff the *sampling
/// decisions* were identical.
std::string normalizedJsonl(prof::Session &S,
                            const xform::PipelineResult *Plans) {
  std::string Out = S.jsonl(Plans);
  Out = std::regex_replace(
      Out,
      std::regex("\"([a-z_]*_us|seconds|imbalance_pct|analysis_pct|chunk)\": "
                 "[-+0-9.eE]+"),
      "\"$1\": 0");
  Out = std::regex_replace(
      Out, std::regex("\"perf\": (null|\\{[^}]*\\})"), "\"perf\": null");
  return Out;
}

const char *DeterminismKernel = R"(program t
    integer i, n
    integer ind(2048)
    real x(2048), y(2048)
    n = 2048
    init: do i = 1, n
      ind(i) = mod(i * 11, n) + 1
      x(i) = i * 0.5
      y(i) = mod(i, 5) * 0.25
    end do
    scat: do i = 1, n
      x(ind(i)) = x(ind(i)) + y(i)
    end do
  end)";

TEST(ProfilerDeterminism, TwoRunsProduceByteIdenticalNormalizedJsonl) {
  // The per-worker RNG is reseeded from the worker id at every loop entry,
  // so two fresh sessions over the same program must make exactly the same
  // sampling decisions — in exact mode (period 1) and jittered mode
  // (period 16) alike. Static schedule keeps chunk->worker assignment
  // deterministic; timings are normalized away.
  for (uint64_t Period : {uint64_t(1), uint64_t(16)}) {
    prof::SessionOptions O;
    O.SamplePeriod = Period;
    O.MaxSamplesPerArray = 1 << 20;
    O.HardwareCounters = false;
    std::string Dump[2];
    for (int Run = 0; Run < 2; ++Run) {
      Profiled H(DeterminismKernel, O);
      H.runParallel(4, /*RuntimeChecks=*/true);
      Dump[Run] = normalizedJsonl(H.S, &H.Plan);
    }
    EXPECT_FALSE(Dump[0].empty());
    EXPECT_EQ(Dump[0], Dump[1])
        << "period " << Period
        << ": sampling decisions must be reproducible run-to-run";
  }
}

TEST(ProfilerDeterminism, RepeatedInvocationsSampleIdentically) {
  // Regression for RNG state leaking across invocations: the inner loop
  // runs three times over identical data, so every invocation must admit
  // exactly the same samples (the per-worker RNG and skip distance are
  // reset at loop entry, not carried over).
  prof::SessionOptions O;
  O.SamplePeriod = 4;
  O.MaxSamplesPerArray = 1 << 20;
  O.HardwareCounters = false;
  Profiled H(R"(program t
    integer i, j, n
    real x(1024)
    n = 1024
    outer: do j = 1, 3
      rep: do i = 1, n
        x(i) = i * 1.5 + j
      end do
    end do
  end)",
             O);
  H.runSerial();
  std::vector<uint64_t> Sampled;
  for (const prof::LoopProfile &LP : H.S.invocations()) {
    if (LP.Label != "rep")
      continue;
    ASSERT_EQ(LP.Arrays.size(), 1u);
    Sampled.push_back(LP.Arrays[0].Sampled);
    EXPECT_GT(LP.Arrays[0].Sampled, 0u);
  }
  ASSERT_EQ(Sampled.size(), 3u);
  EXPECT_EQ(Sampled[0], Sampled[1]);
  EXPECT_EQ(Sampled[1], Sampled[2]);
}

TEST(ProfilerDeterminism, TinyChunksDoNotOversample) {
  // Regression for the per-chunk skip reset: with dynamic chunk size 1
  // every chunk is a single iteration, and a skip distance reset at each
  // chunk boundary would degenerate to sampling (nearly) every access.
  // The skip must persist across chunks so an expected 1-in-8 period
  // stays an honest 1-in-8.
  prof::SessionOptions O;
  O.SamplePeriod = 8;
  O.MaxSamplesPerArray = 1 << 20;
  O.HardwareCounters = false;
  Profiled H(R"(program t
    integer i, n
    real x(4096)
    n = 4096
    lp: do i = 1, n
      x(i) = i * 2.0
    end do
  end)",
             O);
  Interpreter I(*H.P);
  ExecOptions Opts;
  Opts.Plans = &H.Plan;
  Opts.Threads = 4;
  Opts.MinParallelWork = 0;
  Opts.Sched = Schedule::Dynamic;
  Opts.Prof = &H.S;
  I.run(Opts);
  H.S.finalizeAnalysis();
  const prof::ArrayProfile *A = H.arrayProfile("lp", "x");
  ASSERT_NE(A, nullptr);
  EXPECT_GT(A->Sampled, 0u);
  // 4096 accesses at period 8 expect ~512 samples; allow generous jitter
  // but fail the old behavior (one sample per 1-iteration chunk ~= 4096).
  EXPECT_LE(A->Sampled, 4096u / 2)
      << "1-iteration chunks must not defeat the sampling period";
}

TEST(ProfilerDeterminism, SimulatedDynamicAndGuidedRunsRepeat) {
  // Simulated processors pick the next worker by iterations run, not by
  // measured clock, so under dynamic and guided scheduling the
  // chunk-to-worker assignment, and with it every worker's sample stream,
  // does not follow the host's timing noise: two runs of the same program
  // must grant the same chunks to the same workers and admit the same
  // samples.
  prof::SessionOptions O;
  O.HardwareCounters = false;
  const std::string Source = benchprogs::dyfesm(0.25).Source;
  for (Schedule Sched : {Schedule::Dynamic, Schedule::Guided}) {
    std::vector<unsigned> Chunks[2];
    uint64_t Sampled[2] = {0, 0};
    for (int Run = 0; Run < 2; ++Run) {
      Profiled H(Source, O);
      Interpreter I(*H.P);
      ExecOptions Opts;
      Opts.Plans = &H.Plan;
      Opts.Threads = 4;
      Opts.Sched = Sched;
      Opts.Simulate = true;
      Opts.Prof = &H.S;
      I.run(Opts);
      H.S.finalizeAnalysis();
      for (const prof::LoopProfile &LP : H.S.invocations()) {
        for (const prof::WorkerTimeline &W : LP.Workers)
          Chunks[Run].push_back(W.Chunks);
        for (const prof::ArrayProfile &A : LP.Arrays)
          Sampled[Run] += A.Sampled;
      }
    }
    EXPECT_FALSE(Chunks[0].empty()) << scheduleName(Sched);
    EXPECT_GT(Sampled[0], 0u) << scheduleName(Sched);
    EXPECT_EQ(Chunks[0], Chunks[1])
        << scheduleName(Sched) << ": per-worker chunk counts must repeat";
    EXPECT_EQ(Sampled[0], Sampled[1])
        << scheduleName(Sched) << ": sampled accesses must repeat";
  }
}

} // namespace

