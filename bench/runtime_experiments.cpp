//===- bench/runtime_experiments.cpp - The runtime's feature tables -------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// The experiments that measure what each runtime feature buys:
///
///  schedule      static, dynamic and guided on the Fig. 16 kernels;
///  locality      --locality off/reorder on a skewed gather;
///  recurrence    recurrence-promoted plans against runtime inspection;
///  runtime_check the inspector/executor on statically serial kernels;
///  profile       the sampling profiler's loop health and its overhead;
///  vm            the register-bytecode VM against the tree walk.
///
/// locality and vm run on real threads; the others on simulated
/// processors, so their speedups are a model (see interp::ExecOptions::
/// Simulate).
///
//===----------------------------------------------------------------------===//

#include "Experiments.h"

#include "prof/Profiler.h"
#include "sched/Locality.h"
#include "support/Json.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>

using namespace iaa;
using namespace iaa::bench;

/// Options for a run on \p Threads simulated processors.
static interp::ExecOptions simulated(unsigned Threads,
                                     bool RuntimeChecks = false) {
  interp::ExecOptions Opts;
  Opts.Threads = Threads;
  Opts.Simulate = true;
  Opts.RuntimeChecks = RuntimeChecks;
  return Opts;
}

//===----------------------------------------------------------------------===//
// schedule
//===----------------------------------------------------------------------===//

/// Per-kernel speedup over the serial run plus a load-imbalance figure from
/// the chunk timings (max * chunks / sum; 1.0 is perfectly balanced). The
/// Fig. 16 kernels are mostly regular, so static scheduling should hold
/// its own; dynamic and guided should close the gap on the ragged loops
/// without losing anything elsewhere.
void bench::schedule() {
  std::printf("\n=== Scheduling policies on the Fig. 16 kernels "
              "(simulated multiprocessor, IAA pipeline) ===\n\n");
  const std::vector<unsigned> Threads = {2, 4, 8, 16};
  const interp::Schedule Schedules[] = {interp::Schedule::Static,
                                        interp::Schedule::Dynamic,
                                        interp::Schedule::Guided};
  JsonReport Report("schedule");

  for (const auto &B : benchprogs::allBenchmarks(benchScale())) {
    Compiled C = compile(B, xform::PipelineMode::Full);
    double Serial = run(C, {}).seconds();

    std::printf("%s (serial %.3fs)\n", B.Name.c_str(), Serial);
    std::printf("  %-8s", "schedule");
    for (unsigned T : Threads)
      std::printf("    %3up (imbal)", T);
    std::printf("\n");
    for (interp::Schedule S : Schedules) {
      std::printf("  %-8s", interp::scheduleName(S));
      for (unsigned T : Threads) {
        interp::ExecOptions Opts = simulated(T);
        Opts.Sched = S;
        // Best of two runs to tame timer noise.
        Outcome A = run(C, Opts), B2 = run(C, Opts);
        const interp::ExecStats &St =
            (A.seconds() <= B2.seconds() ? A : B2).Stats;
        double Imbalance = 1.0;
        if (St.ChunkSecondsSum > 0 && St.ChunksRun > 0)
          Imbalance = St.ChunkSecondsMax * St.ChunksRun / St.ChunkSecondsSum;
        std::printf("  %6.2f (%5.2f)", Serial / St.TotalSeconds, Imbalance);
        Report.row({{"program", json::str(B.Name)},
                    {"schedule", json::str(interp::scheduleName(S))},
                    {"threads", json::num(T)},
                    {"seconds", json::num(St.TotalSeconds)},
                    {"speedup", json::num(Serial / St.TotalSeconds)},
                    {"chunks", json::num(St.ChunksRun)},
                    {"imbalance", json::num(Imbalance)}});
      }
      std::printf("\n");
    }
  }

  Report.write();
  std::printf("\nImbalance is max-chunk-seconds * chunks / sum-chunk-seconds "
              "per run (1.0 = perfectly even chunks). Dynamic and guided "
              "trade a smaller worst chunk for more dispenser trips; on the "
              "regular Fig. 16 loops all three policies should land within "
              "noise of each other.\n\n");
}

//===----------------------------------------------------------------------===//
// locality
//===----------------------------------------------------------------------===//

/// The skewed gather: with x split into M lines of 8 reals, iteration i
/// targets line mod(i-1, M), so index-adjacent iterations always touch
/// different lines and the iterations sharing a line are exactly M apart.
/// ind is a permutation (runtime-checkable, statically opaque), so the
/// loop parallelizes only via the inspector.
static std::string skewedGatherSource(int64_t M) {
  const int64_t N = M * 8;
  char Buf[1024];
  std::snprintf(Buf, sizeof(Buf), R"(program t
    integer i, n
    integer ind(%lld)
    real x(%lld), y(%lld)
    n = %lld
    init: do i = 1, n
      ind(i) = mod(i - 1, %lld) * 8 + (i - 1) / %lld + 1
      x(i) = mod(i, 17) * 0.5
      y(i) = mod(i, 11) * 0.25
    end do
    scat: do i = 1, n
      x(ind(i)) = x(ind(i)) + y(i) * 1.5
    end do
  end)",
                (long long)N, (long long)N, (long long)N, (long long)N,
                (long long)M, (long long)M);
  return Buf;
}

/// For each locality mode and thread count (real threads): the profiler's
/// per-worker distinct-line sum (the quantity the reorder minimizes;
/// exact at sample period 1), the union footprint (schedule-invariant), LLC
/// misses when perf counters are available (containers often refuse them,
/// then null), and whether the checksum stayed bit-identical to serial.
void bench::locality() {
  int64_t M = std::max<int64_t>(64, int64_t(2048 * benchScale()));
  std::printf("\n=== Locality-aware scheduling on a skewed gather "
              "(n=%" PRId64 ", %" PRId64 " target lines) ===\n\n",
              M * 8, M);

  Compiled C = compile({"skewed-gather", skewedGatherSource(M), {}, {}},
                       xform::PipelineMode::Full);
  const double Want = run(C, {}).Checksum;

  const sched::LocalityMode Modes[] = {sched::LocalityMode::Off,
                                       sched::LocalityMode::Reorder};
  JsonReport Report("locality");
  bool AllOk = true;
  uint64_t OffLines4 = 0, ReorderLines4 = 0;

  std::printf("  %-8s %3s  %12s  %10s  %10s  %8s  %s\n", "mode", "T",
              "worker-lines", "footprint", "llc-miss", "reorders", "checksum");
  for (sched::LocalityMode L : Modes) {
    for (unsigned T : {2u, 4u, 8u}) {
      prof::SessionOptions PO;
      PO.SamplePeriod = 1; // Exact footprints.
      PO.MaxSamplesPerArray = 1 << 22;
      prof::Session S(PO);
      interp::ExecOptions Opts;
      Opts.Threads = T;
      Opts.MinParallelWork = 0;
      Opts.RuntimeChecks = true;
      Opts.Locality = L;
      Opts.Prof = &S;
      Outcome R = run(C, Opts);
      S.finalizeAnalysis();

      uint64_t WorkerLines = 0, FootprintLines = 0;
      prof::PerfSample Perf;
      for (const prof::LoopProfile &LP : S.invocations()) {
        if (LP.Label != "scat")
          continue;
        WorkerLines = LP.WorkerLinesSum;
        Perf = LP.Perf;
        for (const prof::ArrayProfile &A : LP.Arrays)
          FootprintLines += A.FootprintLines;
      }
      unsigned Reorders =
          R.Stats.LocalityReorders + R.Stats.LocalityReordersCached;
      bool Ok = !R.Faulted && R.Checksum == Want;
      AllOk = AllOk && Ok;
      if (T == 4 && L == sched::LocalityMode::Off)
        OffLines4 = WorkerLines;
      if (T == 4 && L == sched::LocalityMode::Reorder)
        ReorderLines4 = WorkerLines;
      char Miss[32];
      if (Perf.Valid)
        std::snprintf(Miss, sizeof(Miss), "%10" PRIu64, Perf.LlcMisses);
      else
        std::snprintf(Miss, sizeof(Miss), "%10s", "n/a");
      std::printf("  %-8s %3u  %12" PRIu64 "  %10" PRIu64 "  %s  %8u  %s\n",
                  sched::localityModeName(L), T, WorkerLines, FootprintLines,
                  Miss, Reorders, Ok ? "ok" : "MISMATCH");
      Report.row(
          {{"mode", json::str(sched::localityModeName(L))},
           {"threads", json::num(T)},
           {"worker_lines", json::num(WorkerLines)},
           {"footprint_lines", json::num(FootprintLines)},
           {"llc_misses",
            Perf.Valid ? json::num(Perf.LlcMisses) : std::string("null")},
           {"seconds", json::num(R.seconds())},
           {"reorders", json::num(Reorders)},
           {"checksum_ok", Ok ? "true" : "false"}});
    }
  }
  Report.write();

  if (OffLines4 && ReorderLines4)
    std::printf("\nReorder cuts the 4-thread per-worker line sum %.1fx "
                "(%" PRIu64 " -> %" PRIu64 "); the union footprint column "
                "must not move, only which worker touches each line does.\n",
                double(OffLines4) / double(ReorderLines4), OffLines4,
                ReorderLines4);
  std::printf("%s\n\n", AllOk ? "All checksums bit-identical to serial."
                              : "CHECKSUM MISMATCH: see table.");
}

//===----------------------------------------------------------------------===//
// recurrence and runtime_check
//===----------------------------------------------------------------------===//

/// The static-only and runtime-check rows of one kernel: its speedup over
/// \p Serial on 2, 4 and 8 simulated processors, with the runtime-check
/// counters in the JSON rows (plus \p Extra fields first).
static void printCheckRows(
    JsonReport &Report, const Compiled &C, const std::string &Name,
    double Serial,
    const std::vector<std::pair<std::string, std::string>> &Extra) {
  std::printf("  %-14s", "config");
  for (unsigned T : {2u, 4u, 8u})
    std::printf("  %6up", T);
  std::printf("\n");
  for (bool Checks : {false, true}) {
    const char *Config = Checks ? "runtime-check" : "static-only";
    std::printf("  %-14s", Config);
    for (unsigned T : {2u, 4u, 8u}) {
      Outcome R = run(C, simulated(T, Checks));
      std::printf("  %6.2f", Serial / R.seconds());
      std::vector<std::pair<std::string, std::string>> Row = {
          {"program", json::str(Name)}};
      Row.insert(Row.end(), Extra.begin(), Extra.end());
      Row.insert(
          Row.end(),
          {{"config", json::str(Config)},
           {"threads", json::num(T)},
           {"seconds", json::num(R.seconds())},
           {"speedup", json::num(Serial / R.seconds())},
           {"dispatch_static", json::num(R.Stats.DispatchStatic)},
           {"dispatch_conditional", json::num(R.Stats.DispatchConditional)},
           {"dispatch_serial", json::num(R.Stats.DispatchSerial)},
           {"inspections_run", json::num(R.Stats.InspectionsRun)},
           {"inspections_cached", json::num(R.Stats.InspectionsCached)},
           {"runtime_check_fails", json::num(R.Stats.RuntimeCheckFails)}});
      Report.row(Row);
    }
    std::printf("\n");
  }
  std::printf("\n");
}

/// Prefix-sum scatter: pos is strictly increasing (accumulator step >= 1),
/// so the scatter through it is injective by construction and promotes.
static benchprogs::BenchmarkProgram prefixScatter(int64_t N, int64_t Reps) {
  char Buf[1024];
  std::snprintf(Buf, sizeof(Buf), R"(program pfx
    integer i, r, n, p
    integer pos(%lld)
    real x(%lld), y(%lld)
    n = %lld
    p = 0
    build: do i = 1, n
      p = p + mod(i, 3) + 1
      pos(i) = p
    end do
    init: do i = 1, n
      y(i) = mod(i, 9) * 0.25
    end do
    rep: do r = 1, %lld
      scat: do i = 1, n
        x(pos(i)) = x(pos(i)) + y(i) * 0.5
      end do
    end do
  end)",
                (long long)N, (long long)(N * 3 + 100), (long long)N,
                (long long)N, (long long)Reps);
  return {"prefix_scatter", Buf, {"scat"}, {}};
}

/// Kernels whose index arrays are built by analyzable recurrences (a fused
/// CCS build and a prefix-sum scatter) dispatch parallel on a static proof,
/// with no inspection, while a permuted-build control with identical
/// runtime behavior keeps paying for the O(n) inspection. A checksum sweep
/// across every schedule and thread count guards bit-identical results.
void bench::recurrence() {
  std::printf("\n=== Recurrence-based static promotion vs. runtime "
              "inspection (simulated multiprocessor) ===\n\n");
  double Scale = benchScale();
  int64_t N = std::max<int64_t>(500, int64_t(20000 * Scale));
  int64_t Cols = std::max<int64_t>(100, int64_t(4000 * Scale));
  const int64_t Reps = 8;
  JsonReport Report("recurrence");

  for (const benchprogs::BenchmarkProgram &B :
       {ccsBuild("ccs_fused", Cols, Reps, /*Fused=*/true),
        prefixScatter(N, Reps),
        ccsBuild("ccs_permuted", Cols, Reps, /*Fused=*/false)}) {
    Compiled C = compile(B, xform::PipelineMode::Full);
    unsigned Promoted = 0;
    for (const xform::LoopReport &Rep : C.Pipeline.Loops)
      if (Rep.Parallel && Rep.RecurrencePromoted)
        ++Promoted;

    Outcome SerialRun = run(C, {});
    double Serial = SerialRun.seconds();
    bool ChecksumOk = true;
    for (interp::Schedule S :
         {interp::Schedule::Static, interp::Schedule::Dynamic,
          interp::Schedule::Guided})
      for (unsigned T : {1u, 2u, 4u, 7u}) {
        interp::ExecOptions Opts = simulated(T, /*RuntimeChecks=*/true);
        Opts.Sched = S;
        ChecksumOk = ChecksumOk && run(C, Opts).Checksum == SerialRun.Checksum;
      }

    Report.row({{"program", json::str(B.Name)},
                {"kind", json::str("summary")},
                {"promoted_loops", json::num(Promoted)},
                {"checksum_ok", ChecksumOk ? "true" : "false"},
                {"serial_seconds", json::num(Serial)}});
    std::printf("%s (serial %.4fs, %u promoted loop(s), %lld reps, "
                "checksums %s)\n",
                B.Name.c_str(), Serial, Promoted, (long long)Reps,
                ChecksumOk ? "bit-identical" : "MISMATCH");
    printCheckRows(Report, C, B.Name, Serial, {{"kind", json::str("run")}});
  }

  Report.write();
  std::printf("\nccs_fused and prefix_scatter carry recurrence-promoted "
              "plans: their irregular loops dispatch parallel on the static "
              "tier with zero inspections, whether or not runtime checks "
              "are enabled. ccs_permuted is the control: the same runtime "
              "behavior, but the permuted build hides the recurrence, so "
              "its loop pays the inspection under runtime-check and stays "
              "serial without it.\n\n");
}

/// Kernels the static analysis must leave serial: a permutation scatter
/// whose index array is a permutation only at run time, and a CCS segment
/// update whose column pointers the solver cannot see through. The
/// irregular loop repeats, so the verdict cache amortizes the O(n)
/// inspection the way repeated solver calls would in an application.
void bench::runtimeCheck() {
  std::printf("\n=== Inspector/executor runtime checks on statically-serial "
              "irregular kernels (simulated multiprocessor) ===\n\n");
  double Scale = benchScale();
  int64_t N = std::max<int64_t>(500, int64_t(20000 * Scale));
  int64_t Cols = std::max<int64_t>(100, int64_t(4000 * Scale));
  const int64_t Reps = 8;
  JsonReport Report("runtime_check");

  for (const benchprogs::BenchmarkProgram &B :
       {permutationScatter("gather_scatter", N, Reps),
        ccsBuild("sparse_ccs", Cols, Reps, /*Fused=*/false)}) {
    Compiled C = compile(B, xform::PipelineMode::Full);
    double Serial = run(C, {}).seconds();
    Report.row({{"program", json::str(B.Name)},
                {"config", json::str("serial")},
                {"threads", json::num(1)},
                {"seconds", json::num(Serial)},
                {"speedup", json::num(1.0)}});
    std::printf("%s (serial %.4fs, %lld reps of the irregular loop)\n",
                B.Name.c_str(), Serial, (long long)Reps);
    printCheckRows(Report, C, B.Name, Serial, {});
  }

  Report.write();
  std::printf("\nstatic-only leaves the irregular loop serial (the index "
              "data is opaque to the compile-time tests); runtime-check "
              "inspects the index array once, caches the verdict on its "
              "version counter across the remaining reps, and dispatches "
              "the loop parallel. The gap between the two rows is the "
              "payoff of the inspector/executor path.\n\n");
}

//===----------------------------------------------------------------------===//
// profile
//===----------------------------------------------------------------------===//

/// Per labeled loop of the Fig. 16 kernels and the motivating
/// gather/scatter and CCS shapes: the health verdict, access locality
/// (fraction of sampled accesses reusing a cache line within 32 lines),
/// footprint and worker imbalance; per program, the profiling overhead
/// (profiled vs. unprofiled process CPU time at the default sampling
/// rate). Simulated processors run on the calling thread, so process CPU
/// time covers all the work and is not inflated by other load.
void bench::profile() {
  std::printf("\n=== Memory-access profiles: Fig. 16 kernels + motivating "
              "shapes (4 simulated processors, IAA pipeline) ===\n\n");
  JsonReport Report("profile");

  std::vector<benchprogs::BenchmarkProgram> Programs =
      benchprogs::allBenchmarks(benchScale());
  Programs.push_back({"Fig3-CCS", benchprogs::fig3Source(), {}, {}});
  Programs.push_back({"Fig14-gather", benchprogs::fig14Source(), {}, {}});

  for (const auto &B : Programs) {
    Compiled C = compile(B, xform::PipelineMode::Full);
    auto CpuSeconds = [&](prof::Session *S) {
      interp::ExecOptions Opts = simulated(4);
      Opts.Prof = S;
      return run(C, Opts).CpuSeconds;
    };

    // Min of five plain and profiled CPU times, interleaved so slow drift
    // in the machine's load hits both sides equally. A fresh session per
    // profiled run keeps invocation caps out of play.
    double Plain = CpuSeconds(nullptr), Profiled = 1e30;
    for (int R = 0; R < 5; ++R) {
      prof::Session S;
      Profiled = std::min(Profiled, CpuSeconds(&S));
      if (R + 1 < 5)
        Plain = std::min(Plain, CpuSeconds(nullptr));
    }
    // Sub-millisecond programs are all fixed per-invocation cost (session
    // setup, reuse-distance finalize), a percentage of nothing, so they
    // get no overhead figure.
    bool OverheadMeaningful = Plain >= 1e-3;
    double OverheadPct =
        OverheadMeaningful ? (Profiled / Plain - 1.0) * 100.0 : 0.0;

    // The reported profile comes from one fresh session.
    prof::Session S;
    CpuSeconds(&S);

    if (OverheadMeaningful)
      std::printf("%s (profiling overhead %+.1f%%)\n", B.Name.c_str(),
                  OverheadPct);
    else
      std::printf("%s (too short for a meaningful overhead percentage)\n",
                  B.Name.c_str());
    std::printf("%s\n", S.healthText(&C.Pipeline).c_str());

    for (const prof::LoopHealth &H : S.health(&C.Pipeline))
      Report.row({{"program", json::str(B.Name)},
                  {"loop", json::str(H.Label)},
                  {"verdict", json::str(H.Verdict)},
                  {"locality", json::num(H.LocalityScore)},
                  {"imbalance_pct", json::num(H.ImbalancePct)},
                  {"analysis_pct", json::num(H.AnalysisPct)},
                  {"footprint_lines",
                   json::num(static_cast<double>(H.FootprintLines))},
                  {"sampled",
                   json::num(static_cast<double>(H.SampledAccesses))},
                  {"invocations", json::num(H.Invocations)},
                  {"wall_us", json::num(H.WallUs)},
                  {"overhead_pct", json::num(OverheadPct)}});
  }

  Report.write();
  std::printf("\nLocality is the fraction of sampled accesses whose "
              "cache-line reuse distance is under 32 lines (cold first "
              "touches count against it); footprint is distinct 64-byte "
              "lines touched. Overhead compares profiled vs. unprofiled "
              "run time at the default 1-in-16 sampling rate.\n\n");
}

//===----------------------------------------------------------------------===//
// vm
//===----------------------------------------------------------------------===//

/// Every Fig. 16 kernel plus a hot permutation scatter runs at T=4 on real
/// threads under the tree walk and under the VM (best of three). The table
/// reports the time spent in the paper's irregular loops (where the
/// engines differ; serial and analysis work is engine-invariant), the VM
/// speedup, how many loop bodies compiled to bytecode vs bailed to the
/// tree walk, and whether both engines stayed bit-identical to serial.
void bench::vm() {
  double Scale = benchScale();
  std::vector<benchprogs::BenchmarkProgram> Kernels =
      benchprogs::allBenchmarks(Scale);
  Kernels.push_back(permutationScatter(
      "pscatter", std::max<int64_t>(1000, int64_t(400000 * Scale)), 12));

  std::printf("\n=== Register-bytecode VM vs tree-walk interpreter "
              "(irregular loops, T=4, best of 3) ===\n\n");
  std::printf("  %-10s %12s %12s %9s  %8s %9s  %s\n", "kernel", "interp(s)",
              "vm(s)", "speedup", "vm-loops", "bailouts", "checksum");

  JsonReport Report("vm");
  bool AllOk = true;
  double BestSpeedup = 0;
  for (const auto &B : Kernels) {
    Compiled C = compile(B, xform::PipelineMode::Full);
    const double Want = run(C, {}).Checksum;

    struct EngineRun {
      double IrrSeconds = std::numeric_limits<double>::infinity();
      double TotalSeconds = 0;
      unsigned VmLoops = 0, VmBailouts = 0;
      bool ChecksumOk = true;
    };
    auto RunEngine = [&](interp::ExecEngine E) {
      EngineRun Best;
      for (int Rep = 0; Rep < 3; ++Rep) {
        interp::ExecOptions Opts;
        Opts.Threads = 4;
        Opts.MinParallelWork = 0;
        Opts.RuntimeChecks = true;
        Opts.Engine = E;
        Outcome R = run(C, Opts);
        Best.ChecksumOk = Best.ChecksumOk && !R.Faulted && R.Checksum == Want;
        double Irr = 0;
        for (const std::string &L : B.IrregularLoops) {
          auto It = R.Stats.LoopSeconds.find(L);
          if (It != R.Stats.LoopSeconds.end())
            Irr += It->second;
        }
        if (Irr < Best.IrrSeconds) {
          Best.IrrSeconds = Irr;
          Best.TotalSeconds = R.seconds();
          Best.VmLoops = R.Stats.VmLoopsCompiled;
          Best.VmBailouts = R.Stats.VmBailouts;
        }
      }
      return Best;
    };
    EngineRun Interp = RunEngine(interp::ExecEngine::Interp);
    EngineRun Vm = RunEngine(interp::ExecEngine::Vm);
    bool Ok = Interp.ChecksumOk && Vm.ChecksumOk;
    AllOk = AllOk && Ok;
    double Speedup = Vm.IrrSeconds > 0 ? Interp.IrrSeconds / Vm.IrrSeconds : 0;
    BestSpeedup = std::max(BestSpeedup, Speedup);

    std::printf("  %-10s %12.4f %12.4f %8.2fx  %8u %9u  %s\n", B.Name.c_str(),
                Interp.IrrSeconds, Vm.IrrSeconds, Speedup, Vm.VmLoops,
                Vm.VmBailouts, Ok ? "ok" : "MISMATCH");
    Report.row({{"kernel", json::str(B.Name)},
                {"threads", json::num(4)},
                {"interp_seconds", json::num(Interp.IrrSeconds)},
                {"vm_seconds", json::num(Vm.IrrSeconds)},
                {"speedup", json::num(Speedup)},
                {"interp_total_seconds", json::num(Interp.TotalSeconds)},
                {"vm_total_seconds", json::num(Vm.TotalSeconds)},
                {"vm_loops", json::num(Vm.VmLoops)},
                {"vm_bailouts", json::num(Vm.VmBailouts)},
                {"checksum_ok", Ok ? "true" : "false"}});
  }
  Report.write();

  std::printf("\nBest irregular-loop speedup: %.2fx. %s\n\n", BestSpeedup,
              AllOk ? "All checksums bit-identical to serial."
                    : "CHECKSUM MISMATCH: see table.");
}
