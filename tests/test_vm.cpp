//===- tests/test_vm.cpp - Register-bytecode VM differential tests --------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// The bytecode engine end to end, with the tree-walking interpreter as the
/// differential oracle: --engine=both runs every program twice and demands
/// bit-identical final-memory checksums (or matching fault kinds), across
/// every schedule x thread-count combination, on the Fig. 16 benchmark
/// reconstructions, the recurrence-promoted kernels, conditional-dispatch
/// loops (inspection pass and fail), a locality-reordered dispatch, and a
/// mid-chunk fault with rollback + serial replay. Serial-dispatched loops
/// run on the VM too: their fault attribution, deadline polling, dispatch
/// accounting and the engine-keyed verdict cache are pinned against the
/// tree walk, as are faults, deadlines and the runaway guard inside while
/// loops. Compiler-level tests pin the fusion peepholes, the while
/// lowering and the bailout taxonomy.
///
/// Suite names here start with "Vm" so the CI ThreadSanitizer job's
/// --gtest_filter picks them up.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "benchprogs/Benchmarks.h"
#include "interp/Interpreter.h"
#include "prof/Profiler.h"
#include "verify/FaultInjector.h"
#include "vm/Bytecode.h"
#include "vm/Compiler.h"
#include "xform/Parallelizer.h"

#include <chrono>
#include <set>
#include <string>
#include <thread>

using namespace iaa;
using namespace iaa::interp;
using namespace iaa::mf;
using iaa::test::parseOrDie;

namespace {

const Schedule AllSchedules[] = {Schedule::Static, Schedule::Dynamic,
                                 Schedule::Guided};
const unsigned ThreadCounts[] = {1, 2, 4, 7};

/// The recurrence-promoted kernels of test_recurrence.cpp: a fused CCS
/// build + segment scale, and a strictly-increasing prefix-sum scatter.
const char *FusedCcs = R"(program t
    integer i, j, n
    integer colptr(101), colcnt(100)
    real vals(800)
    n = 100
    colptr(1) = 1
    build: do i = 1, n
      colcnt(i) = mod(i * 5, 7) + 1
      colptr(i + 1) = colptr(i) + colcnt(i)
    end do
    fill: do i = 1, 800
      vals(i) = mod(i, 13) * 0.125
    end do
    scale: do i = 1, n
      do j = 1, colcnt(i)
        vals(colptr(i) + j - 1) = vals(colptr(i) + j - 1) * 1.5 + 0.25
      end do
    end do
  end)";

const char *PrefixSumScatter = R"(program t
    integer i, n, p
    integer pos(1000)
    real x(3100), y(1000)
    n = 1000
    p = 0
    build: do i = 1, n
      p = p + mod(i, 3) + 1
      pos(i) = p
    end do
    init: do i = 1, n
      y(i) = mod(i, 9) * 0.25
    end do
    scat: do i = 1, n
      x(pos(i)) = x(pos(i)) + y(i) * 0.5
    end do
  end)";

/// Conditional-dispatch kernels of test_runtime_check.cpp: the permutation
/// index passes inspection (parallel), the duplicate-heavy one fails it
/// (serial fallback) — the VM must agree with the interpreter either way.
const char *PermutationScatter = R"(program t
    integer i, n
    integer ind(1000)
    real x(1000), y(1000)
    n = 1000
    init: do i = 1, n
      ind(i) = mod(i * 7, n) + 1
      x(i) = i * 0.5
      y(i) = mod(i, 9) * 0.25
    end do
    scat: do i = 1, n
      x(ind(i)) = x(ind(i)) + y(i) * 0.5
    end do
  end)";

const char *DuplicateScatter = R"(program t
    integer i, n
    integer ind(1000)
    real x(1000), y(1000)
    n = 1000
    init: do i = 1, n
      ind(i) = mod(i * 7, 500) + 1
      x(i) = i * 0.5
      y(i) = mod(i, 9) * 0.25
    end do
    scat: do i = 1, n
      x(ind(i)) = x(ind(i)) + y(i) * 0.5
    end do
  end)";

struct Harness {
  std::unique_ptr<Program> P;
  xform::PipelineResult Plan;

  explicit Harness(const std::string &Source) : P(parseOrDie(Source)) {
    Plan = xform::parallelize(*P, xform::PipelineMode::Full);
  }

  double serialChecksum() {
    Interpreter I(*P);
    Memory Serial = I.run(ExecOptions{});
    EXPECT_FALSE(I.faultState().Faulted) << I.faultState().str();
    return Serial.checksumExcluding(deadPrivateIds(Plan));
  }

  ExecOptions baseOptions(unsigned T, Schedule S, ExecEngine E) {
    ExecOptions Opts;
    Opts.Plans = &Plan;
    Opts.Threads = T;
    Opts.Sched = S;
    Opts.MinParallelWork = 0;
    Opts.RuntimeChecks = true;
    Opts.Engine = E;
    return Opts;
  }

  /// Runs under --engine=both and asserts the oracle saw no divergence.
  ExecStats runBoth(unsigned T, Schedule S, const std::string &Ctx) {
    Interpreter I(*P);
    ExecStats Stats;
    I.run(baseOptions(T, S, ExecEngine::Both), &Stats);
    EXPECT_FALSE(I.faultState().Faulted) << Ctx << ": "
                                         << I.faultState().str();
    EXPECT_EQ(Stats.BothComparisons, 1u) << Ctx;
    EXPECT_EQ(Stats.BothMismatches, 0u) << Ctx;
    return Stats;
  }
};

//===----------------------------------------------------------------------===//
// Compiler: lowering, fusion, bailouts
//===----------------------------------------------------------------------===//

/// Per-symbol-id dimension extents for direct compileLoop calls, derived
/// from an allocated Memory (rank-1 constant-extent test programs only).
std::vector<std::vector<int64_t>> extentsOf(const Program &P) {
  Memory M(P);
  std::vector<std::vector<int64_t>> Out(P.numSymbols());
  for (const Symbol *S : P.symbols())
    if (S->isArray() && S->rank() == 1)
      Out[S->id()] = {static_cast<int64_t>(M.buffer(S).size())};
  return Out;
}

TEST(VmCompile, GatherScatterFusesToSuperinstructions) {
  Harness H(PermutationScatter);
  const DoStmt *L = H.P->findLoop("scat");
  ASSERT_NE(L, nullptr);
  vm::CompileResult R = vm::compileLoop(L, extentsOf(*H.P));
  ASSERT_TRUE(R.Ok) << R.Bailout;
  // x(ind(i)) = x(ind(i)) + y(i)*0.5 must lower to one fused
  // gather-modify-scatter (sctadd) — the re-gather of x folds into the
  // superinstruction, so no standalone gather or address arithmetic
  // survives for it.
  EXPECT_EQ(R.Prog.FusedScatters, 1u) << R.Prog.str();
  EXPECT_EQ(R.Prog.FusedGathers, 1u) << R.Prog.str();
  std::string Dis = R.Prog.str();
  EXPECT_NE(Dis.find("sctaddd"), std::string::npos) << Dis;
}

TEST(VmCompile, PureGatherLowersToGth) {
  Harness H(R"(program t
    integer i, n
    integer ind(1000)
    real x(1000), y(1000)
    n = 1000
    init: do i = 1, n
      ind(i) = mod(i * 7, n) + 1
      x(i) = i * 0.5
    end do
    gat: do i = 1, n
      y(i) = x(ind(i)) * 2.0
    end do
  end)");
  const DoStmt *L = H.P->findLoop("gat");
  ASSERT_NE(L, nullptr);
  vm::CompileResult R = vm::compileLoop(L, extentsOf(*H.P));
  ASSERT_TRUE(R.Ok) << R.Bailout;
  EXPECT_EQ(R.Prog.FusedGathers, 1u) << R.Prog.str();
  EXPECT_NE(R.Prog.str().find("gthd"), std::string::npos) << R.Prog.str();
}

TEST(VmCompile, BailoutTaxonomy) {
  // A call with no resolved callee (the parser rejects one, a program
  // assembled through the Program API can hold one) is a structural
  // bailout; the xform pre-check and the compiler must agree.
  auto P = parseOrDie(R"(program t
    integer i, n
    real x(100)
    procedure bump
      x(i) = x(i) + 1.0
    end
    n = 100
    lp: do i = 1, n
      call bump
    end do
  end)");
  const DoStmt *L = P->findLoop("lp");
  ASSERT_NE(L, nullptr);
  cast<CallStmt>(L->body().front())->setCallee(nullptr);
  const char *Why = vm::structuralBailout(L);
  ASSERT_NE(Why, nullptr);
  EXPECT_NE(std::string(Why).find("unresolved"), std::string::npos) << Why;
  vm::CompileResult R = vm::compileLoop(L, extentsOf(*P));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Bailout, Why);
}

TEST(VmCompile, WhileLowers) {
  // TREE's do10 walks its force tree with an array stack inside a while;
  // the loop lowers, with the while's deadline poll and trip guard.
  Harness H(benchprogs::tree(0.05).Source);
  const DoStmt *L = H.P->findLoop("do10");
  ASSERT_NE(L, nullptr);
  EXPECT_EQ(vm::structuralBailout(L), nullptr);
  const xform::LoopPlan *Plan = H.Plan.planFor(L);
  ASSERT_NE(Plan, nullptr);
  EXPECT_TRUE(Plan->VmEligible) << Plan->VmBailout;
  vm::CompileResult R = vm::compileLoop(L, extentsOf(*H.P));
  ASSERT_TRUE(R.Ok) << R.Bailout;
  std::string Dis = R.Prog.str();
  EXPECT_NE(Dis.find(": poll "), std::string::npos) << Dis;
  ASSERT_NE(Dis.find(": wguard "), std::string::npos) << Dis;
  // The guard's back edge targets the condition, and the instruction just
  // before it zeroes the guard: the count restarts on every entry.
  for (const vm::Instr &In : R.Prog.Code)
    if (In.K == vm::Op::WhileGuard) {
      ASSERT_GT(In.Imm, 0) << Dis;
      const vm::Instr &Reset = R.Prog.Code[size_t(In.Imm) - 1];
      EXPECT_EQ(Reset.K, vm::Op::MovI) << Dis;
      EXPECT_EQ(Reset.A, In.A) << Dis;
      EXPECT_EQ(Reset.Imm, 0) << Dis;
    }
}

TEST(VmCompile, PlansMarkEligibility) {
  Harness H(PermutationScatter);
  const DoStmt *L = H.P->findLoop("scat");
  ASSERT_NE(L, nullptr);
  const xform::LoopPlan *Cond = H.Plan.conditionalPlanFor(L);
  ASSERT_NE(Cond, nullptr);
  EXPECT_TRUE(Cond->VmEligible) << Cond->VmBailout;
}

//===----------------------------------------------------------------------===//
// Differential oracle: benchmarks x schedules x thread counts
//===----------------------------------------------------------------------===//

TEST(VmDifferential, Fig16BenchmarksBitIdenticalEverywhere) {
  for (const auto &B : benchprogs::allBenchmarks(0.05)) {
    Harness H(B.Source);
    for (Schedule S : AllSchedules)
      for (unsigned T : ThreadCounts) {
        std::string Ctx = B.Name + "/" + scheduleName(S) +
                          "/T=" + std::to_string(T);
        ExecStats Stats = H.runBoth(T, S, Ctx);
        if (T > 1) {
          EXPECT_GT(Stats.VmParallelLoopRuns, 0u)
              << Ctx << ": the VM engine never engaged";
        }
        // At T=1 every loop dispatches serially, so the oracle compares
        // serial loops run as bytecode too.
        if (T == 1) {
          EXPECT_GT(Stats.VmSerialLoopRuns, 0u) << Ctx;
        }
      }
  }
}

TEST(VmDifferential, RecurrencePromotedKernels) {
  for (const char *Source : {FusedCcs, PrefixSumScatter}) {
    Harness H(Source);
    for (Schedule S : AllSchedules)
      for (unsigned T : ThreadCounts) {
        std::string Ctx = std::string(Source == FusedCcs ? "ccs" : "psum") +
                          "/" + scheduleName(S) + "/T=" + std::to_string(T);
        H.runBoth(T, S, Ctx);
      }
  }
}

TEST(VmDifferential, ConditionalDispatchPassAndFail) {
  {
    Harness H(PermutationScatter);
    for (Schedule S : AllSchedules)
      for (unsigned T : ThreadCounts) {
        ExecStats Stats =
            H.runBoth(T, S, std::string("perm/") + scheduleName(S) +
                                "/T=" + std::to_string(T));
        if (T > 1) {
          EXPECT_GT(Stats.VmParallelLoopRuns, 0u);
        }
      }
  }
  {
    // Failed inspection: the loop never dispatches parallel, so the VM
    // never engages — but both engines must still agree bit for bit.
    Harness H(DuplicateScatter);
    ExecStats Stats = H.runBoth(4, Schedule::Static, "dup");
    EXPECT_GT(Stats.RuntimeCheckFails, 0u);
  }
}

TEST(VmDifferential, LocalityReorderedDispatch) {
  Harness H(PermutationScatter);
  double Want = H.serialChecksum();
  for (unsigned T : {2u, 4u}) {
    Interpreter I(*H.P);
    ExecOptions Opts = H.baseOptions(T, Schedule::Static, ExecEngine::Vm);
    Opts.Locality = sched::LocalityMode::Reorder;
    ExecStats Stats;
    Memory M = I.run(Opts, &Stats);
    ASSERT_FALSE(I.faultState().Faulted) << I.faultState().str();
    EXPECT_EQ(M.checksumExcluding(deadPrivateIds(H.Plan)), Want) << "T=" << T;
    EXPECT_GT(Stats.VmParallelLoopRuns, 0u) << "T=" << T;
    EXPECT_GT(Stats.LocalityReorders, 0u)
        << "T=" << T << ": the permuted dispatch must actually be in force";
  }
}

TEST(VmDifferential, WhileShapesBitIdentical) {
  // Every while shape the compiler lowers, each in a parallel-planned loop:
  // zero trips, a while in a do in a while, short-circuit and/or guarding
  // a division, a real-valued condition and a real's truthiness, and a
  // while inside an inlined call.
  Harness H(R"(program t
    integer i, j, k, m, n, c
    integer cnt(64), w(64)
    real x(64), y(64), z(64)
    real r
    procedure walk
      while (m < mod(i, 4) or (m < 2 and i > 60))
        m = m + 1
        r = r + m * 0.5
      end while
    end
    n = 64
    init: do i = 1, n
      w(i) = mod(i * 7, 5)
      y(i) = mod(i, 9) * 0.25
    end do
    zero: do i = 1, n
      k = w(i) - 10
      c = 0
      while (k > 0)
        c = c + k
        k = k - 1
      end while
      x(i) = c + k
    end do
    nest: do i = 1, n
      k = 0
      c = 0
      while (k < w(i))
        k = k + 1
        do j = 1, k
          m = j
          while (m > 0)
            c = c + m
            m = m - 2
          end while
        end do
      end while
      cnt(i) = c
    end do
    logic: do i = 1, n
      k = 0
      while (k < 5 and (w(i) == 0 or 10 / w(i) > k))
        k = k + 1
      end while
      r = y(i)
      while (r < 3.5 and not (r > 2.0 and k == 0))
        r = r * 1.5 + 0.25
      end while
      x(i) = x(i) + r + k
    end do
    truth: do i = 1, n
      r = y(i) * 4.0
      c = 0
      while (r)
        r = r - 1.0
        c = c + 1
      end while
      z(i) = c * 0.5
    end do
    inl: do i = 1, n
      m = 0
      r = 0.0
      call walk
      x(i) = x(i) + r
    end do
  end)");
  for (const char *Label : {"zero", "nest", "logic", "truth", "inl"}) {
    const DoStmt *L = H.P->findLoop(Label);
    ASSERT_NE(L, nullptr) << Label;
    EXPECT_NE(H.Plan.planFor(L), nullptr) << Label << " must plan parallel";
  }
  for (unsigned T : {1u, 4u}) {
    std::string Ctx = "T=" + std::to_string(T);
    ExecStats Stats = H.runBoth(T, Schedule::Static, Ctx);
    EXPECT_EQ(Stats.VmBailouts, 0u) << Ctx;
    EXPECT_GE(Stats.VmLoopsCompiled, 5u) << Ctx;
    EXPECT_GT(T == 1 ? Stats.VmSerialLoopRuns : Stats.VmParallelLoopRuns, 0u)
        << Ctx;
  }
}

//===----------------------------------------------------------------------===//
// Engine selection, stats, and graceful bailout
//===----------------------------------------------------------------------===//

TEST(VmEngine, ParseAndNames) {
  ExecEngine E;
  EXPECT_TRUE(parseEngine("interp", E));
  EXPECT_EQ(E, ExecEngine::Interp);
  EXPECT_TRUE(parseEngine("vm", E));
  EXPECT_EQ(E, ExecEngine::Vm);
  EXPECT_TRUE(parseEngine("both", E));
  EXPECT_EQ(E, ExecEngine::Both);
  EXPECT_FALSE(parseEngine("jit", E));
  EXPECT_STREQ(engineName(ExecEngine::Vm), "vm");
  EXPECT_STREQ(engineName(ExecEngine::Both), "both");
}

TEST(VmEngine, InterpEngineNeverCompiles) {
  Harness H(PermutationScatter);
  Interpreter I(*H.P);
  ExecStats Stats;
  I.run(H.baseOptions(4, Schedule::Static, ExecEngine::Interp), &Stats);
  EXPECT_EQ(Stats.VmLoopsCompiled, 0u);
  EXPECT_EQ(Stats.VmParallelLoopRuns, 0u);
  EXPECT_EQ(Stats.VmChunksRun, 0u);
}

TEST(VmEngine, VmEngineCompilesOncePerLoop) {
  Harness H(PermutationScatter);
  Interpreter I(*H.P);
  ExecStats Stats;
  Memory M = I.run(H.baseOptions(4, Schedule::Static, ExecEngine::Vm), &Stats);
  ASSERT_FALSE(I.faultState().Faulted) << I.faultState().str();
  EXPECT_GT(Stats.VmLoopsCompiled, 0u);
  EXPECT_GT(Stats.VmChunksRun, 0u);
  EXPECT_EQ(M.checksumExcluding(deadPrivateIds(H.Plan)), H.serialChecksum());
}

TEST(VmEngine, UnsupportedBodyFallsBackPerLoop) {
  // lp is certified parallel but calls through a 9-deep chain — past the
  // VM compiler's inline budget, so it must bail back to the tree walk;
  // par is clean and runs on bytecode. The program result is unchanged.
  Harness H(R"(program t
    integer i, n
    real t
    real x(2000), y(2000)
    procedure s9
      t = t * 2.0 + 1.0
    end
    procedure s8
      call s9
    end
    procedure s7
      call s8
    end
    procedure s6
      call s7
    end
    procedure s5
      call s6
    end
    procedure s4
      call s5
    end
    procedure s3
      call s4
    end
    procedure s2
      call s3
    end
    procedure s1
      call s2
    end
    n = 2000
    par: do i = 1, n
      y(i) = i * 0.5
    end do
    lp: do i = 1, n
      t = y(i)
      call s1
      x(i) = t
    end do
  end)");
  const xform::LoopReport *Rep = H.Plan.reportFor("lp");
  ASSERT_NE(Rep, nullptr);
  ASSERT_TRUE(Rep->Parallel) << Rep->WhyNot;
  const DoStmt *L = H.P->findLoop("lp");
  ASSERT_NE(L, nullptr);
  const xform::LoopPlan *Plan = H.Plan.planFor(L);
  ASSERT_NE(Plan, nullptr);
  EXPECT_FALSE(Plan->VmEligible);
  EXPECT_NE(Plan->VmBailout.find("too deep"), std::string::npos)
      << Plan->VmBailout;

  double Want = H.serialChecksum();
  Interpreter I(*H.P);
  ExecStats Stats;
  Memory M = I.run(H.baseOptions(4, Schedule::Static, ExecEngine::Vm), &Stats);
  ASSERT_FALSE(I.faultState().Faulted) << I.faultState().str();
  EXPECT_EQ(M.checksumExcluding(deadPrivateIds(H.Plan)), Want);
  EXPECT_GT(Stats.VmBailouts, 0u);
  EXPECT_GT(Stats.VmParallelLoopRuns, 0u) << "par must still run on the VM";
}

//===----------------------------------------------------------------------===//
// Fault containment on the VM path
//===----------------------------------------------------------------------===//

TEST(VmFault, MidChunkFaultRollsBackAndReplays) {
  // The injected fault fires inside a VM-executed parallel chunk; the
  // transaction must roll back and the serial replay (always on the tree
  // walk — the semantic reference) must recover bit-identically.
  Harness H(R"(program t
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
  double Want = H.serialChecksum();
  for (Schedule S : AllSchedules) {
    verify::FaultInjector Inj;
    Inj.faultAt("lp", 1000, /*ParallelOnly=*/true);
    Interpreter I(*H.P);
    ExecOptions Opts = H.baseOptions(4, S, ExecEngine::Vm);
    Opts.Injector = &Inj;
    ExecStats Stats;
    Memory M = I.run(Opts, &Stats);
    const FaultState &FS = I.faultState();
    EXPECT_FALSE(FS.Faulted) << scheduleName(S) << ": " << FS.str();
    EXPECT_EQ(FS.Rollbacks, 1u) << scheduleName(S);
    EXPECT_EQ(FS.ReplaysRecovered, 1u) << scheduleName(S);
    EXPECT_EQ(M.checksumExcluding(deadPrivateIds(H.Plan)), Want)
        << scheduleName(S);
    EXPECT_GT(Stats.VmParallelLoopRuns, 0u) << scheduleName(S);
    EXPECT_EQ(Stats.DispatchReplay, 1u) << scheduleName(S);
  }
}

TEST(VmFault, GenuineFaultIdenticalAttributionAcrossEngines) {
  // A poisoned index dispatched past a lying inspector: both engines must
  // trap the out-of-bounds subscript, roll back, and reproduce it in the
  // serial replay with the same exact attribution.
  const char *Poisoned = R"(program t
    integer i, n
    integer ind(1000)
    real x(1000)
    n = 1000
    fill: do i = 1, n
      ind(i) = mod(i * 7, n) + 1
      x(i) = i * 0.25
    end do
    ind(500) = 2000
    scat: do i = 1, n
      x(ind(i)) = x(ind(i)) + 1.0
    end do
  end)";
  for (ExecEngine E : {ExecEngine::Interp, ExecEngine::Vm}) {
    Harness H(Poisoned);
    verify::FaultInjector Inj;
    Inj.skipInspectionOf("scat");
    Interpreter I(*H.P);
    ExecOptions Opts = H.baseOptions(4, Schedule::Static, E);
    Opts.Injector = &Inj;
    I.run(Opts);
    const FaultState &FS = I.faultState();
    std::string Ctx = engineName(E);
    ASSERT_TRUE(FS.Faulted) << Ctx;
    EXPECT_EQ(FS.Fault.Kind, FaultKind::OutOfBounds) << Ctx;
    EXPECT_TRUE(FS.Fault.DuringReplay) << Ctx;
    EXPECT_EQ(FS.Fault.Loop, "scat") << Ctx;
    EXPECT_EQ(FS.Fault.Iteration, 500) << Ctx;
    EXPECT_EQ(FS.Fault.Value, 2000) << Ctx;
    EXPECT_EQ(FS.Fault.Bound, 1000) << Ctx;
    EXPECT_EQ(FS.Rollbacks, 1u) << Ctx;
  }
}

//===----------------------------------------------------------------------===//
// Serial-dispatched loops on the VM
//===----------------------------------------------------------------------===//

/// A SPARK00-shaped program like the sparse_large benchmark workload, at
/// 4096-element index arrays: CRS SpMV gather, fused CCS build plus Fig. 3
/// segment loop, prefix-sum scatter, a permutation scatter swept four times
/// inside a serial loop, and a duplicate-index scatter whose inspection
/// fails.
std::string sparseLargeShaped() {
  const long N = 4096, NR = N / 4, NC = N / 4;
  long NNZ = 0, NNZC = 0;
  for (long I = 1; I <= NR; ++I)
    NNZ += (I * 3 + 5) % 7 + 1;
  for (long J = 1; J <= NC; ++J)
    NNZC += (J * 5 + 1) % 7 + 1;
  auto S = [](long V) { return std::to_string(V); };
  return "program spark\n"
         "  integer i, j, k, r, n, nr, nc, p\n"
         "  integer rowptr(" + S(NR + 1) + "), colidx(" + S(NNZ) +
         "), colcnt(" + S(NC) + "), colptr(" + S(NC + 1) + ")\n"
         "  integer pos(" + S(N) + "), perm(" + S(N) + "), dup(" + S(N) +
         ")\n"
         "  real a(" + S(NNZ) + "), xv(" + S(NC) + "), y(" + S(NR) +
         "), v(" + S(NNZC) + "), x(" + S(3 * N) + ")\n"
         "  real w(" + S(N) + "), z(" + S(N) + "), q(" + S(N) + ")\n"
         "  real s\n"
         "  n = " + S(N) + "\n"
         "  nr = " + S(NR) + "\n"
         "  nc = " + S(NC) + "\n"
         "  rowptr(1) = 1\n"
         "  rows: do i = 1, nr\n"
         "    rowptr(i + 1) = rowptr(i) + mod(i * 3 + 5, 7) + 1\n"
         "  end do\n"
         "  cols: do k = 1, " + S(NNZ) + "\n"
         "    colidx(k) = mod(k * 389 + 17, nc) + 1\n"
         "    a(k) = mod(k, 13) * 0.125 + 0.5\n"
         "  end do\n"
         "  xinit: do j = 1, nc\n"
         "    xv(j) = mod(j * 3, 11) * 0.25\n"
         "  end do\n"
         "  spmv: do i = 1, nr\n"
         "    s = 0.0\n"
         "    do k = rowptr(i), rowptr(i + 1) - 1\n"
         "      s = s + a(k) * xv(colidx(k))\n"
         "    end do\n"
         "    y(i) = s\n"
         "  end do\n"
         "  colptr(1) = 1\n"
         "  ccs: do j = 1, nc\n"
         "    colcnt(j) = mod(j * 5 + 1, 7) + 1\n"
         "    colptr(j + 1) = colptr(j) + colcnt(j)\n"
         "  end do\n"
         "  vinit: do k = 1, " + S(NNZC) + "\n"
         "    v(k) = mod(k, 17) * 0.0625\n"
         "  end do\n"
         "  seg: do j = 1, nc\n"
         "    do k = 1, colcnt(j)\n"
         "      v(colptr(j) + k - 1) = v(colptr(j) + k - 1) * 1.0625 + xv(j)\n"
         "    end do\n"
         "  end do\n"
         "  winit: do i = 1, n\n"
         "    w(i) = mod(i * 5, 19) * 0.125\n"
         "    perm(i) = mod(i * 1237 + 11, n) + 1\n"
         "    dup(i) = mod(i * 77 + 3, " + S(N / 2) + ") + 1\n"
         "  end do\n"
         "  p = 0\n"
         "  pfx: do i = 1, n\n"
         "    p = p + mod(i * 2 + 7, 3) + 1\n"
         "    pos(i) = p\n"
         "  end do\n"
         "  scat: do i = 1, n\n"
         "    x(pos(i)) = x(pos(i)) + w(i) * 0.5\n"
         "  end do\n"
         "  sweep: do r = 1, 4\n"
         "    pscat: do i = 1, n\n"
         "      z(perm(i)) = z(perm(i)) * 0.5 + w(i)\n"
         "    end do\n"
         "  end do\n"
         "  dscat: do i = 1, n\n"
         "    q(dup(i)) = q(dup(i)) + w(i)\n"
         "  end do\n"
         "end\n";
}

TEST(VmDifferential, DispatchPartitionMatchesTreeWalk) {
  // The VM inlines the nested loops of a serial loop it runs; each still
  // counts as one serial-tier dispatch, so the dispatch partition and the
  // inspection counts cannot depend on the engine.
  const char *NestedSerial = R"(program t
    integer i, j, n
    real x(100), y(100)
    n = 100
    x(1) = 1.0
    outer: do i = 2, n
      x(i) = x(i - 1) * 0.5 + 1.0
      inner: do j = 2, 10
        y(j) = y(j - 1) + x(i)
      end do
    end do
  end)";
  std::vector<std::pair<std::string, std::string>> Programs = {
      {"sparse_large", sparseLargeShaped()}, {"nested", NestedSerial}};
  for (const auto &B : benchprogs::allBenchmarks(0.05))
    Programs.emplace_back(B.Name, B.Source);
  for (const auto &[Name, Source] : Programs) {
    Harness H(Source);
    ExecStats ByEngine[2];
    double Checksum[2];
    for (unsigned K = 0; K < 2; ++K) {
      Interpreter I(*H.P);
      ExecOptions Opts = H.baseOptions(
          4, Schedule::Static, K ? ExecEngine::Vm : ExecEngine::Interp);
      Opts.Locality = sched::LocalityMode::Reorder;
      Memory M = I.run(Opts, &ByEngine[K]);
      ASSERT_FALSE(I.faultState().Faulted) << Name << ": "
                                           << I.faultState().str();
      Checksum[K] = M.checksumExcluding(deadPrivateIds(H.Plan));
    }
    const ExecStats &T = ByEngine[0], &V = ByEngine[1];
    EXPECT_EQ(Checksum[0], Checksum[1]) << Name;
    EXPECT_EQ(T.DispatchStatic, V.DispatchStatic) << Name;
    EXPECT_EQ(T.DispatchConditional, V.DispatchConditional) << Name;
    EXPECT_EQ(T.DispatchSerial, V.DispatchSerial) << Name;
    EXPECT_EQ(T.DispatchReplay, V.DispatchReplay) << Name;
    EXPECT_EQ(T.InspectionsRun, V.InspectionsRun) << Name;
    EXPECT_EQ(T.InspectionsCached, V.InspectionsCached) << Name;
    EXPECT_EQ(T.VmSerialLoopRuns, 0u) << Name;
    if (Name == "nested") {
      EXPECT_EQ(V.VmSerialLoopRuns, 1u) << "outer runs inner as bytecode";
      EXPECT_EQ(V.DispatchSerial, 100u) << "outer once, inner 99 times";
    }
    if (Name != "sparse_large")
      continue;
    // rows, ccs, pfx and the dscat fallback run as bytecode; sweep nests
    // the conditional pscat, so it stays on the tree walk and pscat still
    // dispatches on its own four times, each in parallel.
    for (const ExecStats *S : {&T, &V}) {
      unsigned PscatParallel = 0;
      for (const ExecStats::RuntimeDecision &D : S->RuntimeDecisions)
        PscatParallel += D.Loop == "pscat" && D.Pass;
      EXPECT_EQ(PscatParallel, 4u) << (S == &T ? "interp" : "vm");
    }
    EXPECT_GE(V.VmSerialLoopRuns, 4u);
  }
}

TEST(VmDifferential, VerdictCacheIsEngineSafe) {
  // A VM-run serial loop bumps its write set once, the tree walk once per
  // write, so the VM run's second scat invocation (after fix: ind =
  // 2,2,2,4, inspection fails) sees the same version of ind as the tree
  // walk's first (ind = 1,2,3,4, inspection passes). One interpreter
  // alternating engines must still decide like a fresh one, and the VM's
  // fix loop must still invalidate the first verdict.
  Harness H(R"(program t
    integer i, n
    integer ind(4)
    real x(8), y(4)
    procedure doscat
      scat: do i = 1, n
        x(ind(i)) = x(ind(i)) + y(i)
      end do
    end
    n = 4
    ind(1) = 1
    ind(2) = 2
    y(1) = 0.5
    y(2) = 1.0
    init: do i = 3, n
      ind(i) = i
      y(i) = y(i - 1) + 0.5
    end do
    call doscat
    fix: do i = 2, 3
      ind(2 * i - 3) = 2
      y(i) = y(i - 1) * 0.5
    end do
    call doscat
  end)");
  const DoStmt *Scat = H.P->findLoop("scat");
  ASSERT_NE(Scat, nullptr);
  ASSERT_NE(H.Plan.conditionalPlanFor(Scat), nullptr);
  auto Decisions = [&](Interpreter &I, ExecEngine E) {
    ExecStats Stats;
    I.run(H.baseOptions(4, Schedule::Static, E), &Stats);
    EXPECT_FALSE(I.faultState().Faulted) << I.faultState().str();
    std::vector<bool> Pass;
    for (const ExecStats::RuntimeDecision &D : Stats.RuntimeDecisions)
      Pass.push_back(D.Pass);
    return Pass;
  };
  Interpreter Shared(*H.P);
  for (ExecEngine E : {ExecEngine::Vm, ExecEngine::Interp, ExecEngine::Vm,
                       ExecEngine::Interp}) {
    Interpreter Fresh(*H.P);
    std::vector<bool> Want = Decisions(Fresh, E);
    EXPECT_EQ(Want, (std::vector<bool>{true, false})) << engineName(E);
    EXPECT_EQ(Decisions(Shared, E), Want) << engineName(E);
  }
}

TEST(VmEngine, SerialLoopsRunAsBytecode) {
  // build carries the prefix recurrence on p, so it is serial; under the
  // VM engine it runs as bytecode and its profile record says so.
  Harness H(PrefixSumScatter);
  for (ExecEngine E : {ExecEngine::Interp, ExecEngine::Vm}) {
    prof::Session Prof;
    Interpreter I(*H.P);
    ExecOptions Opts = H.baseOptions(4, Schedule::Static, E);
    Opts.Prof = &Prof;
    ExecStats Stats;
    Memory M = I.run(Opts, &Stats);
    ASSERT_FALSE(I.faultState().Faulted) << I.faultState().str();
    EXPECT_EQ(M.checksumExcluding(deadPrivateIds(H.Plan)), H.serialChecksum());
    const prof::LoopProfile *Build = nullptr;
    for (const prof::LoopProfile &LP : Prof.invocations())
      if (LP.Label == "build")
        Build = &LP;
    ASSERT_NE(Build, nullptr);
    EXPECT_EQ(Build->Dispatch.Kind, prof::DispatchKind::Serial);
    EXPECT_EQ(Build->Dispatch.Engine, engineName(E));
    EXPECT_EQ(Stats.VmSerialLoopRuns, E == ExecEngine::Vm ? 1u : 0u);
  }
}

TEST(VmFault, SerialFaultAttributionMatchesTreeWalk) {
  // Outside parallel loops a VM fault reads exactly like the tree walk's:
  // same loop, iteration and location, and no worker (InParallel false).
  const char *OutOfBounds = R"(program t
    integer i, n
    integer ind(100)
    real x(100)
    n = 100
    fill: do i = 1, n
      ind(i) = i + 1
    end do
    lp: do i = 1, n
      x(ind(i)) = i * 0.5
    end do
  end)";
  const char *DivByZero = R"(program t
    integer i, n
    integer d(100), q(100)
    n = 100
    fill: do i = 1, n
      d(i) = i - 50
    end do
    lp: do i = 1, n
      q(i) = 100 / d(i)
    end do
  end)";
  const char *Clean = R"(program t
    integer i, n
    real x(100)
    n = 100
    fill: do i = 1, n
      x(i) = i * 0.25
    end do
    lp: do i = 1, n
      x(i) = x(i) * 2.0
    end do
  end)";
  struct Case {
    const char *Name;
    const char *Source;
    FaultKind Kind;
  };
  for (const Case &C : {Case{"out-of-bounds", OutOfBounds,
                             FaultKind::OutOfBounds},
                        Case{"div-by-zero", DivByZero, FaultKind::DivByZero},
                        Case{"injected", Clean, FaultKind::Injected}}) {
    auto P = parseOrDie(C.Source);
    std::string Want;
    for (ExecEngine E : {ExecEngine::Interp, ExecEngine::Vm}) {
      std::string Ctx = std::string(C.Name) + "/" + engineName(E);
      verify::FaultInjector Inj;
      Inj.faultAt("lp", 30, /*ParallelOnly=*/false);
      Interpreter I(*P);
      ExecOptions Opts;
      Opts.Engine = E;
      if (C.Kind == FaultKind::Injected)
        Opts.Injector = &Inj;
      ExecStats Stats;
      I.run(Opts, &Stats);
      const FaultState &FS = I.faultState();
      ASSERT_TRUE(FS.Faulted) << Ctx;
      EXPECT_EQ(FS.Fault.Kind, C.Kind) << Ctx;
      EXPECT_EQ(FS.Fault.Loop, "lp") << Ctx;
      EXPECT_FALSE(FS.Fault.InParallel) << Ctx;
      EXPECT_EQ(Stats.VmLoopsCompiled, E == ExecEngine::Vm ? 2u : 0u) << Ctx;
      if (Want.empty())
        Want = FS.Fault.str();
      else
        EXPECT_EQ(FS.Fault.str(), Want) << Ctx;
    }
  }
}

TEST(VmFault, SerialDeadlineStopsTheLoopMidRun) {
  // A billion-iteration serial loop runs as one bytecode range; only the
  // VM's own per-iteration poll can stop it when the deadline fires.
  auto P = parseOrDie(R"(program t
    integer i, n, s
    n = 1000000000
    s = 0
    lp: do i = 1, n
      s = s + mod(i, 7)
    end do
  end)");
  CancelToken Token;
  Interpreter I(*P);
  ExecOptions Opts;
  Opts.Engine = ExecEngine::Vm;
  Opts.Cancel = &Token;
  ExecStats Stats;
  std::thread Watchdog([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Token.cancel();
  });
  I.run(Opts, &Stats);
  Watchdog.join();
  const FaultState &FS = I.faultState();
  ASSERT_TRUE(FS.Faulted);
  EXPECT_EQ(FS.Fault.Kind, FaultKind::DeadlineExceeded) << FS.str();
  EXPECT_EQ(FS.Fault.Loop, "lp");
  EXPECT_FALSE(FS.Fault.InParallel);
  EXPECT_LT(FS.Fault.Iteration, 1000000000);
  EXPECT_EQ(Stats.VmLoopsCompiled, 1u);
}

/// The first while statement nested anywhere in \p L's body.
const WhileStmt *firstWhileIn(const DoStmt *L) {
  const WhileStmt *Found = nullptr;
  Program::forEachStmtIn(L->body(), [&](Stmt *S) {
    if (!Found)
      Found = dyn_cast<WhileStmt>(S);
  });
  return Found;
}

TEST(VmFault, WhileGuardMatchesTreeWalkAttribution) {
  // Iteration 3 of lp enters a while that never ends. The VM runs all
  // WhileTripLimit + 1 trips (the tree walk would take minutes) and must
  // fault exactly as the tree walk's guard does: IterationGuard at the
  // while, in lp's iteration 3, value = the trip past the limit.
  auto P = parseOrDie(R"(program t
    integer i, n, k
    real x(10)
    n = 10
    lp: do i = 1, n
      k = 0
      if (i == 3) then
        while (1)
        end while
      end if
      x(i) = x(i) + k
    end do
  end)");
  const DoStmt *L = P->findLoop("lp");
  ASSERT_NE(L, nullptr);
  const WhileStmt *WS = firstWhileIn(L);
  ASSERT_NE(WS, nullptr);
  Interpreter I(*P);
  ExecOptions Opts;
  Opts.Engine = ExecEngine::Vm;
  ExecStats Stats;
  I.run(Opts, &Stats);
  EXPECT_EQ(Stats.VmLoopsCompiled, 1u);
  const FaultState &FS = I.faultState();
  ASSERT_TRUE(FS.Faulted);
  const RuntimeFault &F = FS.Fault;
  EXPECT_EQ(F.Kind, FaultKind::IterationGuard) << F.str();
  EXPECT_EQ(F.Loc, WS->loc());
  EXPECT_EQ(F.Loop, "lp");
  EXPECT_TRUE(F.HasIteration);
  EXPECT_EQ(F.Iteration, 3);
  EXPECT_TRUE(F.HasValue);
  EXPECT_EQ(F.Value, WhileTripLimit + 1);
  EXPECT_EQ(F.Bound, WhileTripLimit);
  EXPECT_FALSE(F.InParallel);
  // The fault the tree walk's guard builds from the same frame.
  RuntimeFault Want;
  Want.Kind = FaultKind::IterationGuard;
  Want.Loc = WS->loc();
  Want.Range = SourceRange(WS->loc());
  Want.Loop = "lp";
  Want.HasIteration = true;
  Want.Iteration = 3;
  Want.HasValue = true;
  Want.Value = WhileTripLimit + 1;
  Want.Bound = WhileTripLimit;
  Want.Detail = "while loop exceeded the iteration guard";
  EXPECT_EQ(F.str(), Want.str());
}

TEST(VmFault, DeadlineInsideWhileMatchesTreeWalk) {
  // lp's while never ends; a 20 ms watchdog must stop it at the while's
  // own poll, serially and in a T=2 parallel dispatch, on either engine.
  Harness H(R"(program t
    integer i, n, k
    real x(8)
    n = 8
    lp: do i = 1, n
      k = 0
      while (k >= 0)
        k = k + 1
      end while
      x(i) = k * 0.5
    end do
  end)");
  const DoStmt *L = H.P->findLoop("lp");
  ASSERT_NE(L, nullptr);
  ASSERT_NE(H.Plan.planFor(L), nullptr);
  const WhileStmt *WS = firstWhileIn(L);
  ASSERT_NE(WS, nullptr);
  for (bool Parallel : {false, true})
    for (ExecEngine E : {ExecEngine::Interp, ExecEngine::Vm}) {
      std::string Ctx = std::string(Parallel ? "T=2/" : "serial/") +
                        engineName(E);
      CancelToken Token;
      Interpreter I(*H.P);
      ExecOptions Opts;
      if (Parallel)
        Opts = H.baseOptions(2, Schedule::Static, E);
      Opts.Engine = E;
      Opts.Cancel = &Token;
      ExecStats Stats;
      std::thread Watchdog([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        Token.cancel();
      });
      I.run(Opts, &Stats);
      Watchdog.join();
      const FaultState &FS = I.faultState();
      ASSERT_TRUE(FS.Faulted) << Ctx;
      EXPECT_EQ(FS.Fault.Kind, FaultKind::DeadlineExceeded) << Ctx;
      EXPECT_EQ(FS.Fault.Loc, WS->loc()) << Ctx << ": " << FS.Fault.str();
      EXPECT_EQ(FS.Fault.Loop, "lp") << Ctx;
      EXPECT_EQ(FS.Fault.InParallel, Parallel) << Ctx;
      EXPECT_EQ(Stats.VmLoopsCompiled, E == ExecEngine::Vm ? 1u : 0u) << Ctx;
    }
}

TEST(VmFault, FaultsInsideWhileMatchTreeWalk) {
  // Iteration 37 of each parallel loop faults inside a while: an array-
  // stack push past stack's extent, and a division by zero on the third
  // evaluation of a while condition. Serially (T=1) and after rollback
  // and serial replay (T=4), both engines report the same fault.
  const char *StackOverflow = R"(program t
    integer i, n, nn, node, sptr
    integer left(63), right(63), stack(4), start(64)
    real mass(63), acc(64)
    real s
    nn = 63
    n = 64
    bld: do i = 1, nn
      left(i) = i * 2
      right(i) = i * 2 + 1
      if (left(i) > nn) then
        left(i) = 0
      end if
      if (right(i) > nn) then
        right(i) = 0
      end if
      mass(i) = mod(i * 5, 7) * 0.5 + 1.0
    end do
    st: do i = 1, n
      start(i) = 32 + mod(i, 32)
    end do
    start(37) = 1
    lp: do i = 1, n
      s = 0.0
      sptr = 0
      sptr = sptr + 1
      stack(sptr) = start(i)
      while (sptr > 0)
        node = stack(sptr)
        sptr = sptr - 1
        s = s + mass(node)
        if (left(node) > 0) then
          sptr = sptr + 1
          stack(sptr) = left(node)
        end if
        if (right(node) > 0) then
          sptr = sptr + 1
          stack(sptr) = right(node)
        end if
      end while
      acc(i) = s
    end do
  end)";
  const char *DivInCondition = R"(program t
    integer i, n, k
    integer d(64)
    real x(64)
    n = 64
    fill: do i = 1, n
      d(i) = 20 + mod(i, 3)
    end do
    d(37) = 2
    lp: do i = 1, n
      k = 0
      while (k < 12 / (d(i) - k))
        k = k + 1
      end while
      x(i) = k * 0.5
    end do
  end)";
  struct Case {
    const char *Name;
    const char *Source;
    FaultKind Kind;
    unsigned Loops; ///< Loops run, all of them lowered under the VM.
  };
  for (const Case &C :
       {Case{"stack-overflow", StackOverflow, FaultKind::OutOfBounds, 3},
        Case{"div-in-condition", DivInCondition, FaultKind::DivByZero, 2}}) {
    Harness H(C.Source);
    const DoStmt *L = H.P->findLoop("lp");
    ASSERT_NE(L, nullptr);
    ASSERT_NE(H.Plan.planFor(L), nullptr) << C.Name;
    for (unsigned T : {1u, 4u}) {
      std::string Want;
      for (ExecEngine E : {ExecEngine::Interp, ExecEngine::Vm}) {
        std::string Ctx = std::string(C.Name) + "/T=" + std::to_string(T) +
                          "/" + engineName(E);
        Interpreter I(*H.P);
        ExecStats Stats;
        I.run(H.baseOptions(T, Schedule::Static, E), &Stats);
        const FaultState &FS = I.faultState();
        ASSERT_TRUE(FS.Faulted) << Ctx;
        EXPECT_EQ(FS.Fault.Kind, C.Kind) << Ctx;
        EXPECT_EQ(FS.Fault.Loop, "lp") << Ctx;
        EXPECT_EQ(FS.Fault.Iteration, 37) << Ctx;
        EXPECT_EQ(FS.Fault.DuringReplay, T > 1) << Ctx;
        EXPECT_EQ(FS.Rollbacks, T > 1 ? 1u : 0u) << Ctx;
        EXPECT_EQ(Stats.VmLoopsCompiled, E == ExecEngine::Vm ? C.Loops : 0u)
            << Ctx;
        if (Want.empty())
          Want = FS.Fault.str();
        else
          EXPECT_EQ(FS.Fault.str(), Want) << Ctx;
      }
    }
  }
}

} // namespace
