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
/// mid-chunk fault with rollback + serial replay. Compiler-level tests pin
/// the fusion peepholes and the bailout taxonomy.
///
/// Suite names here start with "Vm" so the CI ThreadSanitizer job's
/// --gtest_filter picks them up.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "benchprogs/Benchmarks.h"
#include "interp/Interpreter.h"
#include "verify/FaultInjector.h"
#include "vm/Bytecode.h"
#include "vm/Compiler.h"
#include "xform/Parallelizer.h"

#include <set>
#include <string>

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
  // While loops (unbounded trip count) are the canonical structural
  // bailout; the xform pre-check and the compiler must agree.
  auto P = parseOrDie(R"(program t
    integer i, n, k
    real x(100)
    n = 100
    lp: do i = 1, n
      k = 1
      while (k < 3)
        x(i) = x(i) + 1.0
        k = k + 1
      end while
    end do
  end)");
  const DoStmt *L = P->findLoop("lp");
  ASSERT_NE(L, nullptr);
  const char *Why = vm::structuralBailout(L);
  ASSERT_NE(Why, nullptr);
  EXPECT_NE(std::string(Why).find("while"), std::string::npos);
  vm::CompileResult R = vm::compileLoop(L, extentsOf(*P));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Bailout, Why);
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

} // namespace
