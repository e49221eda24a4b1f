//===- tests/test_locality.cpp - Locality-aware scheduling tests ----------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// Tests for locality-aware scheduling: the --locality knob's names; the
/// inspector's iteration-reorder pass (bijection, line bucketing,
/// last-iteration pinning, refusal cases); checksum bit-identity across
/// every --locality mode x schedule x thread count; verdict/permutation
/// cache reuse across invocations; and fault containment under a reordered
/// dispatch (rollback + serial replay with original-order iteration
/// attribution).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "interp/Inspector.h"
#include "interp/Interpreter.h"
#include "sched/Locality.h"
#include "verify/FaultInjector.h"
#include "xform/Parallelizer.h"

#include <set>
#include <vector>

using namespace iaa;
using namespace iaa::interp;
using namespace iaa::mf;
using iaa::test::parseOrDie;

namespace {

const Schedule AllSchedules[] = {Schedule::Static, Schedule::Dynamic,
                                 Schedule::Guided};
const unsigned ThreadCounts[] = {1, 2, 4, 7};
const sched::LocalityMode AllModes[] = {sched::LocalityMode::Off,
                                        sched::LocalityMode::Reorder};

/// Gather/scatter whose index array is a permutation of 1..n at run time
/// but opaque to the static analysis: parallel only via inspection.
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

/// CCS-style segment kernel needing the monotone + offset-length checks
/// (colcnt written through an identity permutation keeps the recurrence
/// solver from proving the colptr build statically).
const char *CcsScale = R"(program t
    integer i, j, n
    integer colptr(101), colcnt(100), perm(100)
    real vals(800)
    n = 100
    colptr(1) = 1
    mkperm: do i = 1, n
      perm(i) = i
    end do
    build: do i = 1, n
      colcnt(perm(i)) = mod(i * 5, 7) + 1
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

  /// Runtime-checked run under the given locality mode; fills \p Stats.
  double run(sched::LocalityMode L, unsigned Threads, Schedule S,
             ExecStats *Stats = nullptr) {
    Interpreter I(*P);
    ExecOptions Opts;
    Opts.Plans = &Plan;
    Opts.Threads = Threads;
    Opts.Sched = S;
    Opts.MinParallelWork = 0;
    Opts.RuntimeChecks = true;
    Opts.Locality = L;
    Memory M = I.run(Opts, Stats);
    EXPECT_FALSE(I.faultState().Faulted) << I.faultState().str();
    return M.checksumExcluding(deadPrivateIds(Plan));
  }
};

//===----------------------------------------------------------------------===//
// The --locality knob
//===----------------------------------------------------------------------===//

TEST(LocalityMode, ParsesAndNamesModes) {
  sched::LocalityMode M;
  EXPECT_TRUE(sched::parseLocalityMode("off", M));
  EXPECT_EQ(M, sched::LocalityMode::Off);
  EXPECT_TRUE(sched::parseLocalityMode("reorder", M));
  EXPECT_EQ(M, sched::LocalityMode::Reorder);
  EXPECT_FALSE(sched::parseLocalityMode("reoder", M));
  EXPECT_FALSE(sched::parseLocalityMode("model", M));
  EXPECT_STREQ(sched::localityModeName(sched::LocalityMode::Off), "off");
  EXPECT_STREQ(sched::localityModeName(sched::LocalityMode::Reorder),
               "reorder");
}

//===----------------------------------------------------------------------===//
// Inspector reorder pass
//===----------------------------------------------------------------------===//

/// A bare program whose arrays the tests fill by hand.
struct ReorderFixture {
  std::unique_ptr<Program> P;
  Memory Mem;
  const Symbol *Ind, *X;

  ReorderFixture()
      : P(parseOrDie(R"(program t
          integer ind(16)
          real x(8)
        end)")),
        Mem(*P), Ind(P->findSymbol("ind")), X(P->findSymbol("x")) {}

  void setInd(std::vector<int64_t> V) {
    Buffer &B = Mem.buffer(Ind);
    for (size_t I = 0; I < V.size(); ++I)
      B.I[I] = V[I];
  }

  deptest::RuntimeCheck check() const {
    deptest::RuntimeCheck C;
    C.Kind = deptest::RuntimeCheckKind::InjectiveOnRange;
    C.Index = Ind;
    return C;
  }
};

TEST(LocalityReorder, BucketsByLineAndPinsLastIteration) {
  ReorderFixture F;
  // Targets alternate between line 2 (values 9..12) and line 0 (1..4)
  // at 4 elements per line; iteration 8's target lands on line 0.
  F.setInd({9, 1, 10, 2, 11, 3, 12, 4});
  ReorderOutcome O =
      buildIterationReorder(F.check(), F.Mem, 1, 8, /*LineElems=*/4);
  ASSERT_NE(O.Order, nullptr) << O.Detail;
  // Stable bucket sort of iterations 1..7 by target line, then 8 pinned.
  EXPECT_EQ(*O.Order, (std::vector<int64_t>{2, 4, 6, 1, 3, 5, 7, 8}));
  EXPECT_EQ(O.LinesTouched, 2u);
}

TEST(LocalityReorder, OrderIsAlwaysABijectionWithUpLast) {
  ReorderFixture F;
  F.setInd({7, 7, 1, 3, 3, 8, 2, 5, 4, 6, 1, 2});
  for (int64_t Up : {2, 5, 12}) {
    ReorderOutcome O =
        buildIterationReorder(F.check(), F.Mem, 1, Up, /*LineElems=*/4);
    ASSERT_NE(O.Order, nullptr) << O.Detail;
    ASSERT_EQ(O.Order->size(), size_t(Up));
    EXPECT_EQ(O.Order->back(), Up)
        << "original last iteration must run last";
    std::set<int64_t> Seen(O.Order->begin(), O.Order->end());
    EXPECT_EQ(Seen.size(), size_t(Up));
    EXPECT_EQ(*Seen.begin(), 1);
    EXPECT_EQ(*Seen.rbegin(), Up);
  }
}

TEST(LocalityReorder, RefusesUnreorderableShapes) {
  ReorderFixture F;
  F.setInd({1, 2, 3, 4, 5, 6, 7, 8});

  // Fewer than two iterations: nothing to reorder.
  ReorderOutcome One = buildIterationReorder(F.check(), F.Mem, 3, 3, 8);
  EXPECT_EQ(One.Order, nullptr);
  EXPECT_FALSE(One.Detail.empty());

  // A window that is not a 1:1 map of the iteration space.
  deptest::RuntimeCheck Shifted = F.check();
  Shifted.LoAdjust = 0;
  Shifted.UpAdjust = 1;
  EXPECT_EQ(buildIterationReorder(Shifted, F.Mem, 1, 8, 8).Order, nullptr);

  // No index array at all.
  deptest::RuntimeCheck NoIndex;
  NoIndex.Kind = deptest::RuntimeCheckKind::InjectiveOnRange;
  EXPECT_EQ(buildIterationReorder(NoIndex, F.Mem, 1, 8, 8).Order, nullptr);

  // A real-typed buffer cannot drive the bucketing.
  deptest::RuntimeCheck RealIdx = F.check();
  RealIdx.Index = F.X;
  EXPECT_EQ(buildIterationReorder(RealIdx, F.Mem, 1, 8, 8).Order, nullptr);

  // The window reaches past the index array's extent.
  EXPECT_EQ(buildIterationReorder(F.check(), F.Mem, 1, 20, 8).Order,
            nullptr);
}

//===----------------------------------------------------------------------===//
// Checksum bit-identity across modes x schedules x threads
//===----------------------------------------------------------------------===//

TEST(LocalityChecksum, BitIdenticalAcrossModesSchedulesAndThreads) {
  for (const char *Source : {PermutationScatter, CcsScale}) {
    Harness H(Source);
    const double Want = H.serialChecksum();
    for (sched::LocalityMode L : AllModes)
      for (Schedule S : AllSchedules)
        for (unsigned T : ThreadCounts) {
          ExecStats Stats;
          const double Got = H.run(L, T, S, &Stats);
          EXPECT_EQ(Got, Want)
              << "locality=" << sched::localityModeName(L)
              << " sched=" << scheduleName(S) << " T=" << T;
          if (L == sched::LocalityMode::Reorder && T >= 2) {
            EXPECT_GE(Stats.LocalityReorders + Stats.LocalityReordersCached,
                      1u)
                << "reorder mode must permute the inspected gather (T=" << T
                << ")";
          }
        }
  }
}

//===----------------------------------------------------------------------===//
// Permutation caching across invocations
//===----------------------------------------------------------------------===//

TEST(LocalityCache, SecondInvocationReusesVerdictAndPermutation) {
  // The scat loop runs twice; ind is untouched in between (only x, which
  // is not a check source, changes), so the second invocation must reuse
  // both the cached inspection verdict and the cached permutation.
  Harness H(R"(program t
    integer i, k, n
    integer ind(1000)
    real x(1000), y(1000)
    n = 1000
    init: do i = 1, n
      ind(i) = mod(i * 7, n) + 1
      x(i) = i * 0.5
      y(i) = mod(i, 9) * 0.25
    end do
    outer: do k = 1, 2
      scat: do i = 1, n
        x(ind(i)) = x(ind(i)) + y(i) * 0.5
      end do
    end do
  end)");
  const double Want = H.serialChecksum();
  ExecStats Stats;
  EXPECT_EQ(H.run(sched::LocalityMode::Reorder, 4, Schedule::Static, &Stats),
            Want);
  EXPECT_EQ(Stats.InspectionsRun, 1u);
  EXPECT_EQ(Stats.InspectionsCached, 1u);
  EXPECT_EQ(Stats.LocalityReorders, 1u);
  EXPECT_EQ(Stats.LocalityReordersCached, 1u);
}

//===----------------------------------------------------------------------===//
// Fault containment under a reordered dispatch
//===----------------------------------------------------------------------===//

TEST(LocalityFaultReplay, ReorderedLoopRollsBackAndReplaysBitIdentically) {
  Harness H(PermutationScatter);
  const double Want = H.serialChecksum();
  // Fault original iteration 500 mid-chunk, parallel dispatch only: the
  // reordered loop must roll back and the serial (source-order) replay
  // must recover bit-identical results.
  verify::FaultInjector Inj;
  Inj.faultAt("scat", 500, /*ParallelOnly=*/true);
  Interpreter I(*H.P);
  ExecOptions Opts;
  Opts.Plans = &H.Plan;
  Opts.Threads = 4;
  Opts.MinParallelWork = 0;
  Opts.RuntimeChecks = true;
  Opts.Locality = sched::LocalityMode::Reorder;
  Opts.Injector = &Inj;
  ExecStats Stats;
  Memory M = I.run(Opts, &Stats);
  const FaultState &FS = I.faultState();
  EXPECT_FALSE(FS.Faulted) << FS.str();
  EXPECT_GE(FS.FaultsObserved, 1u);
  EXPECT_EQ(FS.Rollbacks, 1u);
  EXPECT_EQ(FS.Replays, 1u);
  EXPECT_EQ(FS.ReplaysRecovered, 1u);
  EXPECT_EQ(Stats.LocalityReorders, 1u)
      << "the faulting dispatch must actually have been reordered";
  EXPECT_EQ(M.checksumExcluding(deadPrivateIds(H.Plan)), Want)
      << "recovered reordered run must be bit-identical to serial";
}

TEST(LocalityFaultReplay, ReplayAttributesOriginalIterationOrder) {
  // A poisoned index (entry 500 targets element 2000 of a 1000-element
  // array) vouched for by a lying inspector: the reordered parallel
  // dispatch traps, and the serial replay must attribute the fault to the
  // *original* iteration 500 — permuted positions must never leak into
  // fault reports.
  Harness H(R"(program t
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
  end)");
  const xform::LoopReport *Rep = H.Plan.reportFor("scat");
  ASSERT_NE(Rep, nullptr);
  ASSERT_TRUE(Rep->RuntimeConditional);
  verify::FaultInjector Inj;
  Inj.skipInspectionOf("scat");
  Interpreter I(*H.P);
  ExecOptions Opts;
  Opts.Plans = &H.Plan;
  Opts.Threads = 4;
  Opts.MinParallelWork = 0;
  Opts.RuntimeChecks = true;
  Opts.Locality = sched::LocalityMode::Reorder;
  Opts.Injector = &Inj;
  ExecStats Stats;
  I.run(Opts, &Stats);
  const FaultState &FS = I.faultState();
  ASSERT_TRUE(FS.Faulted);
  const RuntimeFault &F = FS.Fault;
  EXPECT_EQ(F.Kind, FaultKind::OutOfBounds);
  EXPECT_TRUE(F.DuringReplay);
  EXPECT_FALSE(F.InParallel);
  EXPECT_EQ(F.Loop, "scat");
  ASSERT_TRUE(F.HasIteration);
  EXPECT_EQ(F.Iteration, 500);
  ASSERT_TRUE(F.HasValue);
  EXPECT_EQ(F.Value, 2000);
  EXPECT_EQ(FS.Rollbacks, 1u);
  EXPECT_EQ(FS.Replays, 1u);
  EXPECT_EQ(FS.ReplaysRecovered, 0u);
}

} // namespace
