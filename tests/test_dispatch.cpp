//===- tests/test_dispatch.cpp - One dispatch decision per invocation -----===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// The interpreter makes one dispatch decision per loop invocation, and the
/// --stats dispatch tiers (ExecStats), the per-invocation profile records
/// and the per-label health tiers all report that one decision. Each row of
/// the decision table is a program plus ExecOptions with the expected
/// dispatch kind of every labeled invocation. The test checks the profile's
/// kinds against the row, the health tiers against the tiers the row's
/// kinds belong to (and the health verdict they imply), and — on programs
/// whose loops are all labeled — the ExecStats tiers against the same sums
/// and the fork count against the forking kinds.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "benchprogs/Benchmarks.h"
#include "interp/Interpreter.h"
#include "prof/Profiler.h"
#include "verify/FaultInjector.h"
#include "xform/Parallelizer.h"

#include <array>
#include <map>
#include <string>
#include <vector>

using namespace iaa;
using namespace iaa::interp;
using iaa::test::parseOrDie;
using K = iaa::prof::DispatchKind;

namespace {

/// Two statically parallel loops.
const char *StaticPair = R"(program t
    integer i, n
    real x(1000), y(1000)
    n = 1000
    init: do i = 1, n
      x(i) = i * 0.5
      y(i) = mod(i, 9) * 0.25
    end do
    axpy: do i = 1, n
      x(i) = x(i) + y(i) * 0.5
    end do
  end)";

/// A scatter through a run-time permutation: parallel only after an
/// injectivity inspection passes.
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

/// The same scatter with every index value taken twice: the inspection
/// fails and the loop runs serially.
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

/// A static parallel loop nesting a runtime-conditional one. A replay of
/// outer runs scat serially and unaccounted: no inspection, no fork.
const char *ParallelOverConditional = R"(program t
    integer i, k, n
    integer ind(1000)
    real x(4, 1000), y(1000)
    n = 1000
    init: do i = 1, n
      ind(i) = mod(i * 7, n) + 1
      y(i) = mod(i, 9) * 0.25
    end do
    outer: do k = 1, 4
      scat: do i = 1, n
        x(k, ind(i)) = x(k, ind(i)) + y(i) * 0.5
      end do
    end do
  end)";

/// A parallel loop followed by a carried recurrence, which stays serial.
const char *ParallelThenRecurrence = R"(program t
    integer i, n
    real x(1000), y(1000)
    n = 1000
    init: do i = 1, n
      y(i) = mod(i, 9) * 0.25
    end do
    x(1) = 1.0
    pre: do i = 2, n
      x(i) = x(i - 1) * 0.5 + y(i)
    end do
  end)";

/// One row of the decision table.
struct Row {
  const char *Name;
  std::string Source;
  /// Expected kinds of each labeled loop's invocations, in order.
  std::map<std::string, std::vector<K>> Kinds;
  /// Every loop in the program is labeled, so the health tiers must also
  /// sum to the ExecStats tiers.
  bool AllLabeled = true;
  int64_t MinParallelWork = 0;
  bool RuntimeChecks = false;
  bool RaceCheck = false;
  ExecEngine Engine = ExecEngine::Interp;
  /// Loop and iteration of an injected parallel-only fault, if any.
  const char *FaultLoop = nullptr;
  int64_t FaultIter = 0;
};

/// The tier each kind counts in (static, conditional, serial, replay),
/// written out here as the specification rather than read from the
/// implementation.
unsigned expectedTier(K Kind) {
  switch (Kind) {
  case K::Parallel:
  case K::RaceCheck:
    return 0;
  case K::CondParallel:
  case K::CondSerial:
    return 1;
  case K::Serial:
  case K::SerialSmall:
    return 2;
  case K::Replay:
    return 3;
  }
  return 2;
}

std::vector<Row> decisionTable() {
  std::vector<Row> Rows;
  Rows.push_back({"static parallel",
                  StaticPair,
                  {{"init", {K::Parallel}}, {"axpy", {K::Parallel}}}});

  Row Small{"below the profitability guard",
            StaticPair,
            {{"init", {K::SerialSmall}}, {"axpy", {K::SerialSmall}}}};
  Small.MinParallelWork = 1 << 20;
  Rows.push_back(Small);

  Row Pass{"conditional pass",
           PermutationScatter,
           {{"init", {K::Parallel}}, {"scat", {K::CondParallel}}}};
  Pass.RuntimeChecks = true;
  Rows.push_back(Pass);

  Row Fail{"conditional fail",
           DuplicateScatter,
           {{"init", {K::Parallel}}, {"scat", {K::CondSerial}}}};
  Fail.RuntimeChecks = true;
  Rows.push_back(Fail);

  Row Replay{"replay",
             StaticPair,
             {{"init", {K::Parallel}}, {"axpy", {K::Replay}}}};
  Replay.FaultLoop = "axpy";
  Replay.FaultIter = 500;
  Rows.push_back(Replay);

  // scat runs only inside outer's workers and its replay, so it has no
  // invocation of its own to count or profile.
  Row NestedReplay{"replay nesting a conditional loop",
                   ParallelOverConditional,
                   {{"init", {K::Parallel}}, {"outer", {K::Replay}},
                    {"scat", {}}}};
  NestedReplay.RuntimeChecks = true;
  NestedReplay.FaultLoop = "outer";
  NestedReplay.FaultIter = 2;
  Rows.push_back(NestedReplay);

  Row Race{"race check",
           StaticPair,
           {{"init", {K::RaceCheck}}, {"axpy", {K::RaceCheck}}}};
  Race.RaceCheck = true;
  Rows.push_back(Race);

  // Fig. 1(a): dok nests unlabeled plan-marked loops, which ExecStats
  // counts but the health report cannot see.
  Row Fig1a{"race check, fig. 1(a)",
            benchprogs::fig1aSource(),
            {{"dok", {K::RaceCheck}}}};
  Fig1a.AllLabeled = false;
  Fig1a.RaceCheck = true;
  Rows.push_back(Fig1a);

  Row Vm{"serial loop on the VM",
         ParallelThenRecurrence,
         {{"init", {K::Parallel}}, {"pre", {K::Serial}}}};
  Vm.Engine = ExecEngine::Vm;
  Rows.push_back(Vm);
  return Rows;
}

TEST(DispatchRecord, DecisionTable) {
  for (const Row &R : decisionTable()) {
    SCOPED_TRACE(R.Name);
    std::unique_ptr<mf::Program> P = parseOrDie(R.Source);
    xform::PipelineResult Plans =
        xform::parallelize(*P, xform::PipelineMode::Full);
    verify::FaultInjector Inj;
    if (R.FaultLoop)
      Inj.faultAt(R.FaultLoop, R.FaultIter, /*ParallelOnly=*/true);
    prof::Session Prof;
    ExecOptions Opts;
    Opts.Plans = &Plans;
    Opts.Threads = 4;
    Opts.MinParallelWork = R.MinParallelWork;
    Opts.RuntimeChecks = R.RuntimeChecks;
    Opts.RaceCheck = R.RaceCheck;
    Opts.Engine = R.Engine;
    Opts.Injector = R.FaultLoop ? &Inj : nullptr;
    Opts.Prof = &Prof;
    ExecStats Stats;
    Interpreter I(*P);
    I.run(Opts, &Stats);
    ASSERT_FALSE(I.faultState().Faulted) << I.faultState().str();
    EXPECT_EQ(Stats.RacesFound, 0u);

    std::map<std::string, std::vector<K>> Seen;
    for (const prof::LoopProfile &LP : Prof.invocations()) {
      Seen[LP.Label].push_back(LP.Dispatch.Kind);
      EXPECT_EQ(LP.Dispatch.Engine, engineName(R.Engine)) << LP.Label;
    }
    std::array<unsigned, 4> Sum{};
    unsigned Forks = 0;
    for (const auto &[Label, Kinds] : R.Kinds) {
      SCOPED_TRACE(Label);
      EXPECT_EQ(Seen[Label], Kinds);
      std::array<unsigned, 4> Want{};
      for (K Kind : Kinds) {
        ++Want[expectedTier(Kind)];
        Forks += Kind == K::Parallel || Kind == K::CondParallel ||
                 Kind == K::Replay;
      }
      std::array<unsigned, 4> Got{};
      std::string Verdict = "serial";
      for (const prof::LoopHealth &H : Prof.health(&Plans))
        if (H.Label == Label) {
          Got = {H.DispatchStatic, H.DispatchConditional, H.DispatchSerial,
                 H.DispatchReplay};
          Verdict = H.Verdict;
        }
      EXPECT_EQ(Got, Want) << "health tiers (static, conditional, serial, "
                              "replay)";
      EXPECT_EQ(Verdict, Want[0] || Want[3] ? "parallelized"
                         : Want[1]          ? "conditional"
                                            : "serial");
      for (unsigned T = 0; T < 4; ++T)
        Sum[T] += Want[T];
    }
    if (R.AllLabeled) {
      std::array<unsigned, 4> FromStats = {
          Stats.DispatchStatic, Stats.DispatchConditional,
          Stats.DispatchSerial, Stats.DispatchReplay};
      EXPECT_EQ(FromStats, Sum) << "ExecStats tiers (static, conditional, "
                                   "serial, replay)";
      EXPECT_EQ(Stats.ParallelLoopRuns, Forks)
          << "only the decisions above fork: none inside a worker or a replay";
    }
  }
}

} // namespace
