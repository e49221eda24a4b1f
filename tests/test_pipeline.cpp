//===- tests/test_pipeline.cpp - Whole-pipeline analysis tests ------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// These tests pin the paper's headline result: with the irregular array
/// access analyses on, the Table 3 loops of all five programs parallelize;
/// without them, none do.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "benchprogs/Benchmarks.h"
#include "xform/Parallelizer.h"
#include "xform/Passes.h"

#include <algorithm>
#include <random>

using namespace iaa;
using namespace iaa::mf;
using namespace iaa::xform;
using iaa::test::parseOrDie;

namespace {

bool loopParallel(const PipelineResult &R, const std::string &Label) {
  const LoopReport *Rep = R.reportFor(Label);
  return Rep && Rep->Parallel;
}

//===----------------------------------------------------------------------===//
// Normalization passes
//===----------------------------------------------------------------------===//

TEST(Passes, ConstantPropagation) {
  auto P = parseOrDie(R"(program t
    integer n, a
    n = 100
    a = n + 1
  end)");
  unsigned Changes = propagateConstants(*P);
  EXPECT_GE(Changes, 1u);
  const auto *AS = cast<AssignStmt>(P->mainProcedure()->body()[1]);
  sym::SymExpr Rhs = sym::SymExpr::fromAst(AS->rhs());
  EXPECT_TRUE(Rhs.isConstant());
  EXPECT_EQ(Rhs.constValue(), 101);
}

TEST(Passes, ConstPropSkipsMultiplyAssigned) {
  auto P = parseOrDie(R"(program t
    integer n, a
    n = 100
    n = 200
    a = n
  end)");
  propagateConstants(*P);
  const auto *AS = cast<AssignStmt>(P->mainProcedure()->body()[2]);
  EXPECT_FALSE(sym::SymExpr::fromAst(AS->rhs()).isConstant());
}

TEST(Passes, ForwardSubstitution) {
  auto P = parseOrDie(R"(program t
    integer j, jj, n
    integer ind(10)
    real x(10), z(10)
    n = 10
    do j = 1, n
      jj = ind(j)
      z(jj) = x(jj) * 2.0
    end do
  end)");
  unsigned Changes = forwardSubstitute(*P);
  EXPECT_GE(Changes, 1u);
  auto *Loop = cast<DoStmt>(P->mainProcedure()->body()[1]);
  const auto *AS = cast<AssignStmt>(Loop->body()[1]);
  // z(jj) must have become z(ind(j)).
  const auto *T = AS->arrayTarget();
  ASSERT_NE(T, nullptr);
  EXPECT_TRUE(isa<mf::ArrayRef>(T->subscript(0)));
}

TEST(Passes, ForwardSubstitutionStopsAtRedefinition) {
  auto P = parseOrDie(R"(program t
    integer a, b, c, d
    b = 1
    a = b + 1
    b = 99
    c = a
    d = a
  end)");
  forwardSubstitute(*P);
  // c = a could not be replaced by b+1 because b changed.
  const auto *AS = cast<AssignStmt>(P->mainProcedure()->body()[3]);
  sym::SymExpr Rhs = sym::SymExpr::fromAst(AS->rhs());
  // After constant folding "a" may remain symbolic; the point is that it
  // must NOT reference b's stale value: either VarRef(a) or literal 2 via
  // chains, never b + 1.
  EXPECT_FALSE(Rhs.references(P->findSymbol("b")));
}

TEST(Passes, DeadCodeElimination) {
  auto P = parseOrDie(R"(program t
    integer a, b
    real x(5)
    a = 1
    b = a + 2
    x(1) = 1.0
  end)");
  // b is never read: its assignment dies; then a is never read either.
  unsigned Removed = eliminateDeadCode(*P);
  EXPECT_EQ(Removed, 2u);
  EXPECT_EQ(P->mainProcedure()->body().size(), 1u);
}

TEST(Passes, InductionSubstitution) {
  auto P = parseOrDie(R"(program t
    integer i, n, p
    real x(100)
    n = 50
    p = 0
    do i = 1, n
      p = p + 1
      x(p) = 1.0
    end do
  end)");
  unsigned Changes = substituteInductions(*P);
  EXPECT_EQ(Changes, 1u);
  auto *Loop = cast<DoStmt>(P->mainProcedure()->body()[2]);
  const auto *AS = cast<AssignStmt>(Loop->body()[1]);
  // x(p) became x(0 + 1*(i - 1 + 1)) = affine in i.
  sym::SymExpr Sub = sym::SymExpr::fromAst(AS->arrayTarget()->subscript(0));
  EXPECT_EQ(Sub.coeffOfVar(P->findSymbol("i")), 1);
  EXPECT_FALSE(Sub.references(P->findSymbol("p")));
}

TEST(Passes, InductionSubstitutionSkipsConditional) {
  auto P = parseOrDie(R"(program t
    integer i, n, p
    real x(100), y(100)
    n = 50
    p = 0
    do i = 1, n
      if (y(i) > 0) then
        p = p + 1
      end if
      x(p + 1) = 1.0
    end do
  end)");
  EXPECT_EQ(substituteInductions(*P), 0u);
}

//===----------------------------------------------------------------------===//
// Paper figure programs
//===----------------------------------------------------------------------===//

TEST(Pipeline, Fig1aParallelWithIAA) {
  auto P = parseOrDie(benchprogs::fig1aSource());
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  ASSERT_NE(R.reportFor("dok"), nullptr);
  EXPECT_TRUE(loopParallel(R, "dok")) << R.str();
  // x must be privatized via the consecutively-written property.
  const LoopReport *Rep = R.reportFor("dok");
  bool FoundCW = false;
  for (const auto &O : Rep->PrivOutcomes)
    if (O.Array->name() == "x" && O.Privatizable && O.Reason == "CW")
      FoundCW = true;
  EXPECT_TRUE(FoundCW) << R.str();
}

TEST(Pipeline, Fig1aSerialWithoutIAA) {
  auto P = parseOrDie(benchprogs::fig1aSource());
  PipelineResult R = parallelize(*P, PipelineMode::NoIAA);
  EXPECT_FALSE(loopParallel(R, "dok")) << R.str();
}

TEST(Pipeline, Fig1bStackPrivatization) {
  auto P = parseOrDie(benchprogs::fig1bSource());
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  EXPECT_TRUE(loopParallel(R, "doi")) << R.str();
  const LoopReport *Rep = R.reportFor("doi");
  bool FoundStack = false;
  for (const auto &O : Rep->PrivOutcomes)
    if (O.Array->name() == "t" && O.Privatizable && O.Reason == "STACK")
      FoundStack = true;
  EXPECT_TRUE(FoundStack) << R.str();
}

TEST(Pipeline, Fig3OffsetLengthTest) {
  auto P = parseOrDie(benchprogs::fig3Source());
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  EXPECT_TRUE(loopParallel(R, "d200")) << R.str();
  const LoopReport *Rep = R.reportFor("d200");
  bool UsedOffsetLength = false;
  for (const auto &O : Rep->DepOutcomes)
    if (O.Test == deptest::TestKind::OffsetLength)
      UsedOffsetLength = true;
  EXPECT_TRUE(UsedOffsetLength) << R.str();
  // The inner loop is trivially parallel too (distinct j elements).
  EXPECT_TRUE(loopParallel(R, "d300")) << R.str();
}

TEST(Pipeline, Fig14GatherPrivatization) {
  auto P = parseOrDie(benchprogs::fig14Source());
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  EXPECT_TRUE(loopParallel(R, "dok")) << R.str();
  EXPECT_TRUE(loopParallel(R, "doj")) << R.str();
}

//===----------------------------------------------------------------------===//
// The five benchmarks: Table 3's parallelization outcomes
//===----------------------------------------------------------------------===//

struct BenchCase {
  int Index;
  const char *Name;
};

class BenchmarkPipeline : public ::testing::TestWithParam<int> {};

TEST_P(BenchmarkPipeline, IrregularLoopsParallelOnlyWithIAA) {
  auto All = benchprogs::allBenchmarks(/*Scale=*/0.05);
  const benchprogs::BenchmarkProgram &B = All[GetParam()];

  auto P1 = parseOrDie(B.Source);
  PipelineResult Full = parallelize(*P1, PipelineMode::Full);
  for (const std::string &Label : B.IrregularLoops)
    EXPECT_TRUE(loopParallel(Full, Label))
        << B.Name << "/" << Label << " should parallelize with IAA\n"
        << Full.str();

  auto P2 = parseOrDie(B.Source);
  PipelineResult Base = parallelize(*P2, PipelineMode::NoIAA);
  for (const std::string &Label : B.IrregularLoops)
    EXPECT_FALSE(loopParallel(Base, Label))
        << B.Name << "/" << Label << " must stay serial without IAA";

  auto P3 = parseOrDie(B.Source);
  PipelineResult Apo = parallelize(*P3, PipelineMode::Apo);
  for (const std::string &Label : B.IrregularLoops)
    EXPECT_FALSE(loopParallel(Apo, Label))
        << B.Name << "/" << Label << " must stay serial under APO";
}

std::string pipelineCaseName(const ::testing::TestParamInfo<int> &Info) {
  static const char *Names[] = {"TRFD", "DYFESM", "BDNA", "P3M", "TREE"};
  return Names[Info.param];
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkPipeline,
                         ::testing::Values(0, 1, 2, 3, 4), pipelineCaseName);

TEST(Pipeline, TrfdUsesClosedFormDistance) {
  auto B = benchprogs::trfd(0.05);
  auto P = parseOrDie(B.Source);
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  const LoopReport *Rep = R.reportFor("do140");
  ASSERT_NE(Rep, nullptr);
  bool UsedCFD = false;
  for (const auto &O : Rep->DepOutcomes)
    for (const std::string &Prop : O.PropertiesUsed)
      if (Prop.find("CFD") != std::string::npos)
        UsedCFD = true;
  EXPECT_TRUE(UsedCFD) << R.str();
  // TRFD's ia() additionally has a constant base: the paper reports CFV.
  EXPECT_TRUE(analysis::ClosedFormDistanceChecker::hasConstantBase(
      *P, P->findSymbol("ia")));
}

TEST(Pipeline, DyfesmUsesOffsetLengthWithCfb) {
  auto B = benchprogs::dyfesm(0.05);
  auto P = parseOrDie(B.Source);
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  const LoopReport *Rep = R.reportFor("do4");
  ASSERT_NE(Rep, nullptr);
  bool OffsetLength = false, UsedCfb = false;
  for (const auto &O : Rep->DepOutcomes) {
    if (O.Test == deptest::TestKind::OffsetLength)
      OffsetLength = true;
    for (const std::string &Prop : O.PropertiesUsed)
      if (Prop.find("CFB") != std::string::npos)
        UsedCfb = true;
  }
  EXPECT_TRUE(OffsetLength) << R.str();
  EXPECT_TRUE(UsedCfb) << R.str();
  // pptr has no constant base (runtime istart): CFD, not CFV.
  EXPECT_FALSE(analysis::ClosedFormDistanceChecker::hasConstantBase(
      *P, P->findSymbol("pptr")));
}

TEST(Pipeline, BdnaPrivatizesThroughCfb) {
  auto B = benchprogs::bdna(0.05);
  auto P = parseOrDie(B.Source);
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  const LoopReport *Rep = R.reportFor("do240");
  ASSERT_NE(Rep, nullptr);
  bool XdtViaCfb = false, IndViaCw = false;
  for (const auto &O : Rep->PrivOutcomes) {
    if (O.Array->name() == "xdt" && O.Privatizable &&
        O.Reason == "CFB-indirect")
      XdtViaCfb = true;
    if (O.Array->name() == "ind" && O.Privatizable && O.Reason == "CW")
      IndViaCw = true;
  }
  EXPECT_TRUE(XdtViaCfb) << R.str();
  EXPECT_TRUE(IndViaCw) << R.str();
  // The gather loop itself stays serial (carried counter).
  EXPECT_FALSE(loopParallel(R, "do236"));
}

TEST(Pipeline, TreePrivatizesStack) {
  auto B = benchprogs::tree(0.05);
  auto P = parseOrDie(B.Source);
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  const LoopReport *Rep = R.reportFor("do10");
  ASSERT_NE(Rep, nullptr);
  EXPECT_TRUE(Rep->Parallel) << R.str();
  bool StackPriv = false;
  for (const auto &O : Rep->PrivOutcomes)
    if (O.Array->name() == "stack" && O.Privatizable && O.Reason == "STACK")
      StackPriv = true;
  EXPECT_TRUE(StackPriv) << R.str();
}

TEST(Pipeline, ReductionRecognition) {
  auto P = parseOrDie(R"(program t
    integer i, n
    real s
    real x(100)
    n = 100
    do i = 1, n
      x(i) = i * 0.5
    end do
    red: do i = 1, n
      s = s + x(i)
    end do
  end)");
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  const LoopReport *Rep = R.reportFor("red");
  ASSERT_NE(Rep, nullptr);
  EXPECT_TRUE(Rep->Parallel) << R.str();
  EXPECT_EQ(Rep->Reductions.size(), 1u);
}

TEST(Pipeline, ApoRejectsReductions) {
  auto P = parseOrDie(R"(program t
    integer i, n
    real s
    real x(100)
    n = 100
    red: do i = 1, n
      s = s + x(i)
    end do
  end)");
  PipelineResult R = parallelize(*P, PipelineMode::Apo);
  EXPECT_FALSE(loopParallel(R, "red"));
}

TEST(Pipeline, CarriedScalarBlocks) {
  auto P = parseOrDie(R"(program t
    integer i, n
    real s
    real x(100)
    n = 100
    carry: do i = 1, n
      x(i) = s * 0.5
      s = x(i) + 1.0
    end do
  end)");
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  EXPECT_FALSE(loopParallel(R, "carry")) << R.str();
}

TEST(Pipeline, TrueArrayDependenceBlocks) {
  auto P = parseOrDie(R"(program t
    integer i, n
    real x(101)
    n = 100
    rec: do i = 1, n
      x(i + 1) = x(i) * 0.5 + 1.0
    end do
  end)");
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  EXPECT_FALSE(loopParallel(R, "rec")) << R.str();
}

//===----------------------------------------------------------------------===//
// Determinism
//===----------------------------------------------------------------------===//

/// Several dependent arrays, several privatizable arrays, and two carried
/// scalars: each report lists more than one symbol, and each serial reason
/// must pick one of several candidates.
const char *ManySymbols = R"(program t
    integer i, j, n
    real a(101), b(101), c(101), d(10), e(10), f(10), s, u
    n = 100
    init: do i = 1, n
      a(i) = i * 0.5
      b(i) = i * 0.25
      c(i) = i * 0.125
    end do
    deps: do i = 2, n
      a(i) = a(i - 1) + 1.0
      b(i) = b(i - 1) * 0.5
      c(i) = c(i - 1) + a(i)
    end do
    privs: do i = 1, n
      do j = 1, 10
        d(j) = i + j
        e(j) = i * j
        f(j) = i - j
      end do
      do j = 1, 10
        c(i) = c(i) + d(j) + e(j) + f(j)
      end do
    end do
    scal: do i = 1, n
      s = s * 0.5 + a(i)
      u = u * 2.0 + b(i)
      c(i) = s + u
    end do
  end)";

/// Frees blocks the size of an mf::Symbol in a seeded shuffled order, so the
/// next program's symbols come back from the allocator at addresses that
/// follow neither declaration order nor the previous program's.
void scrambleSymbolHeap(unsigned Seed) {
  std::vector<std::unique_ptr<char[]>> Blocks;
  for (int K = 0; K < 64; ++K)
    Blocks.push_back(std::make_unique<char[]>(sizeof(Symbol)));
  std::mt19937 Rng(Seed);
  std::shuffle(Blocks.begin(), Blocks.end(), Rng);
  for (auto &B : Blocks)
    B.reset();
}

TEST(PipelineDeterminism, ReportIndependentOfSymbolAddresses) {
  for (PipelineMode Mode : {PipelineMode::Full, PipelineMode::NoIAA,
                            PipelineMode::Apo}) {
    std::string RefReport, RefRemarks;
    for (unsigned Round = 0; Round < 8; ++Round) {
      scrambleSymbolHeap(Round);
      auto P = parseOrDie(ManySymbols);
      PipelineResult R = parallelize(*P, Mode);
      if (Round == 0) {
        RefReport = R.str();
        RefRemarks = remarksJsonl(R.Remarks);
        continue;
      }
      EXPECT_EQ(R.str(), RefReport) << "round " << Round;
      EXPECT_EQ(remarksJsonl(R.Remarks), RefRemarks) << "round " << Round;
    }
  }
}

} // namespace
