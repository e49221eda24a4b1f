//===- tests/test_passes_edge.cpp - Normalization pass edge cases ---------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "interp/Interpreter.h"
#include "xform/Parallelizer.h"
#include "xform/Passes.h"

using namespace iaa;
using namespace iaa::mf;
using namespace iaa::xform;
using iaa::test::parseOrDie;

namespace {

/// Every pass must preserve program semantics; check by checksum.
double checksumOf(const Program &P) {
  interp::Interpreter I(P);
  return I.run({}).checksum();
}

TEST(PassesEdge, ForwardSubstPreservesSemanticsEverywhere) {
  const char *Sources[] = {
      // Substitution into an if condition and both branches.
      R"(program t
        integer a, b, c
        real x(10)
        b = 7
        a = b + 1
        if (a > 5) then
          x(1) = a * 1.0
        else
          x(2) = a * 2.0
        end if
        c = a
        x(3) = c * 1.0
      end)",
      // Substitution stops at a conditional redefinition of a dependency.
      R"(program t
        integer a, b, c
        real x(10)
        b = 7
        a = b + 1
        if (b > 3) then
          b = 0
        end if
        c = a
        x(1) = c * 1.0
        x(2) = b * 1.0
      end)",
      // Do-loop bounds use the substituted value captured at entry.
      R"(program t
        integer a, b, i, c
        real x(30)
        b = 3
        a = b * 2
        do i = 1, a
          x(i) = i * 1.0
        end do
        c = i
        x(20) = c * 1.0
      end)",
  };
  for (const char *Src : Sources) {
    auto P1 = parseOrDie(Src);
    double Before = checksumOf(*P1);
    forwardSubstitute(*P1);
    EXPECT_DOUBLE_EQ(checksumOf(*P1), Before) << Src;
  }
}

TEST(PassesEdge, WhileConditionNotSubstitutedWhenBodyWrites) {
  auto P = parseOrDie(R"(program t
    integer i, lim, c
    real x(20)
    lim = 5
    i = lim
    c = 0
    while (i > 0)
      c = c + 1
      i = i - 1
    end while
    x(1) = c * 1.0
  end)");
  double Before = checksumOf(*P);
  forwardSubstitute(*P);
  EXPECT_DOUBLE_EQ(checksumOf(*P), Before)
      << "substituting `i = lim` into the while condition would loop forever";
}

TEST(PassesEdge, ConstPropIntoAllExpressionPositions) {
  auto P = parseOrDie(R"(program t
    integer n, i, a
    real x(100)
    n = 10
    do i = 1, n
      if (i < n) then
        x(i) = n * 1.0
      end if
    end do
    a = n
    x(50) = a * 1.0
  end)");
  double Before = checksumOf(*P);
  unsigned Changes = propagateConstants(*P);
  EXPECT_GE(Changes, 4u); // Bound, condition, RHS, copy.
  EXPECT_DOUBLE_EQ(checksumOf(*P), Before);
}

TEST(PassesEdge, DcePreservesSemantics) {
  auto P = parseOrDie(R"(program t
    integer a, b, c
    real x(10)
    a = 1
    b = a + 2
    c = b * 3
    x(1) = 5.0
  end)");
  unsigned Removed = eliminateDeadCode(*P);
  EXPECT_EQ(Removed, 3u) << "the whole dead chain must fold";
  // Live state (the array) is untouched; the dead scalars simply stay zero.
  interp::Interpreter I(*P);
  interp::Memory M = I.run({});
  EXPECT_DOUBLE_EQ(M.buffer(P->findSymbol("x")).D[0], 5.0);
  EXPECT_EQ(M.intScalar(P->findSymbol("c")), 0);
}

TEST(PassesEdge, DceKeepsConditionReads) {
  auto P = parseOrDie(R"(program t
    integer a
    real x(10)
    a = 1
    if (a > 0) then
      x(1) = 1.0
    end if
  end)");
  EXPECT_EQ(eliminateDeadCode(*P), 0u)
      << "a is read by the condition and must stay";
}

TEST(PassesEdge, DceKeepsLoopBoundReads) {
  auto P = parseOrDie(R"(program t
    integer a, i
    real x(10)
    a = 5
    do i = 1, a
      x(i) = 1.0
    end do
  end)");
  EXPECT_EQ(eliminateDeadCode(*P), 0u);
}

TEST(PassesEdge, DceKeepsArrayExtentReads) {
  auto P = parseOrDie(R"(program t
    integer n
    real x(n)
    n = 5
    x(1) = 1.0
  end)");
  EXPECT_EQ(eliminateDeadCode(*P), 0u)
      << "n sizes x, so its assignment must stay";
}

TEST(PassesEdge, PipelineKeepsTheAssignmentAnExtentReads) {
  // Constant propagation rewrites the loop bound to 9 / 2, leaving the
  // extent of a as the only read of n; dropping n = 9 then made the
  // pipelined program fault bad-extent while the unchanged one ran.
  const char *Source = R"(program t
    integer i, n
    real a(n / 2)
    n = 9
    do i = 1, n / 2
      a(i) = i
    end do
  end)";
  double Want = checksumOf(*parseOrDie(Source));
  auto P = parseOrDie(Source);
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  interp::Interpreter I(*P);
  interp::ExecOptions Opts;
  Opts.Plans = &R;
  interp::Memory M = I.run(Opts);
  ASSERT_FALSE(I.faultState().Faulted) << I.faultState().str();
  EXPECT_EQ(M.checksum(), Want);
}

TEST(PassesEdge, InductionSubstitutionPreservesSemantics) {
  auto P = parseOrDie(R"(program t
    integer i, n, p
    real x(100), y(100)
    n = 50
    p = 0
    do i = 1, n
      p = p + 1
      x(p) = i * 1.0
    end do
    y(1) = p * 1.0
  end)");
  double Before = checksumOf(*P);
  EXPECT_EQ(substituteInductions(*P), 1u);
  EXPECT_DOUBLE_EQ(checksumOf(*P), Before)
      << "the increment stays, so p's final value is unchanged";
}

TEST(PassesEdge, InductionSkipsNonUnitCoefficient) {
  auto P = parseOrDie(R"(program t
    integer i, n, p
    real x(200)
    n = 50
    p = 0
    do i = 1, n
      p = p + 3
      x(p) = 1.0
    end do
  end)");
  // Step 3 is supported (delta constant), so this *does* substitute.
  EXPECT_EQ(substituteInductions(*P), 1u);
  auto *Loop = cast<DoStmt>(P->mainProcedure()->body()[2]);
  const auto *AS = cast<AssignStmt>(Loop->body()[1]);
  sym::SymExpr Sub = sym::SymExpr::fromAst(AS->arrayTarget()->subscript(0));
  EXPECT_EQ(Sub.coeffOfVar(P->findSymbol("i")), 3);
}

TEST(PassesEdge, InductionSkipsMultipleDefs) {
  auto P = parseOrDie(R"(program t
    integer i, n, p
    real x(200)
    n = 50
    p = 0
    do i = 1, n
      p = p + 1
      x(p) = 1.0
      p = p + 1
    end do
  end)");
  EXPECT_EQ(substituteInductions(*P), 0u);
}

TEST(PassesEdge, InductionSkipsNonConstantInit) {
  auto P = parseOrDie(R"(program t
    integer i, n, p, q
    real x(400)
    n = 50
    q = n
    p = q
    do i = 1, n
      p = p + 1
      x(p) = 1.0
    end do
  end)");
  EXPECT_EQ(substituteInductions(*P), 0u)
      << "p's initial value is not a literal after parsing";
}

TEST(PassesEdge, NormalizeRejectsVariableStep) {
  auto P = parseOrDie(R"(program t
    integer i, n, s
    real x(100)
    n = 10
    s = 2
    do i = 1, n, s
      x(i) = 1.0
    end do
  end)");
  DiagnosticEngine Diags;
  EXPECT_FALSE(normalizeProgram(*P, Diags));
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(PassesEdge, NormalizeAcceptsConstantSteps) {
  auto P = parseOrDie(R"(program t
    integer i
    real x(100)
    do i = 1, 99, 2
      x(i) = 1.0
    end do
    do i = 99, 1, -3
      x(i) = 2.0
    end do
  end)");
  DiagnosticEngine Diags;
  EXPECT_TRUE(normalizeProgram(*P, Diags));
}

} // namespace
