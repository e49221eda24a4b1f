//===- tests/test_prover_props.cpp - Property-based prover tests ----------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// Soundness sweeps for the symbolic prover: whenever provablyLE/LT returns
/// true for expressions over a bounded variable, exhaustive evaluation over
/// the variable's range must confirm it. (The converse — completeness — is
/// not required; the prover may say "unknown".)
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "symbolic/SymRange.h"

#include <tuple>

using namespace iaa;
using namespace iaa::sym;
using iaa::test::parseOrDie;

namespace {

/// Compare a*i + b against c*i + d for i in [1, N].
class ProverSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(ProverSweep, LEandLTAreSound) {
  auto [A, B, C, D] = GetParam();
  const int N = 10;
  auto P = parseOrDie("program t\ninteger i\ni = 0\nend");
  const mf::Symbol *I = P->findSymbol("i");

  RangeEnv Env;
  Env.bindVar(I, SymRange::of(SymExpr::constant(1), SymExpr::constant(N)));

  SymExpr Lhs = SymExpr::var(I) * A + B;
  SymExpr Rhs = SymExpr::var(I) * C + D;

  bool AllLE = true, AllLT = true;
  for (int It = 1; It <= N; ++It) {
    int64_t L = static_cast<int64_t>(A) * It + B;
    int64_t R = static_cast<int64_t>(C) * It + D;
    AllLE &= L <= R;
    AllLT &= L < R;
  }

  if (provablyLE(Lhs, Rhs, Env)) {
    EXPECT_TRUE(AllLE) << Lhs.str() << " <= " << Rhs.str();
  }
  if (provablyLT(Lhs, Rhs, Env)) {
    EXPECT_TRUE(AllLT) << Lhs.str() << " < " << Rhs.str();
  }
  // The prover must be complete on variable-free differences.
  if (A == C) {
    EXPECT_EQ(provablyLE(Lhs, Rhs, Env), B <= D);
    EXPECT_EQ(provablyLT(Lhs, Rhs, Env), B < D);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProverSweep,
    ::testing::Combine(::testing::Values(-2, 0, 1, 3),
                       ::testing::Values(-4, 0, 5),
                       ::testing::Values(-1, 0, 1, 3),
                       ::testing::Values(-2, 0, 6)));

/// Interval evaluation must contain every concrete value of mixed
/// mod/min/max expressions.
class IntervalSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(IntervalSweep, EvalConstRangeContainsAllValues) {
  auto [M, K] = GetParam();
  const int N = 12;
  auto P = parseOrDie("program t\ninteger i\ni = 0\nend");
  const mf::Symbol *I = P->findSymbol("i");
  RangeEnv Env;
  Env.bindVar(I, SymRange::of(SymExpr::constant(1), SymExpr::constant(N)));

  // E = min(mod(i*K, M) + 1, i) + max(i, 3)
  SymExpr IV = SymExpr::var(I);
  SymExpr E = SymExpr::min(
                  SymExpr::mod(IV * K, SymExpr::constant(M)) + 1, IV) +
              SymExpr::max(IV, SymExpr::constant(3));

  ConstRange R = evalConstRange(E, Env);
  ASSERT_TRUE(R.Lo && R.Hi) << "bounded inputs must give bounded results";
  for (int It = 1; It <= N; ++It) {
    int64_t Mod = (static_cast<int64_t>(It) * K) % M;
    int64_t V = std::min<int64_t>(Mod + 1, It) + std::max<int64_t>(It, 3);
    EXPECT_GE(V, *R.Lo) << "i=" << It;
    EXPECT_LE(V, *R.Hi) << "i=" << It;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, IntervalSweep,
                         ::testing::Combine(::testing::Values(2, 5, 9),
                                            ::testing::Values(1, 3, 7)));

/// Division intervals: conservative containment for positive denominators.
class DivisionSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DivisionSweep, DivRangeContainsAllQuotients) {
  auto [Num, Den] = GetParam();
  auto P = parseOrDie("program t\ninteger i\ni = 0\nend");
  const mf::Symbol *I = P->findSymbol("i");
  RangeEnv Env;
  Env.bindVar(I, SymRange::of(SymExpr::constant(Num), SymExpr::constant(Num + 10)));
  SymExpr E = SymExpr::div(SymExpr::var(I), SymExpr::constant(Den));
  ConstRange R = evalConstRange(E, Env);
  ASSERT_TRUE(R.Lo && R.Hi);
  for (int V = Num; V <= Num + 10; ++V) {
    // MF division truncates toward zero; the interval must contain every
    // truncated quotient exactly.
    int64_t Trunc = V / Den;
    EXPECT_GE(Trunc, *R.Lo) << V << "/" << Den;
    EXPECT_LE(Trunc, *R.Hi) << V << "/" << Den;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, DivisionSweep,
                         ::testing::Combine(::testing::Values(-9, 0, 4),
                                            ::testing::Values(1, 2, 5)));

} // namespace
