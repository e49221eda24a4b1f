//===- deptest/DependenceTest.cpp - Loop dependence testing ---------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "deptest/DependenceTest.h"

#include "support/Statistic.h"
#include "support/Trace.h"
#include "symbolic/SymExpr.h"

#include <map>

using namespace iaa;
using namespace iaa::deptest;
using namespace iaa::analysis;
using namespace iaa::cfg;
using namespace iaa::mf;
using namespace iaa::sec;
using namespace iaa::sym;

#define IAA_STAT_GROUP "deptest"
IAA_STAT(deptest_loops_tested, "Loops run through the dependence tester");
IAA_STAT(deptest_arrays_tested, "Per-array dependence tests performed");
IAA_STAT(deptest_distinct_dim, "Arrays disproved by the distinct-dimension test");
IAA_STAT(deptest_range, "Arrays disproved by the symbolic range test");
IAA_STAT(deptest_offset_length, "Arrays disproved by the offset-length test");
IAA_STAT(deptest_injective, "Arrays disproved by the injective test");
IAA_STAT(deptest_dependent, "Arrays left dependent (no test succeeded)");
IAA_STAT(prop_cache_hits, "Verified-property memo hits (CFD/CFB facts)");
IAA_STAT(prop_cache_misses, "Verified-property memo misses (CFD/CFB facts)");

namespace {

/// Per-kind outcome counters feeding the statistics registry.
void countOutcome(const ArrayDepOutcome &O) {
  ++deptest_arrays_tested;
  if (!O.Independent) {
    ++deptest_dependent;
    return;
  }
  switch (O.Test) {
  case TestKind::None:         break;
  case TestKind::DistinctDim:  ++deptest_distinct_dim; break;
  case TestKind::RangeTest:    ++deptest_range; break;
  case TestKind::OffsetLength: ++deptest_offset_length; break;
  case TestKind::Injective:    ++deptest_injective; break;
  }
}

} // namespace

const char *iaa::deptest::testKindName(TestKind K) {
  switch (K) {
  case TestKind::None:         return "none";
  case TestKind::DistinctDim:  return "distinct-dim";
  case TestKind::RangeTest:    return "range";
  case TestKind::OffsetLength: return "offset-length";
  case TestKind::Injective:    return "injective";
  }
  return "?";
}

const char *iaa::deptest::runtimeCheckKindName(RuntimeCheckKind K) {
  switch (K) {
  case RuntimeCheckKind::InjectiveOnRange:       return "injective-on-range";
  case RuntimeCheckKind::MonotonicNonDecreasing: return "monotonic";
  case RuntimeCheckKind::BoundsWithin:           return "bounds-within";
  case RuntimeCheckKind::OffsetLengthDisjoint:   return "offset-length-disjoint";
  }
  return "?";
}

std::string RuntimeCheck::str() const {
  auto Adj = [](int64_t V) {
    if (V == 0)
      return std::string();
    return (V > 0 ? "+" : "") + std::to_string(V);
  };
  std::string S = runtimeCheckKindName(Kind);
  S += "(" + (Index ? Index->name() : std::string("?"));
  switch (Kind) {
  case RuntimeCheckKind::InjectiveOnRange:
  case RuntimeCheckKind::MonotonicNonDecreasing:
    S += "[lo" + Adj(LoAdjust) + ":up" + Adj(UpAdjust) + "]";
    break;
  case RuntimeCheckKind::BoundsWithin:
    S += "[lo" + Adj(LoAdjust) + ":up" + Adj(UpAdjust) + "] in [" +
         std::to_string(LoBound) + ":" +
         (BoundedArray ? "extent(" + BoundedArray->name() + ")"
                       : std::to_string(UpBound)) +
         "]";
    break;
  case RuntimeCheckKind::OffsetLengthDisjoint:
    S += ", start " + Index->name() + "(i)" + Adj(AccessLo) + ", end";
    if (HasHiLen)
      S += " " + Index->name() + "(i)+" + (Length ? Length->name() : "?") +
           "(i)" + Adj(AccessHiLen);
    if (HasHiConst)
      S += std::string(HasHiLen ? " and" : "") + " " + Index->name() + "(i)" +
           Adj(AccessHiConst);
    break;
  }
  S += ")";
  return S;
}

namespace {

/// Collects array references in \p E (reads).
void collectReads(const Expr *E, std::vector<const mf::ArrayRef *> &Out) {
  switch (E->kind()) {
  case ExprKind::IntLit:
  case ExprKind::RealLit:
  case ExprKind::VarRef:
    return;
  case ExprKind::ArrayRef: {
    const auto *AR = cast<mf::ArrayRef>(E);
    Out.push_back(AR);
    for (const Expr *Sub : AR->subscripts())
      collectReads(Sub, Out);
    return;
  }
  case ExprKind::Unary:
    collectReads(cast<UnaryExpr>(E)->operand(), Out);
    return;
  case ExprKind::Binary:
    collectReads(cast<BinaryExpr>(E)->lhs(), Out);
    collectReads(cast<BinaryExpr>(E)->rhs(), Out);
    return;
  }
}

/// Replaces every occurrence of the atom with key \p Key in \p E by \p Repl.
SymExpr replaceAtom(const SymExpr &E, const std::string &Key,
                    const SymExpr &Repl) {
  SymExpr Out = SymExpr::constant(E.constantTerm());
  for (const auto &[K, Term] : E.terms()) {
    if (K == Key)
      Out = Out + Repl * Term.second;
    else
      Out = Out + SymExpr::atom(Term.first) * Term.second;
  }
  return Out;
}

} // namespace

LoopDepResult
DependenceTester::testLoop(const DoStmt *L,
                           const std::set<const Symbol *> &Privatized) {
  trace::TraceScope Span("dep-test", "deptest");
  if (Span.active() && !L->label().empty())
    Span.arg("loop", L->label());
  ++deptest_loops_tested;
  LoopDepResult R;

  // Gather all accesses grouped by array, with their inner-loop context.
  std::map<const Symbol *, std::vector<Access>, SymbolIdLess> ByArray;
  // Written in an unanalyzable context.
  std::set<const Symbol *, SymbolIdLess> Opaque;
  std::set<const Symbol *> OpaqueReads; // Read in an unanalyzable context.

  std::vector<const DoStmt *> LoopStack;
  std::function<void(const StmtList &)> Walk = [&](const StmtList &Body) {
    for (const Stmt *S : Body) {
      auto AddReads = [&](const Expr *E) {
        std::vector<const mf::ArrayRef *> Reads;
        collectReads(E, Reads);
        for (const mf::ArrayRef *AR : Reads)
          ByArray[AR->array()].push_back({AR, S, false, LoopStack});
      };
      switch (S->kind()) {
      case StmtKind::Assign: {
        const auto *AS = cast<AssignStmt>(S);
        AddReads(AS->rhs());
        if (const mf::ArrayRef *T = AS->arrayTarget()) {
          for (const Expr *Sub : T->subscripts())
            AddReads(Sub);
          ByArray[T->array()].push_back({T, S, true, LoopStack});
        }
        break;
      }
      case StmtKind::If: {
        const auto *IS = cast<IfStmt>(S);
        AddReads(IS->condition());
        Walk(IS->thenBody());
        Walk(IS->elseBody());
        break;
      }
      case StmtKind::Do: {
        const auto *DS = cast<DoStmt>(S);
        AddReads(DS->lower());
        AddReads(DS->upper());
        if (DS->step())
          AddReads(DS->step());
        LoopStack.push_back(DS);
        Walk(DS->body());
        LoopStack.pop_back();
        break;
      }
      case StmtKind::While: {
        const auto *WS = cast<WhileStmt>(S);
        AddReads(WS->condition());
        // Accesses inside a while loop cannot be range-analyzed: written
        // arrays become opaque; read arrays only matter if some other part
        // of the loop writes them (checked below).
        UseSet U = Uses.bodyUses(cast<WhileStmt>(S)->body());
        for (const Symbol *Sym : U.Reads)
          if (Sym->isArray())
            OpaqueReads.insert(Sym);
        for (const Symbol *Sym : U.Writes)
          if (Sym->isArray())
            Opaque.insert(Sym);
        break;
      }
      case StmtKind::Call: {
        const auto *CS = cast<CallStmt>(S);
        const UseSet &U = Uses.procedureUses(CS->callee());
        for (const Symbol *Sym : U.Reads)
          if (Sym->isArray())
            OpaqueReads.insert(Sym);
        for (const Symbol *Sym : U.Writes)
          if (Sym->isArray())
            Opaque.insert(Sym);
        break;
      }
      }
    }
  };
  Walk(L->body());

  // A read inside a while/call is only a problem when the array is written
  // somewhere in the loop.
  UseSet BodyU = Uses.bodyUses(L->body());
  for (const Symbol *X : OpaqueReads)
    if (BodyU.writes(X))
      Opaque.insert(X);

  R.Independent = true;
  for (auto &[X, Accs] : ByArray) {
    if (Privatized.count(X))
      continue;
    bool Written = false;
    for (const Access &A : Accs)
      Written |= A.IsWrite;
    if (!Written && !Opaque.count(X))
      continue; // Read-only arrays carry no dependence.
    ArrayDepOutcome O;
    if (Opaque.count(X)) {
      O.Array = X;
      O.Independent = false;
      O.Detail = "accessed inside a call or while loop";
    } else {
      O = testArray(L, X, Accs, R);
    }
    countOutcome(O);
    R.Independent &= O.Independent;
    R.Arrays.push_back(std::move(O));
  }
  for (const Symbol *X : Opaque) {
    if (ByArray.count(X) || Privatized.count(X))
      continue;
    ArrayDepOutcome O;
    O.Array = X;
    O.Independent = false;
    O.Detail = "accessed inside a call or while loop";
    countOutcome(O);
    R.Independent = false;
    R.Arrays.push_back(std::move(O));
  }
  Span.arg("independent", R.Independent ? "yes" : "no");
  return R;
}

const DependenceTester::CfdFact &
DependenceTester::verifiedDistance(const DoStmt *L, const Symbol *Ptr,
                                   LoopDepResult &R) {
  auto [It, Inserted] = CfdCache.try_emplace(PropKey{Ptr, L});
  if (!Inserted) {
    ++prop_cache_hits;
    return It->second;
  }
  ++prop_cache_misses;
  auto Dist = ClosedFormDistanceChecker::discoverDistance(G.program(), Ptr);
  if (!Dist)
    return It->second;
  ClosedFormDistanceChecker CFD(Ptr, *Dist, Uses);
  Section S = Section::interval(SymExpr::fromAst(L->lower()),
                                SymExpr::fromAst(L->upper()) - 1);
  ++R.PropertyQueries;
  if (Solver.verifyBefore(L, CFD, S).Verified) {
    It->second.Verified = true;
    It->second.Recurrence = CFD.consumedRecurrenceFacts() > 0;
    It->second.Distance = *Dist;
  }
  return It->second;
}

const DependenceTester::CfbFact &
DependenceTester::verifiedBounds(const DoStmt *L, const Symbol *Y,
                                 LoopDepResult &R) {
  auto [It, Inserted] = CfbCache.try_emplace(PropKey{Y, L});
  if (!Inserted) {
    ++prop_cache_hits;
    return It->second;
  }
  ++prop_cache_misses;
  ClosedFormBoundChecker CFB(Y, Uses);
  Section S = Section::interval(SymExpr::fromAst(L->lower()),
                                SymExpr::fromAst(L->upper()) - 1);
  ++R.PropertyQueries;
  if (Solver.verifyBefore(L, CFB, S).Verified) {
    It->second.Verified = true;
    It->second.Bounds = CFB.valueBounds();
  }
  return It->second;
}

bool DependenceTester::accessRange(const Access &A, unsigned Dim, SymExpr &Lo,
                                   SymExpr &Hi) const {
  SymExpr E = SymExpr::fromAst(A.Ref->subscript(Dim));
  Lo = E;
  Hi = E;
  // Sweep the inner loops, innermost first.
  for (auto It = A.InnerLoops.rbegin(); It != A.InnerLoops.rend(); ++It) {
    const DoStmt *DS = *It;
    if (DS->step()) {
      SymExpr Step = SymExpr::fromAst(DS->step());
      if (!Step.isConstant() || Step.constValue() != 1)
        return false;
    }
    SymExpr LB = SymExpr::fromAst(DS->lower());
    SymExpr UB = SymExpr::fromAst(DS->upper());
    SymRange LoSw = rangeOverVar(Lo, DS->indexVar(), LB, UB);
    SymRange HiSw = rangeOverVar(Hi, DS->indexVar(), LB, UB);
    if (!LoSw.Lo.isFinite() || !HiSw.Hi.isFinite())
      return false;
    Lo = LoSw.Lo.E;
    Hi = HiSw.Hi.E;
  }
  return true;
}

ArrayDepOutcome DependenceTester::testArray(const DoStmt *L, const Symbol *X,
                                            const std::vector<Access> &Accs,
                                            LoopDepResult &R) {
  ArrayDepOutcome O;
  O.Array = X;
  const Symbol *I = L->indexVar();
  UseSet BodyW = Uses.bodyUses(L->body());

  RangeEnv Env;
  Consts.bindAll(Env);
  SymExpr LoL = SymExpr::fromAst(L->lower());
  SymExpr UpL = SymExpr::fromAst(L->upper());
  Env.bindVar(I, SymRange::of(LoL, UpL));

  // An expression is iteration-invariant (apart from i itself) when it
  // mentions no symbol the body writes.
  auto InvariantApartFromI = [&](const SymExpr &E) {
    for (const Symbol *W : BodyW.Writes)
      if (W != I && E.references(W))
        return false;
    return true;
  };

  // --- Tier 1: distinct-dimension affine test.
  for (unsigned D = 0; D < X->rank(); ++D) {
    bool AllSame = true;
    std::string Key;
    SymExpr First;
    for (const Access &A : Accs) {
      SymExpr E = SymExpr::fromAst(A.Ref->subscript(D));
      if (Key.empty()) {
        Key = E.key();
        First = E;
      } else if (E.key() != Key) {
        AllSame = false;
        break;
      }
    }
    if (!AllSame || Key.empty())
      continue;
    int64_t Coeff = First.coeffOfVar(I);
    SymExpr Rest = First - SymExpr::var(I) * Coeff;
    if (Coeff != 0 && !Rest.references(I) && InvariantApartFromI(Rest)) {
      O.Independent = true;
      O.Test = TestKind::DistinctDim;
      O.Detail = "dimension " + std::to_string(D + 1) +
                 " is a per-iteration slice";
      return O;
    }
  }

  // Runtime-check obligations that would settle the dependence if an
  // inspector established them for the actual index-array contents.
  // Attached to the outcome only when every static tier fails.
  std::vector<RuntimeCheck> Cands;

  // --- Tier 4 (checked for every rank): identical subscript q(f(i)) in
  // some dimension with q injective over the iteration space. Hoisted here
  // so rank-2 accesses like z(k, ind(j)) benefit from it as well.
  if (EnableIAA) {
    for (unsigned D = 0; D < X->rank(); ++D) {
      bool AllSame = true;
      std::string Key;
      SymExpr First;
      for (const Access &A : Accs) {
        SymExpr E = SymExpr::fromAst(A.Ref->subscript(D));
        if (Key.empty()) {
          Key = E.key();
          First = E;
        } else if (E.key() != Key) {
          AllSame = false;
          break;
        }
      }
      if (!AllSame || Key.empty())
        continue;
      AtomRef A = First.asSingleAtom();
      if (!A || A->kind() != AtomKind::ArrayElem ||
          A->operands().size() != 1)
        continue;
      const Symbol *Q = A->symbol();
      const SymExpr &Sub = A->operands()[0];
      int64_t Coeff = Sub.coeffOfVar(I);
      SymExpr Rest = Sub - SymExpr::var(I) * Coeff;
      if (Coeff == 0 || Rest.references(I) || !InvariantApartFromI(Rest))
        continue;
      SymRange SubRange = rangeOverVar(Sub, I, LoL, UpL);
      if (!SubRange.Lo.isFinite() || !SubRange.Hi.isFinite())
        continue;
      // For the plain gather shape q(i + c) with q untouched by the body,
      // injectivity and bounds are decidable by an O(n) scan of q's
      // contents just before the loop runs. Built up front: they become the
      // conditional plan when the static queries below come back Unknown,
      // and the *fallback* checks when the proof rests on a recurrence
      // fact (a strict audit that cannot re-derive the fact demotes the
      // plan back onto them).
      std::vector<RuntimeCheck> DimCands;
      if (Coeff == 1 && Rest.isConstant() && !BodyW.writes(Q) &&
          Q->elementKind() == ScalarKind::Int && Q->rank() == 1) {
        int64_t Shift = Rest.constValue();
        RuntimeCheck CInj;
        CInj.Kind = RuntimeCheckKind::InjectiveOnRange;
        CInj.Index = Q;
        CInj.LoAdjust = CInj.UpAdjust = Shift;
        RuntimeCheck Bd;
        Bd.Kind = RuntimeCheckKind::BoundsWithin;
        Bd.Index = Q;
        Bd.LoAdjust = Bd.UpAdjust = Shift;
        Bd.LoBound = 1;
        bool HaveBound = false;
        if (X->rank() == 1) {
          Bd.BoundedArray = X;
          HaveBound = true;
        } else if (SymExpr Ext = SymExpr::fromAst(X->extent(D));
                   Ext.isConstant()) {
          Bd.UpBound = Ext.constValue();
          HaveBound = true;
        }
        DimCands.push_back(CInj);
        if (HaveBound)
          DimCands.push_back(Bd);
      }

      InjectivityChecker Inj(Q, Uses);
      ++R.PropertyQueries;
      Section S = Section::interval(SubRange.Lo.E, SubRange.Hi.E);
      PropertyResult PR = Solver.verifyBefore(L, Inj, S);
      if (PR.Verified && Inj.genSites() == 1) {
        bool Rec = Inj.consumedRecurrenceFacts() > 0;
        O.Independent = true;
        O.Test = TestKind::Injective;
        O.PropertiesUsed = {Q->name() + (Rec ? ":INJ-REC" : ":INJ")};
        O.Detail = "subscript " + Q->name() + "(...) is injective";
        if (Rec) {
          O.RecurrenceBacked = true;
          O.FallbackChecks = DimCands;
        }
        return O;
      }
      // Strict monotonicity implies injectivity and is available for
      // recurrence-built arrays that no gather loop produced (a Sec. 3
      // property the paper lists; an extension beyond Table 3's cases).
      MonotonicChecker Mono(Q, /*Strict=*/true, Uses);
      ++R.PropertyQueries;
      Section SM = Section::interval(SubRange.Lo.E, SubRange.Hi.E - 1);
      PropertyResult MR = Solver.verifyBefore(L, Mono, SM);
      if (MR.Verified) {
        bool Rec = Mono.consumedRecurrenceFacts() > 0;
        O.Independent = true;
        O.Test = TestKind::Injective;
        O.PropertiesUsed = {Q->name() + (Rec ? ":MONO-REC" : ":MONO")};
        O.Detail = "subscript " + Q->name() + "(...) is strictly increasing";
        if (Rec) {
          O.RecurrenceBacked = true;
          O.FallbackChecks = DimCands;
        }
        return O;
      }
      // Neither injectivity nor strict monotonicity was provable from the
      // program text (Unknown, not disproven): record the obligations so
      // the planner can emit a runtime-conditional plan.
      Cands.insert(Cands.end(), DimCands.begin(), DimCands.end());
    }
  }

  if (X->rank() != 1) {
    O.Detail = "multi-dimensional access with no distinct dimension";
    O.RuntimeCandidates = std::move(Cands);
    return O;
  }

  // --- Tier 2: symbolic range test over [lo_a(i), hi_a(i)].
  struct Range {
    SymExpr Lo, Hi;
  };
  std::vector<Range> Ranges;
  bool Bounded = true;
  for (const Access &A : Accs) {
    Range Rg;
    if (!accessRange(A, 0, Rg.Lo, Rg.Hi) || !InvariantApartFromI(Rg.Lo) ||
        !InvariantApartFromI(Rg.Hi)) {
      Bounded = false;
      break;
    }
    Ranges.push_back(std::move(Rg));
  }

  auto PairwiseAscending = [&](const RangeEnv &E) {
    for (const Range &A : Ranges)
      for (const Range &B : Ranges) {
        SymExpr NextLo = B.Lo.substituteVar(I, SymExpr::var(I) + 1);
        if (!provablyLT(A.Hi, NextLo, E))
          return false;
      }
    return true;
  };
  auto PairwiseDescending = [&](const RangeEnv &E) {
    for (const Range &A : Ranges)
      for (const Range &B : Ranges) {
        SymExpr NextHi = B.Hi.substituteVar(I, SymExpr::var(I) + 1);
        if (!provablyLT(NextHi, A.Lo, E))
          return false;
      }
    return true;
  };

  if (Bounded && !Ranges.empty() && EnableRangeTest) {
    if (PairwiseAscending(Env) || PairwiseDescending(Env)) {
      O.Independent = true;
      O.Test = TestKind::RangeTest;
      O.Detail = "iteration ranges provably disjoint";
      return O;
    }

    // --- Tier 3: offset-length test (Sec. 3.2.7), IAA only.
    if (EnableIAA) {
      // Candidate index arrays: x() atoms subscripted exactly by i.
      std::set<const Symbol *> Candidates;
      for (const Range &Rg : Ranges)
        for (const SymExpr *E : {&Rg.Lo, &Rg.Hi})
          for (const auto &[Key, Term] : E->terms()) {
            const AtomRef &A = Term.first;
            if (A->kind() == AtomKind::ArrayElem &&
                A->operands().size() == 1 &&
                A->operands()[0].equals(SymExpr::var(I)))
              Candidates.insert(A->symbol());
          }

      // Parses the common CRS/CCS access shape [ptr(i)+a : ptr(i)+len(i)+b]
      // (or a constant-offset end) into its runtime-check obligations:
      // disjointness holds iff ptr is non-decreasing, len non-negative, and
      // each segment ends before the next one starts -- all O(n)
      // inspectable. Used both as the conditional plan when CFD/CFB
      // verification comes back Unknown and as the fallback checks of a
      // recurrence-backed proof.
      auto ParseCrsChecks = [&](const Symbol *Ptr) -> std::vector<RuntimeCheck> {
        if (Ptr->elementKind() != ScalarKind::Int || Ptr->rank() != 1 ||
            BodyW.writes(Ptr))
          return {};
        SymExpr PtrAtI = SymExpr::arrayElem(Ptr, {SymExpr::var(I)});
        const Symbol *Len = nullptr;
        bool Parsed = true, Any = false;
        bool HasHiLen = false, HasHiConst = false;
        int64_t MinLo = 0, MaxHiLen = 0, MaxHiConst = 0;
        for (const Range &Rg : Ranges) {
          SymExpr LoD = Rg.Lo - PtrAtI;
          if (!LoD.isConstant()) {
            Parsed = false;
            break;
          }
          SymExpr HiD = Rg.Hi - PtrAtI;
          int64_t HiC = HiD.constantTerm();
          bool HiLen = false;
          if (!HiD.isConstant()) {
            // The end must be exactly ptr(i) + len(i) + c.
            if (HiD.terms().size() != 1) {
              Parsed = false;
              break;
            }
            const auto &Term = HiD.terms().begin()->second;
            const AtomRef &At = Term.first;
            const Symbol *Y =
                At->kind() == AtomKind::ArrayElem ? At->symbol() : nullptr;
            if (Term.second != 1 || !Y || At->operands().size() != 1 ||
                !At->operands()[0].equals(SymExpr::var(I)) ||
                Y->elementKind() != ScalarKind::Int || Y->rank() != 1 ||
                BodyW.writes(Y) || (Len && Y != Len)) {
              Parsed = false;
              break;
            }
            Len = Y;
            HiLen = true;
          }
          MinLo = Any ? std::min(MinLo, LoD.constValue()) : LoD.constValue();
          Any = true;
          if (HiLen) {
            MaxHiLen = HasHiLen ? std::max(MaxHiLen, HiC) : HiC;
            HasHiLen = true;
          } else {
            MaxHiConst = HasHiConst ? std::max(MaxHiConst, HiC) : HiC;
            HasHiConst = true;
          }
        }
        if (!Parsed || !Any)
          return {};
        RuntimeCheck Mono;
        Mono.Kind = RuntimeCheckKind::MonotonicNonDecreasing;
        Mono.Index = Ptr;
        RuntimeCheck OL;
        OL.Kind = RuntimeCheckKind::OffsetLengthDisjoint;
        OL.Index = Ptr;
        OL.Length = Len;
        OL.AccessLo = MinLo;
        OL.HasHiLen = HasHiLen;
        OL.AccessHiLen = MaxHiLen;
        OL.HasHiConst = HasHiConst;
        OL.AccessHiConst = MaxHiConst;
        return {Mono, OL};
      };

      for (const Symbol *Ptr : Candidates) {
        const CfdFact &Fact = verifiedDistance(L, Ptr, R);
        if (!Fact.Verified)
          continue;
        const SymExpr &Dist = Fact.Distance;

        // Distance non-negativity: either an affine distance with a provable
        // lower bound, or a distance array with a verified CFB lower bound.
        RangeEnv Env2 = Env;
        bool NonNeg = false;
        std::vector<std::string> Props = {Ptr->name() + ":CFD"};
        SymExpr DistAtI =
            Dist.substituteVar(placeholderSymbol(), SymExpr::var(I));
        if (AtomRef DA = DistAtI.asSingleAtom();
            DA && DA->kind() == AtomKind::ArrayElem) {
          const Symbol *Y = DA->symbol();
          const CfbFact &BFact = verifiedBounds(L, Y, R);
          if (BFact.Verified && BFact.Bounds.Lo.isFinite() &&
              provablyNonNegative(BFact.Bounds.Lo.E, Env2)) {
            NonNeg = true;
            Env2.bindArrayValues(Y, BFact.Bounds);
            Props.push_back(Y->name() + ":CFB");
          }
        } else {
          NonNeg = provablyNonNegative(DistAtI, Env2);
        }
        if (!NonNeg)
          continue;

        // Rewrite ptr(i+1) -> ptr(i) + dist(i) in the shifted bounds and
        // retry the pairwise checks.
        std::string ShiftKey =
            Atom::arrayElem(Ptr, {SymExpr::var(I) + 1})->key();
        SymExpr PtrAtI = SymExpr::arrayElem(Ptr, {SymExpr::var(I)});
        SymExpr Rewritten = PtrAtI + DistAtI;
        auto CheckWithRewrite = [&]() {
          for (const Range &A : Ranges)
            for (const Range &B : Ranges) {
              SymExpr NextLo = replaceAtom(
                  B.Lo.substituteVar(I, SymExpr::var(I) + 1), ShiftKey,
                  Rewritten);
              if (!provablyLT(A.Hi, NextLo, Env2))
                return false;
            }
          return true;
        };
        if (CheckWithRewrite()) {
          O.Independent = true;
          O.Test = TestKind::OffsetLength;
          if (Fact.Recurrence)
            Props[0] = Ptr->name() + ":CFD-REC";
          O.PropertiesUsed = std::move(Props);
          O.Detail = "segments of " + Ptr->name() + " provably disjoint";
          if (Fact.Recurrence) {
            O.RecurrenceBacked = true;
            O.FallbackChecks = ParseCrsChecks(Ptr);
          }
          return O;
        }
      }

      // Runtime-checkable fallback: every access range of the common
      // CRS/CCS shape [ptr(i)+a : ptr(i)+len(i)+b] (or a constant-offset
      // end) is disjoint from the next iteration's iff ptr is
      // non-decreasing, len non-negative, and each segment ends before the
      // next one starts -- all O(n) inspectable when CFD/CFB verification
      // came back Unknown. Skipped when tier 4 already recorded an
      // injectivity obligation: that alone discharges the dependence, and
      // the inspector requires every recorded check to pass, so stacking
      // the strictly stronger monotonicity demand on top would reject
      // index data (e.g. a permutation) the weaker obligation accepts.
      if (!Cands.empty())
        Candidates.clear();
      for (const Symbol *Ptr : Candidates) {
        std::vector<RuntimeCheck> Checks = ParseCrsChecks(Ptr);
        if (Checks.empty())
          continue;
        Cands.insert(Cands.end(), Checks.begin(), Checks.end());
        break;
      }
    }
  }

  O.Detail = "no test disproved the dependence";
  O.RuntimeCandidates = std::move(Cands);
  return O;
}
