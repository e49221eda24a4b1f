//===- perfbench/src/Pipeline.cpp - One cold source-to-checksum op --------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "interp/Inspector.h"
#include "mf/Parser.h"
#include "support/Casting.h"
#include "support/Diagnostics.h"
#include "verify/PlanAudit.h"

#include <set>

using namespace perfbench;
using namespace iaa;

namespace {

struct Compiled {
  std::unique_ptr<mf::Program> Prog;
  xform::PipelineResult Plans;
  unsigned Certified = 0;
};

/// Parse, parallelize (Full) and audit strictly, timing each call into
/// \p L when traced.
bool compile(const std::string &Source, Compiled &Out, std::string &Err,
             Tracer *T = nullptr, uint64_t OpId = 0, OpLayers *L = nullptr) {
  DiagnosticEngine Diags;
  {
    Scope S(T, "mf.parseProgram", OpId);
    Out.Prog = mf::parseProgram(Source, Diags);
    if (L)
      L->ParseMs = S.end() * 1e3;
  }
  if (!Out.Prog) {
    Err = "parse failed";
    return false;
  }
  {
    Scope S(T, "xform.parallelize", OpId);
    Out.Plans = xform::parallelize(*Out.Prog, xform::PipelineMode::Full);
    if (T)
      T->reported("analysis.property-analysis", Out.Plans.PropertySeconds,
                  OpId);
    if (L)
      L->PipelineMs = S.end() * 1e3;
  }
  if (Out.Plans.ErrorCount) {
    Err = "pipeline reported errors";
    return false;
  }
  {
    Scope S(T, "verify.audit", OpId);
    verify::PlanAuditor Auditor(*Out.Prog);
    verify::AuditResult A = Auditor.audit(Out.Plans);
    verify::recordAudit(Out.Plans, A, verify::AuditMode::Strict);
    Out.Certified = A.numWithVerdict(verify::AuditVerdict::Certified);
    if (L)
      L->AuditMs = S.end() * 1e3;
  }
  return true;
}

/// The value of a loop bound the inspector needs: a literal or a scalar
/// read from memory. False for anything else.
bool boundValue(const mf::Expr *E, const interp::Memory &M, int64_t &V) {
  if (auto *Lit = dyn_cast<mf::IntLit>(E)) {
    V = Lit->value();
    return true;
  }
  if (auto *Ref = dyn_cast<mf::VarRef>(E)) {
    V = M.intScalar(Ref->symbol());
    return true;
  }
  return false;
}

/// Times inspectRuntimeCheck over every conditional plan's checks against
/// the final memory.
double timeInspections(const xform::PipelineResult &Plans,
                       const interp::Memory &M, const OpConfig &C) {
  double Seconds = 0;
  for (const auto &[Loop, Plan] : Plans.Plans) {
    int64_t Lo, Up;
    if (!Plan.RuntimeConditional || Plan.RuntimeChecks.empty() ||
        !boundValue(Loop->lower(), M, Lo) || !boundValue(Loop->upper(), M, Up))
      continue;
    double T0 = nowSeconds();
    for (const deptest::RuntimeCheck &Check : Plan.RuntimeChecks)
      interp::inspectRuntimeCheck(Check, M, Lo, Up, C.Pool, C.Threads);
    Seconds += nowSeconds() - T0;
  }
  return Seconds;
}

/// Seconds of the run spent outside loops dispatched in parallel: the
/// outermost labeled loops with a static plan or a passing inspection.
double serialSeconds(const xform::PipelineResult &Plans,
                     const interp::ExecStats &S) {
  std::set<std::string> Passed;
  for (const auto &D : S.RuntimeDecisions)
    if (D.Pass)
      Passed.insert(D.Loop);
  std::set<const mf::DoStmt *> Parallel, Nested;
  for (const auto &[Loop, Plan] : Plans.Plans)
    if (!Loop->label().empty() &&
        (Plan.Parallel ||
         (Plan.RuntimeConditional && Passed.count(Loop->label()))))
      Parallel.insert(Loop);
  for (const mf::DoStmt *L : Parallel)
    mf::Program::forEachStmtIn(L->body(), [&](mf::Stmt *St) {
      if (auto *D = dyn_cast<mf::DoStmt>(St))
        Nested.insert(D);
    });
  double InParallel = 0;
  for (const mf::DoStmt *L : Parallel) {
    auto It = S.LoopSeconds.find(L->label());
    if (!Nested.count(L) && It != S.LoopSeconds.end())
      InParallel += It->second;
  }
  return std::max(0.0, S.TotalSeconds - InParallel);
}

void countPlans(const xform::PipelineResult &Plans, OpLayers &L) {
  for (const xform::LoopReport &R : Plans.Loops) {
    L.PropertyQueries += R.PropertyQueries;
    auto It = Plans.Plans.find(R.Loop);
    if (It != Plans.Plans.end() && It->second.Parallel)
      ++L.LoopsStatic;
    else if (It != Plans.Plans.end() && It->second.RuntimeConditional)
      ++L.LoopsConditional;
    else
      ++L.LoopsSerial;
  }
}

void recordCompile(const std::string &Source, const Compiled &Cc,
                   OpLayers &L) {
  L.SourceBytes = Source.size();
  L.LoopsCertified = Cc.Certified;
  L.PhaseSeconds = Cc.Plans.PhaseSeconds;
  countPlans(Cc.Plans, L);
}

} // namespace

bool perfbench::compileLayers(const std::string &Source, Tracer *T,
                              uint64_t OpId, OpLayers &L) {
  Scope OpSpan(T, "op", OpId);
  Compiled Cc;
  std::string Err;
  if (!compile(Source, Cc, Err, T, OpId, &L))
    return false;
  recordCompile(Source, Cc, L);
  return true;
}

OpResult perfbench::runOperation(const benchprogs::BenchmarkProgram &Prog,
                                 const OpConfig &C, Tracer *T, uint64_t OpId) {
  OpResult R;
  OpLayers &L = R.Layers;
  Scope OpSpan(T, "op", OpId);
  Compiled Cc;
  if (!compile(Prog.Source, Cc, R.Error, T, OpId, T ? &L : nullptr))
    return R;

  if (T) {
    recordCompile(Prog.Source, Cc, L);
    Scope S(T, "interp.Memory", OpId);
    try {
      interp::Memory Alloc(*Cc.Prog);
    } catch (...) {
      // The run below reports the same fault as a structured failure.
    }
    L.AllocMs = S.end() * 1e3;
  }

  interp::ExecOptions Opts;
  Opts.Plans = &Cc.Plans;
  Opts.Threads = C.Threads;
  Opts.Engine = interp::ExecEngine::Vm;
  Opts.RuntimeChecks = true;
  Opts.Locality = C.Locality;
  Opts.Sched = OpSchedule;
  Opts.SharedPool = C.Pool;
  interp::Interpreter Interp(*Cc.Prog);
  interp::Memory Mem;
  {
    Scope S(T, "interp.Interpreter.run", OpId);
    Mem = Interp.run(Opts, T ? &L.Stats : nullptr);
    L.RunMs = S.end() * 1e3;
  }
  if (Interp.faultState().Faulted) {
    R.Error = Interp.faultState().str();
    return R;
  }
  {
    Scope S(T, "interp.checksumExcluding", OpId);
    R.Checksum = Mem.checksumExcluding(interp::deadPrivateIds(Cc.Plans));
  }
  if (T) {
    Scope S(T, "interp.inspectRuntimeCheck", OpId);
    L.InspectMs = timeInspections(Cc.Plans, Mem, C) * 1e3;
    S.end();
    for (const std::string &Label : Prog.IrregularLoops) {
      auto It = L.Stats.LoopSeconds.find(Label);
      if (It != L.Stats.LoopSeconds.end())
        L.IrregularLoopMs += It->second * 1e3;
    }
    L.SerialMs = serialSeconds(Cc.Plans, L.Stats) * 1e3;
  }
  R.Ok = true;
  return R;
}

bool perfbench::referenceChecksum(const std::string &Source, double &Out,
                                  std::string &Err) {
  Compiled Cc;
  if (!compile(Source, Cc, Err))
    return false;
  interp::Interpreter Interp(*Cc.Prog);
  interp::Memory Mem = Interp.run(interp::ExecOptions{});
  if (Interp.faultState().Faulted) {
    Err = Interp.faultState().str();
    return false;
  }
  Out = Mem.checksumExcluding(interp::deadPrivateIds(Cc.Plans));
  return true;
}

namespace {

/// Ids of \p P's symbols that are scalars or whose names are in \p Skip.
std::set<unsigned> nonArrayOr(const mf::Program &P,
                              const std::set<std::string> &Skip) {
  std::set<unsigned> Ids;
  for (const mf::Symbol *S : P.symbols())
    if (!S->isArray() || Skip.count(S->name()))
      Ids.insert(S->id());
  return Ids;
}

} // namespace

bool perfbench::untransformedArraysAgree(const std::string &Source,
                                         std::string &Why) {
  Compiled Cc;
  DiagnosticEngine Diags;
  std::unique_ptr<mf::Program> Raw = mf::parseProgram(Source, Diags);
  if (!compile(Source, Cc, Why) || !Raw) {
    Why = "does not compile";
    return false;
  }
  std::set<std::string> Dead;
  std::set<unsigned> DeadIds = interp::deadPrivateIds(Cc.Plans);
  for (const mf::Symbol *S : Cc.Prog->symbols())
    if (DeadIds.count(S->id()))
      Dead.insert(S->name());
  interp::Interpreter Ref(*Cc.Prog), Plain(*Raw);
  double A = Ref.run(interp::ExecOptions{})
                 .checksumExcluding(nonArrayOr(*Cc.Prog, Dead));
  double B = Plain.run(interp::ExecOptions{})
                 .checksumExcluding(nonArrayOr(*Raw, Dead));
  if (A != B)
    Why = "arrays digest " + std::to_string(A) + " after the passes, " +
          std::to_string(B) + " without them";
  return A == B;
}

double perfbench::runSeconds(const std::string &Source, unsigned Threads,
                             bool Simulate, interp::WorkerPool *Pool) {
  Compiled Cc;
  std::string Err;
  if (!compile(Source, Cc, Err))
    return 0;
  interp::ExecOptions Opts;
  if (Threads > 1) {
    Opts.Plans = &Cc.Plans;
    Opts.Threads = Threads;
    Opts.RuntimeChecks = true;
    Opts.Simulate = Simulate;
    Opts.SharedPool = Simulate ? nullptr : Pool;
  }
  interp::Interpreter Interp(*Cc.Prog);
  interp::ExecStats Stats;
  Interp.run(Opts, &Stats);
  return Interp.faultState().Faulted ? 0 : Stats.TotalSeconds;
}
