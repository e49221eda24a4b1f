//===- interp/Fault.cpp - Structured runtime faults -----------------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "interp/Fault.h"

using namespace iaa;
using namespace iaa::interp;

const char *interp::faultKindName(FaultKind K) {
  switch (K) {
  case FaultKind::OutOfBounds:    return "out-of-bounds";
  case FaultKind::DivByZero:      return "div-by-zero";
  case FaultKind::BadExtent:      return "bad-extent";
  case FaultKind::BadStep:        return "bad-step";
  case FaultKind::IterationGuard: return "iteration-guard";
  case FaultKind::NoMain:         return "no-main";
  case FaultKind::UnresolvedCall: return "unresolved-call";
  case FaultKind::Unsupported:    return "unsupported";
  case FaultKind::Injected:       return "injected";
  case FaultKind::Internal:       return "internal";
  case FaultKind::DeadlineExceeded:  return "deadline-exceeded";
  case FaultKind::ResourceExhausted: return "resource-exhausted";
  }
  return "?";
}

std::string RuntimeFault::message() const {
  std::string S = faultKindName(Kind);
  if (!Detail.empty())
    S += ": " + Detail;
  if (!Var.empty())
    S += " [" + Var;
  if (HasValue) {
    S += !Var.empty() ? " = " : " [value ";
    S += std::to_string(Value);
    if (Bound != 0)
      S += ", bound " + std::to_string(Bound);
  }
  if (!Var.empty() || HasValue)
    S += "]";
  if (!Loop.empty()) {
    S += " in loop '" + Loop + "'";
    if (HasIteration)
      S += " iteration " + std::to_string(Iteration);
  }
  if (InParallel)
    S += " (worker " + std::to_string(Worker) + ")";
  if (DuringReplay)
    S += " (serial replay)";
  return S;
}

std::string RuntimeFault::str() const {
  std::string S = "runtime fault: " + message();
  S += " at " + (Range.isValid() ? Range.str() : Loc.str());
  return S;
}

Diagnostic RuntimeFault::toDiagnostic() const {
  return {DiagKind::Error, Loc, "runtime fault: " + message(), Range};
}

std::string FaultState::str() const {
  std::string S;
  if (Faulted)
    S = Fault.str();
  else
    S = "no unrecovered fault";
  S += " (" + std::to_string(FaultsObserved) + " observed, " +
       std::to_string(Rollbacks) + " rolled back, " +
       std::to_string(Replays) + " replayed, " +
       std::to_string(ReplaysRecovered) + " recovered)";
  return S;
}
