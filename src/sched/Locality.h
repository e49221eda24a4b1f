//===- sched/Locality.h - The locality scheduling knob ----------*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `LocalityMode` knob (`mfpar --locality=off|reorder`, the daemon's
/// "locality" field, ExecOptions::Locality). The mechanism it switches on is
/// the inspector's iteration-reorder pass, which buckets a runtime-checked
/// gather's iterations by target cache line; it lives in interp/Inspector.h.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_SCHED_LOCALITY_H
#define IAA_SCHED_LOCALITY_H

#include <string>

namespace iaa {
namespace sched {

/// How much locality machinery the runtime applies to parallel loops.
enum class LocalityMode {
  Off,     ///< Every loop runs in source iteration order.
  Reorder, ///< Runtime-checked gathers that pass inspection run in the
           ///< inspector's order: iterations bucketed by target cache line
           ///< (classic inspector/executor aggregation).
};

inline const char *localityModeName(LocalityMode M) {
  return M == LocalityMode::Reorder ? "reorder" : "off";
}

/// Parses "off" / "reorder"; false on anything else.
inline bool parseLocalityMode(const std::string &Name, LocalityMode &Out) {
  if (Name == "off")
    Out = LocalityMode::Off;
  else if (Name == "reorder")
    Out = LocalityMode::Reorder;
  else
    return false;
  return true;
}

/// Elements per cache line the reorder pass buckets by: 64-byte lines over
/// the interpreter's 8-byte (int64/double) elements. Matches the profiler's
/// default SessionOptions::LineBytes, so the reorder's lines and the
/// profiler's measured lines are the same unit.
constexpr unsigned DefaultLineElems = 8;

} // namespace sched
} // namespace iaa

#endif // IAA_SCHED_LOCALITY_H
