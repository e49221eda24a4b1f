//===- vm/Vm.h - Register-bytecode executor for loop chunks -----*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a LoopProgram over one iteration range: a dispensed parallel
/// chunk or a whole serial loop. The VM is a drop-in replacement for the
/// interpreter's per-iteration tree walk inside its range executor: the
/// surrounding machinery — WorkerPool, ChunkDispenser, privatization
/// overrides, locality reordering, fault containment — is untouched. Slot
/// pointers are resolved once per range (override else shared buffer),
/// which is where the speedup comes from; faults raise the same structured
/// FaultException the tree walk would, so the trap / rollback /
/// serial-replay pipeline works on VM ranges unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_VM_VM_H
#define IAA_VM_VM_H

#include "interp/Interpreter.h"
#include "vm/Bytecode.h"

#include <cstdint>
#include <unordered_map>

namespace iaa {

namespace prof {
class LoopRecorder;
} // namespace prof

namespace vm {

/// Everything one range execution needs from the interpreter's dispatch
/// context. Pointers alias interpreter-owned state; the VM only reads the
/// configuration and writes through the resolved buffers (and the sampling
/// countdown and loop counter).
struct ChunkContext {
  interp::Memory *Mem = nullptr;
  /// The worker's privatization overrides (null when none).
  std::unordered_map<unsigned, interp::Buffer> *Overrides = nullptr;
  /// Locality permutation: dispensed position -> original iteration
  /// (null when executing in dispensed order).
  const std::vector<int64_t> *Order = nullptr;
  int64_t Lo = 0;    ///< Loop lower bound (Order is indexed by Pos - Lo).
  int64_t First = 0; ///< Range bounds, inclusive, in dispensed positions.
  int64_t Last = 0;
  unsigned Worker = 0;
  bool InParallel = false; ///< Fault attribution: parallel chunk or serial.
  /// Test-only fault injection (null in production).
  const interp::FaultInjectionHook *Injector = nullptr;
  const interp::CancelToken *Cancel = nullptr; ///< Polled per iteration.
  unsigned *LoopsEntered = nullptr; ///< Counts nested-loop entries if set.
  /// Profiling recorder (null when off/light) and the worker's sampling
  /// countdown, kept across chunks like the interpreter's frame field.
  prof::LoopRecorder *Rec = nullptr;
  uint32_t *ProfSkip = nullptr;
};

/// Runs \p Prog for every iteration of the range described by \p C and
/// returns the highest *original* iteration number executed (the
/// last-value writeback needs it under reordering). Faults — bounds,
/// div-by-zero, bad step, deadline, injected — throw FaultException with
/// the same attribution the tree walk produces.
int64_t runChunk(const LoopProgram &Prog, const ChunkContext &C);

} // namespace vm
} // namespace iaa

#endif // IAA_VM_VM_H
