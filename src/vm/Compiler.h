//===- vm/Compiler.h - AST-to-bytecode lowering for loop plans --*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers the body of a certified do loop to register bytecode
/// (vm/Bytecode.h). The compiler is deliberately conservative: anything it
/// cannot lower with bit-identical semantics — unresolved or recursive
/// calls, mod on real operands, non-integer index variables — is a
/// *bailout*, and the loop keeps running on the tree-walking interpreter.
/// Bailing out is always correct; compiling is only a speed change, never
/// a semantic one (the differential oracle in --engine=both enforces
/// exactly that). While loops lower trip for trip like the tree walk's:
/// condition, deadline poll, body, then the WhileTripLimit guard, with
/// faults attributed to the innermost do loop's iteration.
///
/// compileLoop() is the one place that decides whether a loop lowers; the
/// BytecodeCache memoizes its bailouts along with its programs.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_VM_COMPILER_H
#define IAA_VM_COMPILER_H

#include "vm/Bytecode.h"

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace iaa {
namespace vm {

/// Deepest call chain the compiler inlines; deeper chains bail. Calls nest
/// through globals only, so a cycle is the one way inlining can diverge.
constexpr int MaxInlineDepth = 8;

/// Outcome of one lowering attempt: a runnable program, or the reason the
/// loop must stay on the interpreter.
struct CompileResult {
  bool Ok = false;
  LoopProgram Prog;
  std::string Bailout; ///< Why the loop cannot lower (empty when Ok).
};

/// Lowers the body of \p DS against \p DimExtents (per-symbol declared
/// extents resolved to run constants, indexed by symbol id — the
/// interp::Memory::extents() table the interpreter's subscript
/// linearization uses).
CompileResult compileLoop(const mf::DoStmt *DS,
                          const std::vector<std::vector<int64_t>> &DimExtents);

/// Memoized compile results (successes *and* bailouts), keyed per loop.
/// One interpreter session owns a private store by default; the mfpard
/// artifact cache shares one store per cached program across sessions, so
/// a loop is lowered once no matter how many concurrent sessions run it.
/// Thread-safe; entry addresses are stable for the cache's lifetime.
class BytecodeCache {
public:
  /// Returns the memoized result for \p DS, invoking \p Compile under the
  /// cache lock on first use (duplicate concurrent compiles are thereby
  /// impossible; lowering is fast relative to execution).
  const CompileResult &
  getOrCompile(const mf::DoStmt *DS,
               const std::function<CompileResult()> &Compile) {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Cache.find(DS);
    if (It == Cache.end())
      It = Cache.emplace(DS, Compile()).first;
    return It->second;
  }

  size_t size() const {
    std::lock_guard<std::mutex> Lock(M);
    return Cache.size();
  }

private:
  mutable std::mutex M;
  std::map<const mf::DoStmt *, CompileResult> Cache;
};

} // namespace vm
} // namespace iaa

#endif // IAA_VM_COMPILER_H
