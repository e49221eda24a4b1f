//===- mf/Symbol.h - Variables and procedures of an MF program --*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Symbols of an MF program. Following the paper's interprocedural model
/// (Sec. 3.2.1: "we assume no parameter passing, values are passed by global
/// variables only"), every variable is a program-level global.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_MF_SYMBOL_H
#define IAA_MF_SYMBOL_H

#include <cassert>
#include <string>
#include <vector>

namespace iaa {
namespace mf {

class Expr;

/// Element type of a scalar or array variable.
enum class ScalarKind { Int, Real };

/// A declared variable: a scalar (rank 0) or an array of rank 1 or 2.
class Symbol {
public:
  Symbol(std::string Name, ScalarKind Elem, std::vector<const Expr *> Extents,
         unsigned Id)
      : Name(std::move(Name)), Elem(Elem), Extents(std::move(Extents)),
        Id(Id) {}

  const std::string &name() const { return Name; }
  ScalarKind elementKind() const { return Elem; }
  bool isArray() const { return !Extents.empty(); }
  unsigned rank() const { return static_cast<unsigned>(Extents.size()); }

  /// Declared extent expression of dimension \p Dim (0-based). All MF arrays
  /// are 1-based, so dimension Dim spans [1 : extent(Dim)].
  const Expr *extent(unsigned Dim) const {
    assert(Dim < Extents.size() && "extent() dimension out of range");
    return Extents[Dim];
  }

  /// Dense program-unique id, usable as a vector index.
  unsigned id() const { return Id; }

private:
  std::string Name;
  ScalarKind Elem;
  std::vector<const Expr *> Extents;
  unsigned Id;
};

/// Orders symbols by id(). Maps and sets keyed on Symbol pointers whose
/// iteration order reaches a report use it: pointer order follows heap
/// addresses, which change from one allocation to the next.
struct SymbolIdLess {
  bool operator()(const Symbol *A, const Symbol *B) const {
    return A->id() < B->id();
  }
};

} // namespace mf
} // namespace iaa

#endif // IAA_MF_SYMBOL_H
