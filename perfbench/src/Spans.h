//===- perfbench/src/Spans.h - In-memory span recorder ----------*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run times the benchmark's own calls into each module's public
/// functions. A Tracer keeps the spans in memory (name, start, end, parent,
/// operation id) and writes them out once the run ends; nothing inside the
/// library is instrumented. A span's *layer* is its name up to the first
/// dot, so "xform.parallelize" belongs to xform, and a layer's self time is
/// its spans' time minus their children's.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_PERFBENCH_SPANS_H
#define IAA_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string Name;
  double Start = 0, End = 0;
  int Parent = -1;
  uint64_t Op = 0;
};

/// One thread's span stack. Not thread-safe; give each thread its own.
class Tracer {
public:
  int open(const std::string &Name, uint64_t Op) {
    Spans.push_back({Name, nowSeconds(), 0, Current, Op});
    Current = int(Spans.size()) - 1;
    return Current;
  }
  void close(int Idx) {
    Spans[Idx].End = nowSeconds();
    Current = Spans[Idx].Parent;
  }
  /// Records a child of the open span whose duration a call returned
  /// rather than one the benchmark timed (e.g. the property-analysis phase
  /// inside xform::parallelize, from PipelineResult::PhaseSeconds).
  void reported(const std::string &Name, double Seconds, uint64_t Op) {
    double Now = nowSeconds();
    Spans.push_back({Name, Now - Seconds, Now, Current, Op});
  }

  const std::vector<Span> &spans() const { return Spans; }
  void append(const Tracer &Other);

  /// Self seconds per layer, summed over all spans.
  std::map<std::string, double> selfSeconds() const;
  /// Writes one JSON object per span.
  bool writeJsonl(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  int Current = -1;
};

/// Times one call when a tracer is attached; free otherwise.
class Scope {
public:
  Scope(Tracer *T, const char *Name, uint64_t Op)
      : T(T), Idx(T ? T->open(Name, Op) : -1) {}
  ~Scope() { end(); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

  /// Closes the span (once) and returns its seconds; 0 without a tracer.
  double end() {
    if (!T)
      return 0;
    if (!Closed) {
      T->close(Idx);
      Closed = true;
    }
    return T->spans()[Idx].End - T->spans()[Idx].Start;
  }

private:
  Tracer *T;
  int Idx;
  bool Closed = false;
};

/// The layer a span belongs to: its name up to the first dot, with the
/// wire protocol counted as part of the server layer.
std::string layerOf(const std::string &SpanName);

} // namespace perfbench

#endif // IAA_PERFBENCH_SPANS_H
