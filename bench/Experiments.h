//===- bench/Experiments.h - Shared helpers of iaa_experiments --*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The experiments program regenerates the paper's tables and figures and
/// the feature tables of the runtime (see experiments_main.cpp for the
/// list). Each experiment prints its table, and all but the ablations
/// mirror their rows into BENCH_<name>.json in the working directory. This header holds what the
/// experiments share: compiling a program, running it under a set of
/// ExecOptions, the scale knob and the JSON report.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_BENCH_EXPERIMENTS_H
#define IAA_BENCH_EXPERIMENTS_H

#include "benchprogs/Benchmarks.h"
#include "interp/Interpreter.h"
#include "xform/Parallelizer.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace iaa {
namespace bench {

/// Parses MF source, aborting on errors (experiment inputs are trusted).
std::unique_ptr<mf::Program> parseOrAbort(const std::string &Source);

/// One compiled program: the AST plus the pipeline result for a mode.
struct Compiled {
  std::unique_ptr<mf::Program> Program;
  xform::PipelineResult Pipeline;
};

Compiled compile(const benchprogs::BenchmarkProgram &B,
                 xform::PipelineMode Mode);

/// What one run of a compiled program produced.
struct Outcome {
  interp::ExecStats Stats;
  /// Digest of the final memory, dead privates excluded, so serial and
  /// parallel runs compare bit for bit.
  double Checksum = 0;
  bool Faulted = false;
  /// Process CPU seconds spent inside Interpreter::run.
  double CpuSeconds = 0;

  double seconds() const { return Stats.TotalSeconds; }
};

/// Runs \p C under \p Opts. The pipeline's plans are attached whenever
/// Opts.Threads > 1; a one-thread run is the plain serial reference.
Outcome run(const Compiled &C, interp::ExecOptions Opts);

/// The input scale, from IAA_BENCH_SCALE (default 1.0).
double benchScale();

/// A permutation scatter x(ind(i)) += y(i)*0.5 over n = \p N elements (N
/// is nudged off multiples of 7 and 9 so ind(i) = mod(i*7, n)+1 stays a
/// permutation), repeated \p Reps times. The index data is opaque to the
/// compile-time tests, so the loop `scat` parallelizes only through the
/// runtime injectivity inspection.
benchprogs::BenchmarkProgram permutationScatter(const std::string &Name,
                                                int64_t N, int64_t Reps);

/// A CCS-style segment scaling, repeated \p Reps times over \p Cols
/// columns of mod(i*5, 7)+1 entries each, whose column pointers come from
/// the recurrence colptr(i+1) = colptr(i) + colcnt(i). Fused, colcnt is
/// defined in the build loop itself and the recurrence solver promotes
/// the loop `scale` to static parallel. Otherwise colcnt is written
/// through an identity permutation the solver cannot see through, so
/// `scale` stays runtime-conditional.
benchprogs::BenchmarkProgram ccsBuild(const std::string &Name, int64_t Cols,
                                      int64_t Reps, bool Fused);

/// Machine-readable mirror of an experiment's printed table. Rows are
/// ordered (key, encoded value) pairs; values must already be JSON
/// (json::str / json::num, or the literals true/false/null). write()
/// emits {"bench": "<name>", "rows": [...]} to BENCH_<name>.json.
class JsonReport {
public:
  explicit JsonReport(std::string Name) : Name(std::move(Name)) {}

  void row(const std::vector<std::pair<std::string, std::string>> &Fields);

  /// Writes the report; prints the destination (or a warning on failure).
  void write() const;

private:
  std::string Name;
  std::vector<std::string> Rows;
};

// The experiments, one per name on the command line.
void table2();
void table3();
void fig16();
void ablation();
void schedule();
void locality();
void recurrence();
void runtimeCheck();
void profile();
void vm();

} // namespace bench
} // namespace iaa

#endif // IAA_BENCH_EXPERIMENTS_H
