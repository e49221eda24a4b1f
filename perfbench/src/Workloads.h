//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// paper, sparse_large and service_mix. Each sets itself up several times
/// (set-up time is the median), computes its serial references, then runs
/// operations for the requested seconds and checks every output. An
/// untraced run reports the end-to-end metrics; a traced run reports the
/// per-layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_PERFBENCH_WORKLOADS_H
#define IAA_PERFBENCH_WORKLOADS_H

#include "Metrics.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string ScratchDir = "."; ///< Daemon socket and span output.
  std::string SrcDir = "src";   ///< Library sources, for `loc.<module>`.
  unsigned Nproc = 1;
};

struct RunResult {
  bool Ok = false;       ///< False: the benchmark itself could not run.
  std::string Error;     ///< Why, when !Ok.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Notes; ///< Human-readable lines.
  std::vector<std::pair<const MetricDef *, double>> Metrics;
};

const std::vector<std::string> &workloadNames();

RunResult runWorkload(const RunConfig &C);

/// Determinism self-test: same seed, same sources, references and plan and
/// dispatch counts; another seed, other sources. Prints what it checks;
/// returns false on any mismatch.
bool selfTest(const RunConfig &C);

} // namespace perfbench

#endif // IAA_PERFBENCH_WORKLOADS_H
