//===- perfbench/src/Pipeline.h - One cold source-to-checksum op -*- C++ -*-=//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The operation of the paper and sparse_large workloads, as a one-shot
/// `mfpar` user runs it: parse, parallelize (Full), audit strictly, execute
/// on a fresh Interpreter with real threads on the VM, and digest the final
/// memory with dead privates excluded. With a Tracer attached, every public
/// call is a span and the layer figures the calls return are collected.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_PERFBENCH_PIPELINE_H
#define IAA_PERFBENCH_PIPELINE_H

#include "Spans.h"

#include "benchprogs/Benchmarks.h"
#include "interp/Interpreter.h"

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The loop schedule of every benchmark operation. Under the static
/// schedule each parallel loop waits for its slowest worker, so at
/// Threads = nproc one CPU-bound thread from outside the process cost the
/// paper workload 29% of its throughput and 66% on its median latency on a
/// 4-vCPU host; under guided, 9% and 14%. Results are identical under
/// every schedule.
constexpr iaa::interp::Schedule OpSchedule = iaa::interp::Schedule::Guided;

struct OpConfig {
  unsigned Threads = 1;
  iaa::sched::LocalityMode Locality = iaa::sched::LocalityMode::Off;
  iaa::interp::WorkerPool *Pool = nullptr;
};

/// What a traced operation observed beyond its checksum.
struct OpLayers {
  double ParseMs = 0, PipelineMs = 0, AuditMs = 0;
  double AllocMs = 0, InspectMs = 0, RunMs = 0;
  double IrregularLoopMs = 0, SerialMs = 0;
  size_t SourceBytes = 0;
  std::vector<std::pair<std::string, double>> PhaseSeconds;
  unsigned PropertyQueries = 0, LoopsCertified = 0;
  unsigned LoopsStatic = 0, LoopsConditional = 0, LoopsSerial = 0;
  iaa::interp::ExecStats Stats;
};

struct OpResult {
  bool Ok = false;
  std::string Error; ///< Why the operation failed (Ok == false).
  double Checksum = 0;
  OpLayers Layers; ///< Filled only when traced.
};

/// Runs one operation on \p Prog. \p T may be null (untraced).
OpResult runOperation(const iaa::benchprogs::BenchmarkProgram &Prog,
                      const OpConfig &C, Tracer *T, uint64_t OpId);

/// Parses, parallelizes and strictly audits \p Source, as the daemon's
/// artifact cache does for a compile request, filling the compile-layer
/// fields of \p L (times, plan counts, phases). False if it does not
/// compile.
bool compileLayers(const std::string &Source, Tracer *T, uint64_t OpId,
                   OpLayers &L);

/// The independent reference: the parallelized program run by the serial
/// tree walk without plans, digested with the plans' dead privates
/// excluded. Returns false (with \p Err) if the source does not compile or
/// the serial run faults.
bool referenceChecksum(const std::string &Source, double &Out,
                       std::string &Err);

/// Cross-checks the reference against a run that skips the compiler: the
/// source as parsed, untransformed, on the serial tree walk. Its arrays
/// (dead privates excluded) must digest to the same value as those of the
/// parallelized program's serial run. Scalars are left out because the
/// normalization passes legitimately change their final values.
bool untransformedArraysAgree(const std::string &Source, std::string &Why);

/// Wall seconds of one Interpreter::run of \p Source at \p Threads on the
/// tree walk, simulated or on real threads (Threads == 1: no plans).
double runSeconds(const std::string &Source, unsigned Threads, bool Simulate,
                  iaa::interp::WorkerPool *Pool);

} // namespace perfbench

#endif // IAA_PERFBENCH_PIPELINE_H
