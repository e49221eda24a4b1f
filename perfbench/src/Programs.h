//===- perfbench/src/Programs.h - Seeded workload inputs --------*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every input the benchmark feeds the system is generated here from the
/// workload seed: the order of the paper programs, the SPARK00-shaped
/// sparse_large programs, and the service_mix request streams. The same
/// seed gives byte-identical sources; a different seed changes them.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_PERFBENCH_PROGRAMS_H
#define IAA_PERFBENCH_PROGRAMS_H

#include "benchprogs/Benchmarks.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: a tiny, portable, seedable generator.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t State;
};

/// Elements of every index array in a sparse_large program (>= 10^6).
constexpr long SparseN = 1L << 20;
/// Distinct sparse_large programs generated per seed.
constexpr unsigned SparsePrograms = 2;

/// The five reconstructed programs at scale 1, in Table 2 order.
std::vector<iaa::benchprogs::BenchmarkProgram> paperPrograms();

/// Round \p Round of a program workload: the indices 0..N-1 in a seeded
/// order. \p Workload separates the streams of different workloads.
std::vector<unsigned> roundOrder(uint64_t Seed, unsigned Workload,
                                 unsigned Round, unsigned N);

/// sparse_large program \p Index for \p Seed: CRS SpMV gather, fused CCS
/// build plus Fig. 3 segment loop, prefix-sum scatter, a runtime
/// permutation scatter swept several times, and a duplicate-index scatter.
iaa::benchprogs::BenchmarkProgram sparseProgram(uint64_t Seed,
                                                unsigned Index);

/// One service_mix request.
struct ServiceRequest {
  enum class Kind { Compile, Repeat, Fault };
  Kind K = Kind::Compile;
  /// Compile: index into paperPrograms() the source was derived from.
  /// Repeat: which of the client's repeat programs.
  unsigned Program = 0;
  /// Compile: index into ServiceScales.
  unsigned Scale = 0;
  std::string Source; ///< The MF program the request carries.
  std::string Line;   ///< The JSON request line sent to the daemon.
};

/// Requests one block of the stream holds: 10 compiles, 7 repeat runs and
/// 3 faulting runs (50% / 35% / 15%), in a seeded order.
constexpr unsigned ServiceBlock = 20;
/// Repeat programs per client; fits the session's program LRU of 16.
constexpr unsigned RepeatPrograms = 8;
/// Worker threads every service_mix request asks for.
constexpr unsigned ServiceRequestThreads = 2;

/// Program scales the compile requests draw from.
constexpr double ServiceScales[] = {0.02, 0.04, 0.06, 0.08};

/// The source a compile request of \p Program at \p Scale carries; the
/// salt is a comment line, so every salt gives the same plan.
std::string compileSource(unsigned Program, unsigned Scale,
                          const std::string &Salt);

/// Source of client \p Client's repeat program \p Index.
std::string repeatSource(uint64_t Seed, unsigned Client, unsigned Index);
/// The faulting tenant: a statically parallel loop that divides by zero,
/// so the daemon snapshots, rolls back, replays serially and reports the
/// reproduced fault.
std::string faultSource();

/// Block \p Block of client \p Client's request stream.
std::vector<ServiceRequest> serviceBlock(uint64_t Seed, unsigned Client,
                                         unsigned Block);

} // namespace perfbench

#endif // IAA_PERFBENCH_PROGRAMS_H
