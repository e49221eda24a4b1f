//===- server/ArtifactCache.h - Shared compile-artifact cache ---*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's cross-session store of compile artifacts, content-keyed by
/// the full source text plus the artifact-shaping flags (pipeline mode,
/// audit mode) — not by a source hash, so two distinct programs can never
/// alias one cache slot and be served each other's compiles. An
/// artifact owns everything the pipeline produced for one source text: the
/// parsed (and pass-mutated) Program, its loop plans, the audit verdicts,
/// and the shared bytecode store the VM engine fills lazily. Sessions pin
/// artifacts with shared_ptr, so eviction can never dangle a Program out
/// from under a running Interpreter.
///
/// Build-once: concurrent requests for the same key serialize on a
/// per-entry mutex, so the pipeline runs once however many clients submit
/// the program simultaneously; the cache-wide lock is never held across a
/// build.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_SERVER_ARTIFACTCACHE_H
#define IAA_SERVER_ARTIFACTCACHE_H

#include "mf/Program.h"
#include "verify/PlanAudit.h"
#include "vm/Compiler.h"
#include "xform/Parallelizer.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace iaa {
namespace server {

/// Everything one (source, flags) pair compiles to. Immutable once built
/// (the bytecode store's interior mutability is thread-safe), so any number
/// of sessions can execute against it concurrently.
struct Artifact {
  std::unique_ptr<mf::Program> Prog;
  xform::PipelineResult Plans;
  std::string PlanSummary;  ///< Pipeline counters + plan table + audit text.
  std::string RemarksJsonl; ///< Pipeline and audit remarks, one per line.
  /// Per-artifact bytecode store: every session of this artifact shares it,
  /// so each certified loop is lowered at most once process-wide.
  std::shared_ptr<vm::BytecodeCache> Bytecode;
  /// Non-empty when the source failed to parse; such artifacts are cached
  /// too (negative caching — a client retrying a broken program in a loop
  /// must not re-run the parser every time) but cannot be executed.
  std::string BuildError;

  bool ok() const { return BuildError.empty(); }
};

/// The cache key for (\p Source, \p Mode, \p Audit): flag names first
/// (they contain no '|'), then the full source text. Content keying makes
/// collisions between distinct programs impossible, unlike the FNV-1a
/// hash key this replaced.
std::string artifactKey(const std::string &Source, xform::PipelineMode Mode,
                        verify::AuditMode Audit);

class ArtifactCache {
public:
  /// \p MaxEntries bounds the resident artifact count; inserting past the
  /// bound evicts least-recently-used entries (pinned artifacts stay alive
  /// through their sessions' shared_ptrs until released).
  explicit ArtifactCache(size_t MaxEntries = 64)
      : MaxEntries(MaxEntries ? MaxEntries : 1) {}

  ArtifactCache(const ArtifactCache &) = delete;
  ArtifactCache &operator=(const ArtifactCache &) = delete;

  /// Returns the artifact for (\p Source, \p Mode, \p Audit), building it
  /// on first use. \p Hit reports whether the artifact (or its in-flight
  /// build) already existed. Never returns null.
  std::shared_ptr<const Artifact> get(const std::string &Source,
                                      xform::PipelineMode Mode,
                                      verify::AuditMode Audit, bool &Hit);

  /// Marks the artifact under \p Key (see artifactKey) as just used, if it
  /// is still resident. A session that keeps running an artifact it pins
  /// calls this, so the artifact stays inside the cache's bound instead of
  /// being evicted and kept alive beside it.
  void touch(const std::string &Key);

  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }

  size_t size() const {
    std::lock_guard<std::mutex> Lock(M);
    return Entries.size();
  }

private:
  struct Entry {
    std::mutex BuildM; ///< Serializes the one-time build.
    std::shared_ptr<const Artifact> Art;
    uint64_t LastUse = 0;
  };

  size_t MaxEntries;
  mutable std::mutex M;
  std::map<std::string, std::shared_ptr<Entry>> Entries;
  uint64_t Clock = 0;
  std::atomic<uint64_t> Hits{0}, Misses{0};
};

} // namespace server
} // namespace iaa

#endif // IAA_SERVER_ARTIFACTCACHE_H
