//===- server/ArtifactCache.cpp - Shared compile-artifact cache -----------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "server/ArtifactCache.h"

#include "mf/Parser.h"
#include "support/Remarks.h"

using namespace iaa;
using namespace iaa::server;

std::string server::artifactKey(const std::string &Source,
                                xform::PipelineMode Mode,
                                verify::AuditMode Audit) {
  // Flags first: mode/audit names contain no '|', so the prefix parses
  // unambiguously no matter what bytes the source holds. Keying on the
  // full source text (not a 64-bit hash of it) is deliberate — a
  // non-cryptographic hash has constructible collisions, and a collision
  // would silently serve one tenant another program's compiled artifact.
  std::string Key = xform::pipelineModeName(Mode);
  Key += '|';
  Key += verify::auditModeName(Audit);
  Key += '|';
  Key += Source;
  return Key;
}

namespace {

std::shared_ptr<const Artifact> buildArtifact(const std::string &Source,
                                              xform::PipelineMode Mode,
                                              verify::AuditMode Audit) {
  auto Art = std::make_shared<Artifact>();
  Art->Bytecode = std::make_shared<vm::BytecodeCache>();

  DiagnosticEngine Diags;
  Art->Prog = mf::parseProgram(Source, Diags);
  if (!Art->Prog) {
    Art->BuildError = Diags.str();
    if (Art->BuildError.empty())
      Art->BuildError = "parse failed";
    return Art;
  }

  Art->Plans = xform::parallelize(*Art->Prog, Mode);
  Art->PlanSummary = Art->Plans.str();
  if (Audit != verify::AuditMode::Off) {
    verify::PlanAuditor Auditor(*Art->Prog);
    verify::AuditResult A = Auditor.audit(Art->Plans);
    unsigned Demoted = verify::recordAudit(Art->Plans, A, Audit);
    Art->PlanSummary += A.str();
    if (Demoted)
      Art->PlanSummary += std::to_string(Demoted) +
                          " non-certified loop(s) demoted to serial\n";
  }
  Art->RemarksJsonl = remarksJsonl(Art->Plans.Remarks);
  return Art;
}

} // namespace

std::shared_ptr<const Artifact>
ArtifactCache::get(const std::string &Source, xform::PipelineMode Mode,
                   verify::AuditMode Audit, bool &Hit) {
  std::string Key = artifactKey(Source, Mode, Audit);

  std::shared_ptr<Entry> E;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto [It, Inserted] = Entries.try_emplace(Key);
    if (Inserted) {
      It->second = std::make_shared<Entry>();
      Misses.fetch_add(1, std::memory_order_relaxed);
      // LRU eviction on insert. Entries are shared_ptrs, so an evicted
      // artifact a session still pins (or whose build is in flight) stays
      // alive until the last reference drops; only the cache forgets it.
      while (Entries.size() > MaxEntries) {
        auto Victim = Entries.end();
        for (auto I = Entries.begin(); I != Entries.end(); ++I) {
          if (I->first == Key)
            continue;
          if (Victim == Entries.end() ||
              I->second->LastUse < Victim->second->LastUse)
            Victim = I;
        }
        if (Victim == Entries.end())
          break;
        Entries.erase(Victim);
      }
    } else {
      Hits.fetch_add(1, std::memory_order_relaxed);
    }
    Hit = !Inserted;
    It->second->LastUse = ++Clock;
    E = It->second;
  }

  // Build outside the cache lock, once, under the entry's own mutex:
  // latecomers for the same key block here until the artifact exists, and
  // requests for other keys are never stalled by this build.
  std::lock_guard<std::mutex> BuildLock(E->BuildM);
  if (!E->Art)
    E->Art = buildArtifact(Source, Mode, Audit);
  return E->Art;
}

void ArtifactCache::touch(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Entries.find(Key);
  if (It != Entries.end())
    It->second->LastUse = ++Clock;
}
