//===- perfbench/src/Metrics.cpp - Metric catalogue and sinks -------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "Metrics.h"

using namespace perfbench;

namespace {

const char *const PaperNames[] = {"trfd", "dyfesm", "bdna", "p3m", "tree"};

std::vector<MetricDef> buildPerLayer() {
  std::vector<MetricDef> M;
  auto Lo = [&](const std::string &N, const char *U) {
    M.push_back({N, U, false});
  };
  auto Hi = [&](const std::string &N, const char *U) {
    M.push_back({N, U, true});
  };
  Lo("mf.parse_ms", "ms");
  Lo("mf.source_bytes", "bytes");
  Lo("xform.pipeline_ms", "ms");
  for (const char *Phase :
       {"normalize", "induction-subst", "const-prop", "forward-subst", "dce",
        "hcg-build", "loop-analysis", "property-analysis"})
    Lo(std::string("xform.phase.") + Phase + "_ms", "ms");
  Lo("analysis.property_queries", "count");
  Hi("xform.loops_static", "count");
  Lo("xform.loops_conditional", "count");
  Lo("xform.loops_serial", "count");
  Lo("verify.audit_ms", "ms");
  Hi("verify.loops_certified", "count");
  Lo("interp.run_ms", "ms");
  for (const char *P : PaperNames)
    Lo(std::string("interp.run_ms.") + P, "ms");
  Lo("interp.irregular_loop_ms", "ms");
  Lo("interp.serial_ms", "ms");
  Hi("interp.dispatch_static", "count");
  Lo("interp.dispatch_conditional", "count");
  Lo("interp.dispatch_serial", "count");
  Lo("interp.dispatch_replay", "count");
  Lo("interp.chunks_run", "count");
  Lo("interp.chunk_imbalance", "ratio");
  Lo("interp.forkjoin_us", "us");
  Lo("interp.alloc_ms", "ms");
  Lo("interp.inspect_ms", "ms");
  Lo("interp.inspections_run", "count");
  Hi("interp.inspections_cached", "count");
  Hi("interp.inspection_hit_ratio", "ratio");
  Hi("interp.inspection_lookups", "count");
  Lo("interp.runtime_check_fails", "count");
  Lo("interp.rollbacks", "count");
  Lo("interp.replays", "count");
  Hi("vm.loops_compiled", "count");
  Lo("vm.bailouts", "count");
  Hi("vm.chunk_share", "ratio");
  Hi("sched.model_picks", "count");
  Lo("sched.reorders", "count");
  Hi("sched.reorders_cached", "count");
  Lo("server.rtt_ms", "ms");
  Lo("server.exec_ms", "ms");
  Lo("server.handle_ms", "ms");
  Lo("server.transport_queue_ms", "ms");
  Hi("server.artifact_hit_ratio", "ratio");
  Hi("server.artifact_hits", "count");
  Hi("server.artifact_lookups", "count");
  Lo("server.response_bytes", "bytes");
  Lo("server.shed", "count");
  Lo("protocol.parse_us", "us");
  Lo("protocol.serialize_us", "us");
  for (const std::string &L : layers())
    Lo("layer." + L + ".self_ms", "ms");
  Hi("bench.trace_overhead", "ratio");
  for (const char *P : PaperNames) {
    Hi(std::string("model.sim_speedup.") + P, "x");
    Hi(std::string("model.real_speedup.") + P, "x");
    Lo(std::string("model.sim_over_real.") + P, "ratio");
  }
  for (const std::string &Mod : modules())
    Lo("loc." + Mod, "lines");
  return M;
}

} // namespace

const std::vector<MetricDef> &perfbench::endToEndMetrics() {
  static const std::vector<MetricDef> M = {
      {"setup_s", "s", false},         {"ops_per_s", "op/s", true},
      {"latency_p50_ms", "ms", false}, {"latency_tail_ms", "ms", false},
      {"cpu_ms_per_op", "ms", false},  {"peak_rss_mb", "MB", false},
  };
  return M;
}

const std::vector<MetricDef> &perfbench::perLayerMetrics() {
  static const std::vector<MetricDef> M = buildPerLayer();
  return M;
}

const std::vector<std::string> &perfbench::layers() {
  static const std::vector<std::string> L = {
      "mf", "xform", "analysis", "verify", "interp", "vm", "sched", "server"};
  return L;
}

const std::vector<std::string> &perfbench::modules() {
  static const std::vector<std::string> M = {
      "analysis", "benchprogs", "cfg",     "deptest", "interp",
      "mf",       "prof",       "sched",   "section", "server",
      "support",  "symbolic",   "verify",  "vm",      "xform"};
  return M;
}

double LayerSink::value(const std::string &Name) const {
  if (auto It = Fixed.find(Name); It != Fixed.end())
    return It->second;
  if (auto It = Means.find(Name); It != Means.end())
    return It->second.second ? It->second.first / It->second.second : 0;
  return 0;
}

std::vector<std::pair<const MetricDef *, double>>
LayerSink::resolve(std::vector<std::string> &Notes) const {
  std::vector<std::pair<const MetricDef *, double>> Out;
  for (const MetricDef &D : perLayerMetrics()) {
    Out.emplace_back(&D, value(D.Name));
    if (has(D.Name))
      continue;
    auto It = Absent.find(D.Name);
    Notes.push_back("absent " + D.Name + " (reported as 0): " +
                    (It != Absent.end() ? It->second
                                        : "not observed on this workload"));
  }
  return Out;
}
