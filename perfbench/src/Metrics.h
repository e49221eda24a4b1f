//===- perfbench/src/Metrics.h - Metric catalogue and sinks -----*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The names, units and directions of every metric the benchmark reports.
/// BENCHMARK.json lists the same catalogue; `iaa_perfbench --list-metrics`
/// prints it so the two can be compared.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_PERFBENCH_METRICS_H
#define IAA_PERFBENCH_METRICS_H

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct MetricDef {
  std::string Name;
  std::string Unit;
  bool HigherIsBetter = false;
};

/// End-to-end metrics, reported by every untraced run.
const std::vector<MetricDef> &endToEndMetrics();
/// Per-layer metrics, reported by every traced run.
const std::vector<MetricDef> &perLayerMetrics();

/// The layers a traced run reports self time for.
const std::vector<std::string> &layers();
/// The source modules whose line counts are reported (`loc.<module>`).
const std::vector<std::string> &modules();

/// Collects a traced run's per-layer values. A metric is either a mean of
/// samples, a fixed value, or absent with a reason.
class LayerSink {
public:
  void sample(const std::string &Name, double V) {
    auto &[Sum, N] = Means[Name];
    Sum += V;
    ++N;
  }
  void set(const std::string &Name, double V) { Fixed[Name] = V; }
  void add(const std::string &Name, double V) { Fixed[Name] += V; }
  void absent(const std::string &Name, const std::string &Why) {
    Absent[Name] = Why;
  }
  bool has(const std::string &Name) const {
    return Fixed.count(Name) || Means.count(Name);
  }
  double value(const std::string &Name) const;

  /// Value for every per-layer metric; absent ones are 0 and their reason
  /// is appended to \p Notes.
  std::vector<std::pair<const MetricDef *, double>>
  resolve(std::vector<std::string> &Notes) const;

private:
  std::map<std::string, std::pair<double, unsigned>> Means;
  std::map<std::string, double> Fixed;
  std::map<std::string, std::string> Absent;
};

} // namespace perfbench

#endif // IAA_PERFBENCH_METRICS_H
