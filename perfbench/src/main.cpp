//===- perfbench/src/main.cpp - End-to-end benchmark program --------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// iaa_perfbench --workload NAME --seed N --seconds S --trace 0|1
///               [--scratch DIR] [--src DIR]
/// iaa_perfbench --list-metrics
/// iaa_perfbench --selftest [--seed N]
///
/// Prints human-readable notes, then one JSON line:
/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
/// Untraced runs report the end-to-end metrics, traced runs the per-layer
/// metrics. Exits 1 when the benchmark itself cannot run and 2 on bad
/// arguments.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sched.h>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

unsigned hostThreads() {
  cpu_set_t Set;
  if (::sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

int usage() {
  std::fprintf(stderr,
               "usage: iaa_perfbench --workload paper|sparse_large|"
               "service_mix --seed N --seconds S --trace 0|1 [--scratch DIR] "
               "[--src DIR]\n"
               "       iaa_perfbench --list-metrics\n"
               "       iaa_perfbench --selftest [--seed N]\n");
  return 2;
}

std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void listMetrics() {
  for (const auto *Group : {&endToEndMetrics(), &perLayerMetrics()})
    for (const MetricDef &D : *Group)
      std::printf("%s %s %s %s\n", Group == &endToEndMetrics() ? "e2e" : "layer",
                  D.Name.c_str(), D.Unit.c_str(),
                  D.HigherIsBetter ? "higher" : "lower");
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig C;
  C.Nproc = hostThreads();
  bool List = false, Self = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--list-metrics")
      List = true;
    else if (A == "--selftest")
      Self = true;
    else if (!(V = Next()))
      return usage();
    else if (A == "--workload")
      C.Workload = V;
    else if (A == "--seed")
      C.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      C.Seconds = std::strtod(V, nullptr);
    else if (A == "--trace") {
      C.Trace = std::strcmp(V, "1") == 0;
      HaveTrace = true;
    } else if (A == "--scratch")
      C.ScratchDir = V;
    else if (A == "--src")
      C.SrcDir = V;
    else
      return usage();
  }
  if (List) {
    listMetrics();
    return 0;
  }
  if (Self)
    return selfTest(C) ? 0 : 1;
  const auto &Names = workloadNames();
  if (!HaveTrace || C.Seconds <= 0 ||
      std::find(Names.begin(), Names.end(), C.Workload) == Names.end())
    return usage();

  RunResult R = runWorkload(C);
  if (!R.Ok) {
    std::fprintf(stderr, "iaa_perfbench: %s: %s\n", C.Workload.c_str(),
                 R.Error.c_str());
    return 1;
  }
  std::printf("%s seed %llu, %u threads, %s run\n", C.Workload.c_str(),
              (unsigned long long)C.Seed, C.Nproc,
              C.Trace ? "traced" : "untraced");
  for (const std::string &N : R.Notes)
    std::printf("  %s\n", N.c_str());
  std::string Json = "{\"correct\": " +
                     std::string(R.Failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Attempted) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const auto &[D, V] = R.Metrics[I];
    Json += (I ? ", " : "") + iaa::json::str(D->Name) + ": {\"value\": " +
            number(V) + ", \"unit\": " + iaa::json::str(D->Unit) + "}";
  }
  std::printf("%s}}\n", Json.c_str());
  return 0;
}
