//===- bench/paper_experiments.cpp - The paper's tables and figure --------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// The experiments that regenerate the paper's results:
///
///  table2   per program: lines, sequential time, pipeline time, and the
///           share of it spent in the array property analysis;
///  table3   per irregular loop: the properties established, the test that
///           consumed them, and the loop's share of execution time;
///  fig16    speedups of the five programs under the IAA, no-IAA and APO
///           pipelines, on real threads up to the host's cores and on
///           simulated processors past them;
///  ablation visited-node counts with and without three design choices of
///           the analysis (bounded DFS, demand-driven queries, early
///           termination on kills).
///
//===----------------------------------------------------------------------===//

#include "Experiments.h"

#include "analysis/BoundedDfs.h"
#include "analysis/PropertySolver.h"
#include "cfg/FlatCfg.h"
#include "cfg/Hcg.h"
#include "support/Json.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <thread>

using namespace iaa;
using namespace iaa::bench;

//===----------------------------------------------------------------------===//
// Table 2
//===----------------------------------------------------------------------===//

/// The paper measured the property analysis at 4.5%-10.9% of compilation
/// time; the claim reproduced here is the shape: a small single- or low
/// double-digit fraction of the pipeline.
void bench::table2() {
  std::printf("\n=== Table 2: compilation time and array property analysis "
              "share ===\n");
  std::printf("%-8s %6s %12s %12s %16s %8s\n", "Program", "Lines",
              "SeqExec(s)", "Pipeline(s)", "PropAnalysis(s)", "Share");
  JsonReport Report("table2");
  for (const benchprogs::BenchmarkProgram &B :
       benchprogs::allBenchmarks(benchScale())) {
    // Compile repeatedly for a stable timing (the pipeline is fast).
    const int Rounds = 20;
    double PipelineSecs = 0, PropSecs = 0;
    for (int R = 0; R < Rounds; ++R) {
      Compiled C = compile(B, xform::PipelineMode::Full);
      PipelineSecs += C.Pipeline.TotalSeconds;
      PropSecs += C.Pipeline.PropertySeconds;
    }
    PipelineSecs /= Rounds;
    PropSecs /= Rounds;

    Compiled C = compile(B, xform::PipelineMode::Full);
    double SeqSecs = run(C, {}).seconds();

    // The same serial run with span collection switched on: the disabled
    // path costs one relaxed load per instrumentation site, so the two
    // timings should agree to noise (recorded in the JSON as evidence).
    trace::enable(true);
    double TracedSecs = run(C, {}).seconds();
    trace::enable(false);
    size_t TraceEvents = trace::eventCount();
    trace::clear();

    std::printf("%-8s %6u %12.3f %12.5f %16.5f %7.1f%%\n", B.Name.c_str(),
                B.lineCount(), SeqSecs, PipelineSecs, PropSecs,
                100.0 * PropSecs / PipelineSecs);
    Report.row({{"program", json::str(B.Name)},
                {"lines", json::num(B.lineCount())},
                {"seq_exec_s", json::num(SeqSecs)},
                {"seq_exec_traced_s", json::num(TracedSecs)},
                {"trace_events", json::num(static_cast<double>(TraceEvents))},
                {"pipeline_s", json::num(PipelineSecs)},
                {"prop_analysis_s", json::num(PropSecs)},
                {"prop_share_pct",
                 json::num(100.0 * PropSecs / PipelineSecs)}});
  }
  Report.write();
  std::printf("\nPaper reference (Table 2): property analysis was 4.5%% "
              "(TRFD) to 10.9%% (P3M) of compilation time.\n\n");
}

//===----------------------------------------------------------------------===//
// Table 3
//===----------------------------------------------------------------------===//

/// Entries look like "ia:CFD"; report "ia:CFV" when the recurrence has a
/// constant base (closed-form *value*, not just distance, as TRFD's
/// ia(i) = i*(i-1)/2), matching the paper's labels.
static std::string refineCfd(const mf::Program &P, const std::string &Entry) {
  size_t Colon = Entry.find(':');
  if (Colon == std::string::npos || Entry.substr(Colon + 1) != "CFD")
    return Entry;
  const mf::Symbol *Array = P.findSymbol(Entry.substr(0, Colon));
  if (Array && analysis::ClosedFormDistanceChecker::hasConstantBase(P, Array))
    return Entry.substr(0, Colon) + ":CFV";
  return Entry;
}

void bench::table3() {
  std::printf("\n=== Table 3: irregular loops, properties, tests, and time "
              "shares ===\n");
  std::printf("%-8s %-8s %-10s %-24s %-6s %8s %10s\n", "Program", "Loop",
              "Parallel", "Array:property", "Test", "%seq",
              "%par-if-serial(8)");
  JsonReport Report("table3");
  for (const benchprogs::BenchmarkProgram &B :
       benchprogs::allBenchmarks(benchScale())) {
    Compiled C = compile(B, xform::PipelineMode::Full);
    Outcome Seq = run(C, {});
    double Total = Seq.seconds();

    std::vector<std::string> Labels = B.IrregularLoops;
    Labels.insert(Labels.end(), B.HelperLoops.begin(), B.HelperLoops.end());
    for (const std::string &Label : Labels) {
      const xform::LoopReport *Rep = C.Pipeline.reportFor(Label);
      if (!Rep)
        continue;

      // Property/test summary: dependence-test properties first, then
      // privatization properties.
      std::string Props;
      std::string Test;
      std::set<std::string> Seen;
      for (const auto &D : Rep->DepOutcomes)
        for (const std::string &Prop : D.PropertiesUsed) {
          std::string Entry = refineCfd(*C.Program, Prop);
          if (Seen.insert(Entry).second)
            Props += (Props.empty() ? "" : ",") + Entry;
          Test = "DD";
        }
      for (const auto &Pv : Rep->PrivOutcomes) {
        if (!Pv.Privatizable)
          continue;
        for (const std::string &Prop : Pv.PropertiesUsed) {
          if (Prop.find(":affine") != std::string::npos)
            continue;
          if (Seen.insert(Prop).second)
            Props += (Props.empty() ? "" : ",") + Prop;
          if (Test.empty())
            Test = "PRIV";
        }
      }
      if (Test.empty())
        Test = "-";

      double LoopSecs = 0;
      auto It = Seq.Stats.LoopSeconds.find(Label);
      if (It != Seq.Stats.LoopSeconds.end())
        LoopSecs = It->second;
      double SeqShare = Total > 0 ? 100.0 * LoopSecs / Total : 0;
      // Amdahl estimate of the loop's share of an 8-thread run if it were
      // the only serial part (the paper's column 11 analog).
      const double T = 8;
      double ParTime = LoopSecs + (Total - LoopSecs) / T;
      double ParShare = ParTime > 0 ? 100.0 * LoopSecs / ParTime : 0;

      std::printf("%-8s %-8s %-10s %-24s %-6s %7.1f%% %9.1f%%\n",
                  B.Name.c_str(), Label.c_str(),
                  Rep->Parallel ? "yes" : "no", Props.c_str(), Test.c_str(),
                  SeqShare, ParShare);
      Report.row({{"program", json::str(B.Name)},
                  {"loop", json::str(Label)},
                  {"parallel", Rep->Parallel ? "true" : "false"},
                  {"properties", json::str(Props)},
                  {"test", json::str(Test)},
                  {"seq_share_pct", json::num(SeqShare)},
                  {"par_if_serial_pct", json::num(ParShare)}});
    }
  }
  Report.write();
  std::printf("\nPaper reference (Table 3): TRFD do140 x:CFV DD 5%%; DYFESM "
              "SOLXDD loops pptr:CFD,iblen:CFB DD 20%%; BDNA do240 ind:CFB "
              "PRIV 32%%; P3M do100 jpr:CFB PRIV 74%%; TREE do10 "
              "stack:STACK 90%%.\n\n");
}

//===----------------------------------------------------------------------===//
// Figure 16
//===----------------------------------------------------------------------===//

/// Logical cores of the host: the largest thread count that runs on real
/// threads rather than on simulated processors.
static unsigned hostCores() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Best of two runs of \p C on \p Threads workers, on simulated processors
/// when \p Simulate is set. A simulated loop costs its busiest worker's
/// summed chunk times plus a fork/join charge: a model that preserves the
/// curve shapes (Amdahl fractions, load imbalance, per-invocation
/// overhead) but sees no memory contention. \p Unguarded drops the
/// profitability guard, as Polaris-generated code had none.
static double bestSeconds(const Compiled &C, unsigned Threads, bool Simulate,
                          bool Unguarded) {
  interp::ExecOptions Opts;
  Opts.Threads = Threads;
  Opts.Simulate = Simulate;
  if (Unguarded)
    Opts.MinParallelWork = 0;
  return std::min(run(C, Opts).seconds(), run(C, Opts).seconds());
}

/// One panel: a speedup series per pipeline mode. Thread counts up to the
/// host's cores run on real threads ("measured"); larger ones run on
/// simulated processors ("model", starred in the table). At T = cores the
/// model runs too, and its error against the measured speedup is printed.
static void printSeries(JsonReport &Report, const std::string &Panel,
                        const benchprogs::BenchmarkProgram &B,
                        std::vector<unsigned> Threads,
                        bool Unguarded = false) {
  static const xform::PipelineMode Modes[] = {xform::PipelineMode::Full,
                                              xform::PipelineMode::NoIAA,
                                              xform::PipelineMode::Apo};
  const unsigned Cores = hostCores();
  if (Cores > 1 && Cores < Threads.back() &&
      std::find(Threads.begin(), Threads.end(), Cores) == Threads.end())
    Threads.insert(std::upper_bound(Threads.begin(), Threads.end(), Cores),
                   Cores);
  std::printf("%s\n  %-12s", B.Name.c_str(), "config");
  for (unsigned T : Threads)
    std::printf(T <= Cores ? " %6up" : " %5up*", T);
  std::printf("\n");
  // One serial baseline (identical for all configs).
  double Serial =
      bestSeconds(compile(B, xform::PipelineMode::Full), 1, false, false);
  for (xform::PipelineMode Mode : Modes) {
    Compiled C = compile(B, Mode);
    std::string ModelNote;
    std::printf("  %-12s", xform::pipelineModeName(Mode));
    for (unsigned T : Threads) {
      const bool Measured = T <= Cores;
      double Secs =
          T == 1 ? Serial : bestSeconds(C, T, !Measured, Unguarded);
      double Speedup = Serial / Secs;
      std::printf(" %6.2f", Speedup);
      std::vector<std::pair<std::string, std::string>> Row = {
          {"panel", json::str(Panel)},
          {"program", json::str(B.Name)},
          {"config", json::str(xform::pipelineModeName(Mode))},
          {"threads", json::num(T)},
          {"source", json::str(Measured ? "measured" : "model")},
          {"seconds", json::num(Secs)},
          {"speedup", json::num(Speedup)}};
      if (T == Cores && T > 1) {
        double Model = Serial / bestSeconds(C, T, true, Unguarded);
        double ErrPct = 100.0 * (Model - Speedup) / Speedup;
        Row.push_back({"model_speedup", json::num(Model)});
        Row.push_back({"model_error_pct", json::num(ErrPct)});
        char Buf[128];
        std::snprintf(Buf, sizeof(Buf),
                      "    model at %up: %.2f vs measured %.2f (%+.0f%%)\n",
                      T, Model, Speedup, ErrPct);
        ModelNote = Buf;
      }
      Report.row(Row);
    }
    std::printf("\n%s", ModelNote.c_str());
  }
}

void bench::fig16() {
  const unsigned Cores = hostCores();
  std::printf("\n=== Figure 16: speedup vs 1 processor (real threads up to "
              "the host's %u cores; * = simulated processors, a model) "
              "===\n\n",
              Cores);
  double Scale = benchScale();
  const std::vector<unsigned> Threads = {1, 2, 4, 8, 16, 32};
  JsonReport Report("fig16");

  // Panels (a)-(d): TRFD, BDNA, P3M, TREE, then DYFESM with its normal
  // input.
  for (auto &B : {benchprogs::trfd(Scale), benchprogs::bdna(Scale),
                  benchprogs::p3m(Scale), benchprogs::tree(Scale),
                  benchprogs::dyfesm(Scale)})
    printSeries(Report, "a-d", B, Threads);

  // Panel (e): DYFESM with a tiny input. Polaris-generated code had no
  // per-loop profitability guard, so the raw fork/join overhead shows
  // (hence speedups below one).
  std::printf("DYFESM-tiny (Fig. 16(e): tiny input, overhead dominates)\n");
  printSeries(Report, "e", benchprogs::dyfesmTiny(), Threads,
              /*Unguarded=*/true);

  // Panel (f): DYFESM restricted to a 4-processor machine.
  std::printf("DYFESM-4p (Fig. 16(f): small machine)\n");
  printSeries(Report, "f", benchprogs::dyfesm(Scale), {1, 2, 4});

  Report.write();
  std::printf("\nPaper reference: with IAA the irregular loops parallelize "
              "and BDNA/P3M/TREE speed up significantly, TRFD improves from "
              "five to six at 16 processors; without IAA (and under APO) "
              "the key loops stay serial and the curves are flat; tiny-input "
              "DYFESM slows down under parallelization (16(e)) but reaches "
              "~1.6 on a 4-processor machine (16(f)).\n\n");
}

//===----------------------------------------------------------------------===//
// Ablations
//===----------------------------------------------------------------------===//

namespace {

/// Fig. 2's bounded DFS stops expanding at boundary nodes, so a
/// consecutively-written check touches only the region between an
/// increment and the next array write. The region here has one increment
/// and write up front and \p Tail trailing statements; returns the nodes
/// visited with and without the bound.
std::pair<unsigned, unsigned> bdfsVisits(unsigned Tail) {
  std::string Body;
  for (unsigned I = 0; I < Tail; ++I)
    Body += "      y(" + std::to_string(I % 90 + 1) + ") = y(" +
            std::to_string(I % 90 + 2) + ") + 1.0\n";
  auto P = parseOrAbort(R"(program region
  integer i, n, p
  real x(200), y(200)
  n = 10
  p = 0
  lp: do i = 1, n
    p = p + 1
    x(p) = 1.0
)" + Body + R"(  end do
end)");
  cfg::FlatCfg G(P->findLoop("lp")->body(), true);
  const mf::Symbol *X = P->findSymbol("x");
  const mf::Symbol *Pvar = P->findSymbol("p");
  unsigned IncNode = 0;
  for (unsigned I = 0; I < G.size(); ++I) {
    const auto *AS = dyn_cast_if_present<mf::AssignStmt>(G.node(I).S);
    if (AS && !AS->arrayTarget() && AS->writtenSymbol() == Pvar)
      IncNode = I;
  }
  auto Visits = [&](bool Bounded) {
    analysis::BdfsStats Stats;
    analysis::boundedDfs(
        G, IncNode,
        [&](unsigned N) {
          const auto *AS = dyn_cast_if_present<mf::AssignStmt>(G.node(N).S);
          return Bounded && AS && AS->arrayTarget() &&
                 AS->arrayTarget()->array() == X;
        },
        [&](unsigned N) { return N == IncNode; }, &Stats);
    return Stats.NodesVisited;
  };
  return {Visits(true), Visits(false)};
}

/// Sec. 3: a program defines \p M offset arrays in a setup procedure but
/// uses only off0. The demand-driven analysis issues one query; an
/// exhaustive one verifies CFD and CFB of every index array at the loop.
/// Returns the nodes visited by each.
std::pair<unsigned, unsigned> demandVisits(unsigned M) {
  std::string Decls, Defs;
  for (unsigned K = 0; K < M; ++K) {
    std::string Name = "off" + std::to_string(K);
    Decls += "  integer " + Name + "(101)\n";
    Defs += "    " + Name + "(1) = 1\n    do i = 1, n\n      " + Name +
            "(i + 1) = " + Name + "(i) + len(i)\n    end do\n";
  }
  auto P = parseOrAbort("program many\n  integer i, j, n\n"
                        "  integer len(100)\n" +
                        Decls + R"(  real data(2000)
  procedure setup
    do i = 1, n
      len(i) = mod(i * 3, 7) + 1
    end do
)" + Defs + R"(  end
  n = 100
  call setup
  use: do i = 1, n
    do j = 1, len(i)
      data(off0(i) + j - 1) = 1.0
    end do
  end do
end)");
  analysis::SymbolUses Uses(*P);
  cfg::Hcg G(*P);
  sec::Section S = sec::Section::interval(
      sym::SymExpr::constant(1), sym::SymExpr::var(P->findSymbol("n")) - 1);
  const mf::DoStmt *Use = P->findLoop("use");
  auto Cfd = [&](analysis::PropertySolver &Solver, const mf::Symbol *Off) {
    auto D = analysis::ClosedFormDistanceChecker::discoverDistance(*P, Off);
    if (!D)
      return analysis::PropertyResult();
    analysis::ClosedFormDistanceChecker C(Off, *D, Uses);
    return Solver.verifyBefore(Use, C, S);
  };
  analysis::PropertySolver DemandSolver(G, Uses);
  analysis::PropertyResult Demand = Cfd(DemandSolver, P->findSymbol("off0"));
  if (!Demand.Verified)
    std::printf("  (unexpected: demand query failed)\n");
  unsigned Exhaustive = 0;
  analysis::PropertySolver Solver(G, Uses);
  for (unsigned K = 0; K < M; ++K) {
    const mf::Symbol *Off = P->findSymbol("off" + std::to_string(K));
    Exhaustive += Cfd(Solver, Off).NodesVisited;
    analysis::ClosedFormBoundChecker B(Off, Uses);
    Exhaustive += Solver.verifyBefore(Use, B, S).NodesVisited;
  }
  return {Demand.NodesVisited, Exhaustive};
}

/// Sec. 3.2.2: the query solver walks in reverse topological order and
/// stops the whole solve at the first kill. \p Filler statements separate
/// the offset definitions from the use, and the kill (a scatter into off)
/// sits near the use or near the definitions. Returns the nodes visited in
/// each placement.
std::pair<unsigned, unsigned> earlyTermVisits(unsigned Filler) {
  auto Visits = [&](bool KillNearUse) {
    std::string Pad;
    for (unsigned I = 0; I < Filler; ++I)
      Pad += "  y(" + std::to_string(I % 90 + 1) + ") = 0.5\n";
    std::string Kill = "  off(perm(2)) = 9\n";
    auto P = parseOrAbort(R"(program killer
  integer i, j, n, t
  integer off(101), len(100), perm(10)
  real data(2000), y(100)
  n = 100
  do i = 1, n
    len(i) = mod(i * 3, 7) + 1
  end do
  off(1) = 1
  do i = 1, n
    off(i + 1) = off(i) + len(i)
  end do
)" + (KillNearUse ? Pad + Kill : Kill + Pad) +
                          R"(  use: do i = 1, n
    do j = 1, len(i)
      data(off(i) + j - 1) = 1.0
    end do
  end do
end)");
    analysis::SymbolUses Uses(*P);
    cfg::Hcg G(*P);
    analysis::PropertySolver Solver(G, Uses);
    const mf::Symbol *Off = P->findSymbol("off");
    auto D = analysis::ClosedFormDistanceChecker::discoverDistance(*P, Off);
    analysis::ClosedFormDistanceChecker C(Off, *D, Uses);
    sec::Section S = sec::Section::interval(
        sym::SymExpr::constant(1), sym::SymExpr::var(P->findSymbol("n")) - 1);
    analysis::PropertyResult R = Solver.verifyBefore(P->findLoop("use"), C, S);
    if (R.Verified)
      std::printf("  (unexpected: the kill should defeat the query)\n");
    return R.NodesVisited;
  };
  return {Visits(true), Visits(false)};
}

} // namespace

void bench::ablation() {
  std::printf("\n=== Ablations: nodes visited with each design choice vs "
              "without it ===\n");
  std::printf("%-14s %-22s %8s %8s %10s %8s\n", "choice", "baseline", "size",
              "visits", "baseline", "ratio");
  auto Print = [&](const char *Choice, const char *Baseline, unsigned Size,
                   std::pair<unsigned, unsigned> V) {
    double Ratio = double(V.second) / std::max(1u, V.first);
    std::printf("%-14s %-22s %8u %8u %10u %7.1fx\n", Choice, Baseline, Size,
                V.first, V.second, Ratio);
  };
  for (unsigned Tail : {10u, 100u, 1000u, 10000u})
    Print("bounded-dfs", "unbounded DFS", Tail, bdfsVisits(Tail));
  for (unsigned M : {2u, 8u, 32u})
    Print("demand-driven", "exhaustive queries", M, demandVisits(M));
  for (unsigned Filler : {10u, 100u, 1000u})
    Print("early-term", "kill near definitions", Filler,
          earlyTermVisits(Filler));
  std::printf(
      "\nsize is the region's trailing statements (bounded-dfs), the index "
      "arrays defined (demand-driven), or the statements between the "
      "definitions and the use (early-term, where the choice's row puts the "
      "kill near the use). The bounded search is O(distance to the next "
      "array write), demand-driven cost does not grow with the arrays a "
      "program defines, and a kill near the use ends the solve after a "
      "constant number of nodes.\n\n");
}
