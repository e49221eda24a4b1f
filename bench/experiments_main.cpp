//===- bench/experiments_main.cpp - The iaa_experiments program -----------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// Usage: iaa_experiments [NAME...]
///
/// Runs the named experiments in order, or all of them when no name is
/// given. IAA_BENCH_SCALE shrinks the inputs (CI runs the gates at 0.05).
/// An unknown name prints the usage and exits 2.
///
//===----------------------------------------------------------------------===//

#include "Experiments.h"

#include "mf/Parser.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iterator>

using namespace iaa;
using namespace iaa::bench;

std::unique_ptr<mf::Program> bench::parseOrAbort(const std::string &Source) {
  DiagnosticEngine Diags;
  std::unique_ptr<mf::Program> P = mf::parseProgram(Source, Diags);
  if (!P) {
    std::fprintf(stderr, "experiment program failed to parse:\n%s\n",
                 Diags.str().c_str());
    std::abort();
  }
  return P;
}

Compiled bench::compile(const benchprogs::BenchmarkProgram &B,
                        xform::PipelineMode Mode) {
  Compiled C;
  C.Program = parseOrAbort(B.Source);
  C.Pipeline = xform::parallelize(*C.Program, Mode);
  return C;
}

static double cpuSeconds() {
  timespec TS;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &TS);
  return TS.tv_sec + TS.tv_nsec * 1e-9;
}

Outcome bench::run(const Compiled &C, interp::ExecOptions Opts) {
  if (Opts.Threads > 1)
    Opts.Plans = &C.Pipeline;
  interp::Interpreter I(*C.Program);
  Outcome R;
  double Begin = cpuSeconds();
  interp::Memory M = I.run(Opts, &R.Stats);
  R.CpuSeconds = cpuSeconds() - Begin;
  R.Faulted = I.faultState().Faulted;
  R.Checksum = M.checksumExcluding(interp::deadPrivateIds(C.Pipeline));
  return R;
}

double bench::benchScale() {
  if (const char *Env = std::getenv("IAA_BENCH_SCALE"))
    return std::atof(Env);
  return 1.0;
}

benchprogs::BenchmarkProgram
bench::permutationScatter(const std::string &Name, int64_t N, int64_t Reps) {
  while (N % 7 == 0 || N % 9 == 0)
    ++N;
  char Buf[1024];
  std::snprintf(Buf, sizeof(Buf), R"(program t
    integer i, r, n
    integer ind(%lld)
    real x(%lld), y(%lld)
    n = %lld
    init: do i = 1, n
      ind(i) = mod(i * 7, n) + 1
      x(i) = mod(i, 17) * 0.5
      y(i) = mod(i, 9) * 0.25
    end do
    rep: do r = 1, %lld
      scat: do i = 1, n
        x(ind(i)) = x(ind(i)) + y(i) * 0.5
      end do
    end do
  end)",
                (long long)N, (long long)N, (long long)N, (long long)N,
                (long long)Reps);
  benchprogs::BenchmarkProgram B;
  B.Name = Name;
  B.Source = Buf;
  B.IrregularLoops = {"scat"};
  return B;
}

benchprogs::BenchmarkProgram bench::ccsBuild(const std::string &Name,
                                             int64_t Cols, int64_t Reps,
                                             bool Fused) {
  const std::string N = std::to_string(Cols);
  const std::string Vals = std::to_string(Cols * 7);
  std::string S = "program ccs\n  integer i, j, r, n\n  integer colptr(" +
                  std::to_string(Cols + 1) + "), colcnt(" + N + ")" +
                  (Fused ? "" : ", perm(" + N + ")") + "\n  real vals(" +
                  Vals + ")\n  n = " + N + "\n  colptr(1) = 1\n";
  if (!Fused)
    S += "  mkperm: do i = 1, n\n    perm(i) = i\n  end do\n";
  S += std::string("  build: do i = 1, n\n    colcnt(") +
       (Fused ? "i" : "perm(i)") + ") = mod(i * 5, 7) + 1\n" +
       "    colptr(i + 1) = colptr(i) + colcnt(i)\n  end do\n" +
       "  fill: do i = 1, " + Vals + "\n" +
       "    vals(i) = mod(i, 13) * 0.125\n  end do\n" +
       "  rep: do r = 1, " + std::to_string(Reps) + "\n" +
       "    scale: do i = 1, n\n      do j = 1, colcnt(i)\n" +
       "        vals(colptr(i) + j - 1) = vals(colptr(i) + j - 1) * 1.0625"
       " + 0.25\n" +
       "      end do\n    end do\n  end do\nend\n";
  benchprogs::BenchmarkProgram B;
  B.Name = Name;
  B.Source = S;
  B.IrregularLoops = {"scale"};
  return B;
}

void JsonReport::row(
    const std::vector<std::pair<std::string, std::string>> &Fields) {
  std::string R = "{";
  for (size_t I = 0; I < Fields.size(); ++I) {
    if (I)
      R += ", ";
    R += json::str(Fields[I].first) + ": " + Fields[I].second;
  }
  Rows.push_back(R + "}");
}

void JsonReport::write() const {
  std::string Path = "BENCH_" + Name + ".json";
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "warning: cannot write %s\n", Path.c_str());
    return;
  }
  Out << "{\"bench\": " << json::str(Name) << ", \"rows\": [\n";
  for (size_t I = 0; I < Rows.size(); ++I)
    Out << "  " << Rows[I] << (I + 1 < Rows.size() ? ",\n" : "\n");
  Out << "]}\n";
  std::printf("bench JSON written to %s (%zu rows)\n", Path.c_str(),
              Rows.size());
}

namespace {

const struct {
  const char *Name;
  void (*Run)();
} Experiments[] = {
    {"table2", bench::table2},
    {"table3", bench::table3},
    {"fig16", bench::fig16},
    {"ablation", bench::ablation},
    {"schedule", bench::schedule},
    {"locality", bench::locality},
    {"recurrence", bench::recurrence},
    {"runtime_check", bench::runtimeCheck},
    {"profile", bench::profile},
    {"vm", bench::vm},
};

int usage() {
  std::fprintf(stderr, "usage: iaa_experiments [NAME...]\nnames:");
  for (const auto &E : Experiments)
    std::fprintf(stderr, " %s", E.Name);
  std::fprintf(stderr, "\nWith no name, every experiment runs. "
                       "IAA_BENCH_SCALE scales the inputs (default 1).\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::vector<void (*)()> Selected;
  for (int A = 1; A < argc; ++A) {
    auto It = std::find_if(std::begin(Experiments), std::end(Experiments),
                           [&](const auto &E) {
                             return std::strcmp(E.Name, argv[A]) == 0;
                           });
    if (It == std::end(Experiments))
      return usage();
    Selected.push_back(It->Run);
  }
  if (Selected.empty())
    for (const auto &E : Experiments)
      Selected.push_back(E.Run);
  for (void (*Run)() : Selected)
    Run();
  return 0;
}
