//===- perfbench/src/Spans.cpp - In-memory span recorder ------------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "support/Json.h"

#include <fstream>

using namespace perfbench;

std::string perfbench::layerOf(const std::string &SpanName) {
  std::string Layer = SpanName.substr(0, SpanName.find('.'));
  return Layer == "protocol" ? "server" : Layer;
}

void Tracer::append(const Tracer &Other) {
  int Base = int(Spans.size());
  for (Span S : Other.Spans) {
    if (S.Parent >= 0)
      S.Parent += Base;
    Spans.push_back(std::move(S));
  }
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    double D = Spans[I].End - Spans[I].Start;
    Self[I] += D;
    if (Spans[I].Parent >= 0)
      Self[Spans[I].Parent] -= D;
  }
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    Out[layerOf(Spans[I].Name)] += Self[I];
  return Out;
}

bool Tracer::writeJsonl(const std::string &Path) const {
  std::ofstream F(Path);
  if (!F)
    return false;
  double T0 = Spans.empty() ? 0 : Spans.front().Start;
  for (const Span &S : Spans)
    F << "{\"name\": " << iaa::json::str(S.Name)
      << ", \"start_us\": " << iaa::json::num((S.Start - T0) * 1e6)
      << ", \"end_us\": " << iaa::json::num((S.End - T0) * 1e6)
      << ", \"parent\": " << S.Parent << ", \"op\": " << S.Op << "}\n";
  return bool(F);
}
