//===- perfbench/src/Programs.cpp - Seeded workload inputs ----------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "Programs.h"

#include "Pipeline.h"

#include "support/Json.h"

#include <map>
#include <numeric>

using namespace perfbench;
namespace bp = iaa::benchprogs;

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

namespace {

/// Independent streams per purpose, so adding draws to one input never
/// shifts another.
Rng stream(uint64_t Seed, uint64_t Purpose, uint64_t A = 0, uint64_t B = 0) {
  Rng R(Seed ^ (Purpose * 0x632be59bd9b4e019ULL));
  R = Rng(R.next() ^ (A * 0x8cb92ba72f3d8dd7ULL) ^ (B + 0x2545f4914f6cdd1dULL));
  return R;
}

std::string subst(std::string Template, const std::map<std::string, long> &V) {
  for (const auto &[Key, Value] : V) {
    std::string Needle = "@" + Key + "@", Repl = std::to_string(Value);
    for (size_t Pos = 0;
         (Pos = Template.find(Needle, Pos)) != std::string::npos;
         Pos += Repl.size())
      Template.replace(Pos, Needle.size(), Repl);
  }
  return Template;
}

/// Inserts a comment line after the `program` header so otherwise equal
/// sources get distinct content keys.
std::string salted(const std::string &Source, const std::string &Salt) {
  size_t Eol = Source.find('\n');
  return Source.substr(0, Eol + 1) + "  ! " + Salt + "\n" +
         Source.substr(Eol + 1);
}

/// A multiplier for index maps i -> (i * M + O) mod Mod, Mod a power of
/// two: odd, so the map permutes Z / Mod, and near Mod / golden ratio, so
/// consecutive i land far apart whatever the seed. A seed only shifts it
/// slightly, which keeps the access pattern, and so the cost, alike across
/// seeds.
long scatterMultiplier(Rng &R, long Mod) {
  return (long(0.6180339887 * double(Mod)) + 2 * long(R.below(512))) | 1L;
}

/// A multiplier M with M mod K != 0, so (i * M + O) mod K cycles through
/// every residue and the lengths it drives average (K + 1) / 2 per seed.
long cyclingMultiplier(Rng &R, long K) {
  return K * (1 + long(R.below(10000))) + 1 + long(R.below(uint64_t(K - 1)));
}

const char *SparseTemplate = R"(program spark
  ! sparse_large seed @SEED@ program @INDEX@
  integer i, j, k, r, n, nr, nc, p
  integer rowptr(@NR1@), colidx(@NNZ@), colcnt(@NC@), colptr(@NC1@)
  integer pos(@N@), perm(@N@), dup(@N@)
  real a(@NNZ@), xv(@NC@), y(@NR@), v(@NNZC@), x(@NX@)
  real w(@N@), z(@N@), q(@N@)
  real s
  n = @N@
  nr = @NR@
  nc = @NC@
  rowptr(1) = 1
  rows: do i = 1, nr
    rowptr(i + 1) = rowptr(i) + mod(i * @E1@ + @E2@, 7) + 1
  end do
  cols: do k = 1, @NNZ@
    colidx(k) = mod(k * @G1@ + @G2@, nc) + 1
    a(k) = mod(k, 13) * 0.125 + 0.5
  end do
  xinit: do j = 1, nc
    xv(j) = mod(j * 3, 11) * 0.25
  end do
  spmv: do i = 1, nr
    s = 0.0
    do k = rowptr(i), rowptr(i + 1) - 1
      s = s + a(k) * xv(colidx(k))
    end do
    y(i) = s
  end do
  colptr(1) = 1
  ccs: do j = 1, nc
    colcnt(j) = mod(j * @C1@ + @C2@, 7) + 1
    colptr(j + 1) = colptr(j) + colcnt(j)
  end do
  vinit: do k = 1, @NNZC@
    v(k) = mod(k, 17) * 0.0625
  end do
  seg: do j = 1, nc
    do k = 1, colcnt(j)
      v(colptr(j) + k - 1) = v(colptr(j) + k - 1) * 1.0625 + xv(j)
    end do
  end do
  winit: do i = 1, n
    w(i) = mod(i * 5, 19) * 0.125
    perm(i) = mod(i * @P1@ + @P2@, n) + 1
    dup(i) = mod(i * @D1@ + @D2@, @NH@) + 1
  end do
  p = 0
  pfx: do i = 1, n
    p = p + mod(i * @R1@ + @R2@, 3) + 1
    pos(i) = p
  end do
  scat: do i = 1, n
    x(pos(i)) = x(pos(i)) + w(i) * 0.5
  end do
  sweep: do r = 1, @SWEEPS@
    pscat: do i = 1, n
      z(perm(i)) = z(perm(i)) * 0.5 + w(i)
    end do
  end do
  dscat: do i = 1, n
    q(dup(i)) = q(dup(i)) + w(i)
  end do
end
)";

} // namespace

std::vector<bp::BenchmarkProgram> perfbench::paperPrograms() {
  return bp::allBenchmarks(1.0);
}

std::vector<unsigned> perfbench::roundOrder(uint64_t Seed, unsigned Workload,
                                            unsigned Round, unsigned N) {
  std::vector<unsigned> Order(N);
  std::iota(Order.begin(), Order.end(), 0u);
  Rng R = stream(Seed, 1 + Workload, Round);
  R.shuffle(Order);
  return Order;
}

bp::BenchmarkProgram perfbench::sparseProgram(uint64_t Seed, unsigned Index) {
  Rng R = stream(Seed, 10, Index);
  const long N = SparseN, NR = N / 4, NC = N / 4;
  long E1 = cyclingMultiplier(R, 7), E2 = long(R.below(1000));
  long C1 = cyclingMultiplier(R, 7), C2 = long(R.below(1000));
  // Row and column lengths are 1 + ((i * M + O) mod 7); the extents of the
  // arrays they size are computed here exactly.
  long NNZ = 0, NNZC = 0;
  for (long I = 1; I <= NR; ++I)
    NNZ += (I * E1 + E2) % 7 + 1;
  for (long J = 1; J <= NC; ++J)
    NNZC += (J * C1 + C2) % 7 + 1;

  bp::BenchmarkProgram P;
  P.Name = "spark" + std::to_string(Index);
  P.Source = subst(SparseTemplate,
                   {{"SEED", long(Seed % 1000000007)},
                    {"INDEX", long(Index)},
                    {"N", N},
                    {"NH", N / 2},
                    {"NR", NR},
                    {"NR1", NR + 1},
                    {"NC", NC},
                    {"NC1", NC + 1},
                    {"NNZ", NNZ},
                    {"NNZC", NNZC},
                    {"NX", 3 * N},
                    {"E1", E1},
                    {"E2", E2},
                    {"C1", C1},
                    {"C2", C2},
                    {"G1", scatterMultiplier(R, NC)},
                    {"G2", long(R.below(NC))},
                    {"P1", scatterMultiplier(R, N)},
                    {"P2", long(R.below(N))},
                    {"D1", scatterMultiplier(R, N / 2)},
                    {"D2", long(R.below(N))},
                    {"R1", cyclingMultiplier(R, 3)},
                    {"R2", long(R.below(97))},
                    {"SWEEPS", 4}});
  P.IrregularLoops = {"spmv", "seg", "scat", "pscat", "dscat"};
  return P;
}

std::string perfbench::compileSource(unsigned Program, unsigned Scale,
                                     const std::string &Salt) {
  return salted(bp::allBenchmarks(ServiceScales[Scale])[Program].Source, Salt);
}

std::string perfbench::repeatSource(uint64_t Seed, unsigned Client,
                                    unsigned Index) {
  const auto Progs = bp::allBenchmarks(0.05);
  return salted(Progs[Index % Progs.size()].Source,
                "repeat seed " + std::to_string(Seed) + " client " +
                    std::to_string(Client) + " program " +
                    std::to_string(Index));
}

std::string perfbench::faultSource() {
  return R"(program tenant
  integer i, n
  integer d(4000)
  real q(4000)
  n = 4000
  fill: do i = 1, n
    d(i) = i - 2000
  end do
  lp: do i = 1, n
    q(i) = 100 / d(i)
  end do
end
)";
}

namespace {

std::string runLine(const std::string &Id, const std::string &Source) {
  return "{\"id\": " + iaa::json::str(Id) +
         ", \"op\": \"run\", \"threads\": " +
         std::to_string(ServiceRequestThreads) +
         ", \"schedule\": \"" + iaa::interp::scheduleName(OpSchedule) +
         "\", \"engine\": \"vm\", \"runtime_checks\": true, \"audit\": "
         "\"strict\", \"source\": " +
         iaa::json::str(Source) + "}";
}

} // namespace

std::vector<ServiceRequest> perfbench::serviceBlock(uint64_t Seed,
                                                    unsigned Client,
                                                    unsigned Block) {
  Rng R = stream(Seed, 11, Client, Block);
  std::vector<ServiceRequest> Out;
  // 10 compiles: TRFD, BDNA, P3M and TREE once, DYFESM six times, the same
  // list in every block so the mix does not depend on the seed. Sorted by
  // latency, the faults and the four quick compiles (1-2 ms) hold the
  // lowest 35% of requests, DYFESM's compiles (about 5 ms, the ones that
  // query the property solver most) the next 30%, and the runs the rest:
  // the median of the whole mix falls in the middle of DYFESM's cluster,
  // not on the steep edge between two clusters, where a small shift in
  // either would move it far.
  for (unsigned P : {0u, 2u, 3u, 4u, 1u, 1u, 1u, 1u, 1u, 1u})
    Out.push_back({ServiceRequest::Kind::Compile, P, 0, "", ""});
  // Repeat picks walk seeded permutations of the client's repeat programs,
  // so every eight blocks use each program equally often.
  for (unsigned I = 0; I < 7; ++I) {
    unsigned Pick = Block * 7 + I;
    std::vector<unsigned> Perm(RepeatPrograms);
    std::iota(Perm.begin(), Perm.end(), 0u);
    Rng PermRng = stream(Seed, 12, Client, Pick / RepeatPrograms);
    PermRng.shuffle(Perm);
    Out.push_back({ServiceRequest::Kind::Repeat, Perm[Pick % RepeatPrograms],
                   0, "", ""});
  }
  for (unsigned I = 0; I < 3; ++I)
    Out.push_back({ServiceRequest::Kind::Fault, 0, 0, "", ""});
  R.shuffle(Out);

  for (unsigned I = 0; I < Out.size(); ++I) {
    ServiceRequest &Q = Out[I];
    std::string Id = "c" + std::to_string(Client) + "-b" +
                     std::to_string(Block) + "-" + std::to_string(I);
    switch (Q.K) {
    case ServiceRequest::Kind::Compile: {
      Q.Scale = unsigned(R.below(std::size(ServiceScales)));
      Q.Source = compileSource(
          Q.Program, Q.Scale,
          "compile seed " + std::to_string(Seed) + " request " + Id);
      Q.Line = "{\"id\": " + iaa::json::str(Id) +
               ", \"op\": \"compile\", \"audit\": \"strict\", \"source\": " +
               iaa::json::str(Q.Source) + "}";
      break;
    }
    case ServiceRequest::Kind::Repeat:
      Q.Source = repeatSource(Seed, Client, Q.Program);
      Q.Line = runLine(Id, Q.Source);
      break;
    case ServiceRequest::Kind::Fault:
      Q.Source = faultSource();
      Q.Line = runLine(Id, Q.Source);
      break;
    }
  }
  return Out;
}
