//===- bench/bench_ablation.cpp - Design-choice ablations ---------------------===//
//
// Part of egglog-cpp. Google-benchmark microbenchmarks for the design
// choices DESIGN.md calls out:
//   * worst-case-optimal generic join vs naive nested-loop join (§5.1),
//   * semi-naïve vs naïve evaluation (§4.3),
//   * rebuilding cost as unions accumulate (§5.1),
//   * the core data structures (table, union-find).
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "core/Frontend.h"
#include "core/Query.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <string_view>
#include <vector>

using namespace egglog;

namespace {

/// --full-rebuild: force every EGraph in this process onto the legacy
/// full-sweep rebuild, so CI can record incremental-vs-sweep trajectories
/// as two artifacts of the same binary.
bool FullRebuildFlag = false;

/// --threads N: match-phase concurrency for the engine-level benchmarks
/// and the single-line JSON phase record emitted after the run.
unsigned ThreadsFlag = 1;

/// Builds an edge relation shaped like a sparse random graph.
void populateEdges(EGraph &G, FunctionId Edge, unsigned Nodes,
                   unsigned Edges, uint32_t Seed) {
  std::mt19937 Rng(Seed);
  std::uniform_int_distribution<int64_t> Node(0, Nodes - 1);
  for (unsigned I = 0; I < Edges; ++I) {
    Value Keys[2] = {G.mkI64(Node(Rng)), G.mkI64(Node(Rng))};
    G.setValue(Edge, Keys, G.mkUnit());
  }
}

Query triangleQuery(EGraph &G, FunctionId Edge) {
  Query Q;
  Q.NumVars = 3;
  Q.VarSorts = {SortTable::I64Sort, SortTable::I64Sort, SortTable::I64Sort};
  auto Atom = [&](uint32_t A, uint32_t B) {
    QueryAtom Result;
    Result.Func = Edge;
    Result.Terms = {VarOrConst::makeVar(A), VarOrConst::makeVar(B),
                    VarOrConst::makeConst(G.mkUnit())};
    return Result;
  };
  Q.Atoms = {Atom(0, 1), Atom(1, 2), Atom(2, 0)};
  return Q;
}

void BM_TriangleJoin(benchmark::State &State, bool GenericJoin) {
  unsigned Nodes = static_cast<unsigned>(State.range(0));
  EGraph G;
  FunctionDecl Decl;
  Decl.Name = "edge";
  Decl.ArgSorts = {SortTable::I64Sort, SortTable::I64Sort};
  Decl.OutSort = SortTable::UnitSort;
  FunctionId Edge = G.declareFunction(std::move(Decl));
  populateEdges(G, Edge, Nodes, Nodes * 8, 42);
  Query Q = triangleQuery(G, Edge);

  for (auto _ : State) {
    size_t Count = 0;
    executeQuery(
        G, Q, {}, 0, [&](const std::vector<Value> &) { ++Count; },
        GenericJoin);
    benchmark::DoNotOptimize(Count);
  }
}

void BM_GenericJoinTriangle(benchmark::State &State) {
  BM_TriangleJoin(State, /*GenericJoin=*/true);
}
void BM_NestedLoopTriangle(benchmark::State &State) {
  BM_TriangleJoin(State, /*GenericJoin=*/false);
}

/// Transitive closure of a long chain: the semi-naïve sweet spot.
void BM_TransitiveClosure(benchmark::State &State, bool SemiNaive) {
  unsigned Length = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    Frontend F;
    F.graph().setFullRebuild(FullRebuildFlag);
    F.engine().setThreads(ThreadsFlag);
    F.runOptions().SemiNaive = SemiNaive;
    std::string Program = R"(
      (relation edge (i64 i64))
      (relation path (i64 i64))
      (rule ((edge x y)) ((path x y)))
      (rule ((path x y) (edge y z)) ((path x z)))
    )";
    for (unsigned I = 0; I < Length; ++I)
      Program += "(edge " + std::to_string(I) + " " + std::to_string(I + 1) +
                 ")\n";
    Program += "(run)\n";
    bool Ok = F.execute(Program);
    if (!Ok)
      State.SkipWithError(F.error().c_str());
    benchmark::DoNotOptimize(Ok);
  }
}

void BM_SemiNaiveTC(benchmark::State &State) {
  BM_TransitiveClosure(State, /*SemiNaive=*/true);
}
void BM_NaiveTC(benchmark::State &State) {
  BM_TransitiveClosure(State, /*SemiNaive=*/false);
}

/// Rebuild cost: N terms f(x_i), then union \p Unions of the x_i pairwise
/// and rebuild. Unions == N/2 is a merge storm (the bulk-sweep fallback);
/// a small fixed count is the worklist-driven sweet spot, where the old
/// full sweep still paid O(N) per rebuild.
void BM_Rebuild(benchmark::State &State, unsigned Unions) {
  unsigned N = static_cast<unsigned>(State.range(0));
  if (Unions == 0)
    Unions = N / 2;
  for (auto _ : State) {
    State.PauseTiming();
    EGraph G;
    G.setFullRebuild(FullRebuildFlag);
    SortId S = G.declareSort("T");
    FunctionDecl Decl;
    Decl.Name = "f";
    Decl.ArgSorts = {S};
    Decl.OutSort = S;
    FunctionId F = G.declareFunction(std::move(Decl));
    std::vector<Value> Ids;
    for (unsigned I = 0; I < N; ++I)
      Ids.push_back(G.freshId(S));
    Value Out;
    for (unsigned I = 0; I < N; ++I)
      G.getOrCreate(F, &Ids[I], Out);
    for (unsigned I = 0; I + 1 < N && I / 2 < Unions; I += 2)
      G.unionValues(Ids[I], Ids[I + 1]);
    State.ResumeTiming();
    G.rebuild();
    benchmark::DoNotOptimize(G.liveTupleCount());
  }
}

void BM_RebuildAfterUnions(benchmark::State &State) {
  BM_Rebuild(State, /*Unions=*/0); // N/2: every id pair merged
}
void BM_RebuildSparseUnions(benchmark::State &State) {
  BM_Rebuild(State, /*Unions=*/8); // a handful of merges in a big database
}

void BM_TableInsertLookup(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    Table T(2);
    for (unsigned I = 0; I < N; ++I) {
      Value Keys[2] = {Value(2, I), Value(2, I * 7 % N)};
      T.insert(Keys, Value(2, I), 0);
    }
    size_t Hits = 0;
    for (unsigned I = 0; I < N; ++I) {
      Value Keys[2] = {Value(2, I), Value(2, I * 7 % N)};
      Hits += T.lookup(Keys).has_value();
    }
    benchmark::DoNotOptimize(Hits);
  }
}

void BM_UnionFind(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  std::mt19937 Rng(7);
  for (auto _ : State) {
    UnionFind UF;
    for (unsigned I = 0; I < N; ++I)
      UF.makeSet();
    std::uniform_int_distribution<uint64_t> Pick(0, N - 1);
    for (unsigned I = 0; I < N; ++I)
      UF.unite(Pick(Rng), Pick(Rng));
    uint64_t Sum = 0;
    for (unsigned I = 0; I < N; ++I)
      Sum += UF.find(I);
    benchmark::DoNotOptimize(Sum);
  }
}

} // namespace

BENCHMARK(BM_GenericJoinTriangle)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_NestedLoopTriangle)->Arg(64)->Arg(256);
BENCHMARK(BM_SemiNaiveTC)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK(BM_NaiveTC)->Arg(32)->Arg(64);
BENCHMARK(BM_RebuildAfterUnions)->Arg(1000)->Arg(10000);
BENCHMARK(BM_RebuildSparseUnions)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_TableInsertLookup)->Arg(1000)->Arg(100000);
BENCHMARK(BM_UnionFind)->Arg(1000)->Arg(100000);

namespace {

/// One single-line JSON phase record mirroring bench_math/bench_pointsto:
/// a dense transitive closure driven end to end at --threads N, with the
/// engine's per-phase split, so the perf trajectory can attribute the
/// match/apply cost even from the ablation artifact. On stderr, because
/// stdout may be carrying --benchmark_format=json output.
void emitPhaseRecord() {
  Frontend F;
  F.graph().setFullRebuild(FullRebuildFlag);
  F.engine().setThreads(ThreadsFlag);
  std::string Program = R"(
    (relation edge (i64 i64))
    (relation path (i64 i64))
    (rule ((edge x y)) ((path x y)))
    (rule ((path x y) (edge y z)) ((path x z)))
  )";
  // A chain plus chords: quadratic path count, join-heavy matching.
  constexpr unsigned Length = 384;
  for (unsigned I = 0; I < Length; ++I) {
    Program += "(edge " + std::to_string(I) + " " + std::to_string(I + 1) +
               ")\n";
    if (I % 7 == 0)
      Program +=
          "(edge " + std::to_string(I) + " " + std::to_string(I / 2) + ")\n";
  }
  Program += "(run)\n";
  if (!F.execute(Program)) {
    std::fprintf(stderr, "phase record failed: %s\n", F.error().c_str());
    return;
  }
  const Frontend::PhaseTotals &T = F.phaseTotals();
  std::fprintf(stderr,
               "{\"bench\": \"ablation_tc\", \"system\": \"egglog\", "
               "\"iterations\": %zu, \"threads\": %u, \"match_s\": %.6f, "
               "\"apply_s\": %.6f, \"rebuild_s\": %.6f, \"total_s\": %.6f}\n",
               T.Iterations, ThreadsFlag, T.SearchSeconds, T.ApplySeconds,
               T.RebuildSeconds,
               T.SearchSeconds + T.ApplySeconds + T.RebuildSeconds);
}

} // namespace

// BENCHMARK_MAIN(), plus the --full-rebuild / --threads ablation flags
// (consumed here; everything else is forwarded to Google Benchmark, e.g.
// --benchmark_format=json for the CI artifacts).
int main(int argc, char **argv) {
  std::vector<char *> Args;
  for (int I = 0; I < argc; ++I) {
    if (std::string_view(argv[I]) == "--full-rebuild") {
      FullRebuildFlag = true;
      continue;
    }
    if (std::string_view(argv[I]) == "--threads") {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "missing value for --threads\n");
        return 1;
      }
      int N = std::atoi(argv[++I]);
      ThreadsFlag = N < 1 ? 1u : static_cast<unsigned>(N);
      continue;
    }
    Args.push_back(argv[I]);
  }
  int ForwardedArgc = static_cast<int>(Args.size());
  benchmark::Initialize(&ForwardedArgc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(ForwardedArgc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  emitPhaseRecord();
  benchmark::Shutdown();
  return 0;
}
