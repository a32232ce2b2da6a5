//===- perfbench/src/PointsToWorkload.cpp - Steensgaard points-to ---------===//
//
// Part of egglog-cpp's benchmark (see perfbench/README.md).
//
// Workload `pointsto`: the native egglog Steensgaard encoding over a
// seeded 30-program suite with postgresSuite's size ladder, analysed at 1
// and then at 4 engine threads in every round. Every partition is compared
// with the union-find oracle, which is itself checked against the sound
// Datalog encoding (System::Patched) and on hand-sized programs. Each round
// also runs the known-failing memory-ceiling operation.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "SteensgaardOracle.h"

#include "core/Frontend.h"
#include "pointsto/Analyses.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>
#include <unordered_map>

using namespace perfbench;
using namespace egglog;
using namespace egglog::pointsto;

namespace {

/// Engine thread counts of a round: the serial engine, then the thread
/// pool with parallel match, apply staging and parallel rebuild.
constexpr unsigned Widths[] = {1, 4};
constexpr size_t NumWidths = sizeof(Widths) / sizeof(Widths[0]);

/// Suite scale (1.0 = postgresSuite's default sizes), the same at 1 and 4
/// threads so that the two passes of a round compare directly. Larger
/// scales spend a growing share of each round in page faults (~233k per
/// round at 0.2), whose cost swings with the host's load.
constexpr double SuiteScale = 0.12;

/// Scale of the suite on which the oracle is checked against Patched, a
/// Datalog encoding that is quadratic in class sizes.
constexpr double PatchedScale = 0.03;

/// Ceiling for the memory-limit operation, in MiB. The analysis of the
/// largest program peaks far above it; see the README.
constexpr int MemoryCeilingMB = 16;

/// Renames the program's variables and base allocations by seeded
/// permutations (fields keep their numbering relative to their base) and
/// shuffles the order of every fact list. The analysis problem stays the
/// same up to renaming; what the engine sees changes: ids, insertion
/// order, index sort order and join order.
void relabel(Program &P, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::vector<uint32_t> Var(P.NumVars), Alloc(P.NumBaseAllocs);
  std::iota(Var.begin(), Var.end(), 0);
  std::iota(Alloc.begin(), Alloc.end(), 0);
  std::shuffle(Var.begin(), Var.end(), Rng);
  std::shuffle(Alloc.begin(), Alloc.end(), Rng);
  for (auto &[V, A] : P.Allocs) {
    V = Var[V];
    A = Alloc[A];
  }
  for (auto *Pairs : {&P.Copies, &P.Loads, &P.Stores})
    for (auto &[D, S] : *Pairs) {
      D = Var[D];
      S = Var[S];
    }
  for (auto &[D, B, F] : P.Geps) {
    D = Var[D];
    B = Var[B];
  }
  std::shuffle(P.Allocs.begin(), P.Allocs.end(), Rng);
  std::shuffle(P.Copies.begin(), P.Copies.end(), Rng);
  std::shuffle(P.Loads.begin(), P.Loads.end(), Rng);
  std::shuffle(P.Stores.begin(), P.Stores.end(), Rng);
  std::shuffle(P.Geps.begin(), P.Geps.end(), Rng);
}

/// postgresSuite's programs, each relabeled from a seed derived from the
/// workload seed. The structure of every program is kept: generated
/// programs of one size differ up to twofold in analysis time (a large
/// class forms or not), which made the suite's total depend on the seed
/// by ±15%; renaming keeps the work level across seeds.
std::vector<Program> seededSuite(uint64_t Seed, double Scale) {
  std::vector<Program> Suite = postgresSuite(Scale);
  for (size_t I = 0; I < Suite.size(); ++I)
    relabel(Suite[I], mixSeed(Seed, I));
  return Suite;
}

/// The same schema and rules as System::Egglog (pointsto/Analyses.cpp).
/// The traced run checks that driving this text stage by stage reaches
/// the same liveContentHash as runPointsTo, so the copy cannot drift.
const char *SteensgaardProgram = R"(
  (sort Obj)
  (relation allocR (i64 i64))
  (relation copyR (i64 i64))
  (relation loadR (i64 i64))
  (relation storeR (i64 i64))
  (relation gepR (i64 i64 i64))
  (relation fieldAllocR (i64 i64 i64))
  (function objOf (i64) Obj)
  (function vpt (i64) Obj)
  (function contents (Obj) Obj)
  (rule ((allocR v a)) ((union (vpt v) (objOf a))))
  (rule ((copyR d s)) ((union (vpt d) (vpt s))))
  (rule ((loadR d s)) ((union (vpt d) (contents (vpt s)))))
  (rule ((storeR d s)) ((union (contents (vpt d)) (vpt s))))
  (rule ((gepR d b f) (fieldAllocR a f fa) (= (vpt b) (objOf a)))
        ((union (vpt d) (objOf fa))))
  (rule ((fieldAllocR a f fa) (fieldAllocR b f fb)
         (= (objOf a) (objOf b)))
        ((union (objOf fa) (objOf fb))))
)";

FunctionId functionNamed(EGraph &G, const char *Name) {
  FunctionId Id = 0;
  G.lookupFunctionName(Name, Id);
  return Id;
}

/// Inserts the program's facts with EGraph::setValue.
void loadFacts(EGraph &G, const Program &P) {
  FunctionId AllocR = functionNamed(G, "allocR"),
             CopyR = functionNamed(G, "copyR"),
             LoadR = functionNamed(G, "loadR"),
             StoreR = functionNamed(G, "storeR"),
             GepR = functionNamed(G, "gepR"),
             FieldAllocR = functionNamed(G, "fieldAllocR");
  auto Fact2 = [&](FunctionId Rel, uint32_t A, uint32_t B) {
    Value Keys[2] = {G.mkI64(A), G.mkI64(B)};
    G.setValue(Rel, Keys, G.mkUnit());
  };
  for (auto [V, A] : P.Allocs)
    Fact2(AllocR, V, A);
  for (auto [D, S] : P.Copies)
    Fact2(CopyR, D, S);
  for (auto [D, S] : P.Loads)
    Fact2(LoadR, D, S);
  for (auto [D, S] : P.Stores)
    Fact2(StoreR, D, S);
  for (auto [D, B, F] : P.Geps) {
    Value Keys[3] = {G.mkI64(D), G.mkI64(B), G.mkI64(F)};
    G.setValue(GepR, Keys, G.mkUnit());
  }
  for (uint32_t A = 0; A < P.NumBaseAllocs; ++A)
    for (uint32_t F = 0; F < P.NumFields; ++F) {
      Value Keys[3] = {G.mkI64(A), G.mkI64(F), G.mkI64(P.fieldAlloc(A, F))};
      G.setValue(FieldAllocR, Keys, G.mkUnit());
    }
}

/// Reads the allocation partition off the `objOf` table.
std::vector<uint32_t> enginePartition(EGraph &G, const Program &P) {
  const Table &Objs = *G.function(functionNamed(G, "objOf")).Storage;
  std::unordered_map<uint64_t, uint32_t> ClassMin;
  for (size_t Row : Objs.liveRows()) {
    auto A = static_cast<uint32_t>(G.valueToI64(Objs.cell(Row, 0)));
    auto [It, Fresh] =
        ClassMin.emplace(G.canonicalize(Objs.cell(Row, 1)).Bits, A);
    if (!Fresh)
      It->second = std::min(It->second, A);
  }
  std::vector<uint32_t> Class(P.numAllAllocs());
  for (uint32_t A = 0; A < P.numAllAllocs(); ++A)
    Class[A] = A;
  for (size_t Row : Objs.liveRows()) {
    auto A = static_cast<uint32_t>(G.valueToI64(Objs.cell(Row, 0)));
    Class[A] = ClassMin[G.canonicalize(Objs.cell(Row, 1)).Bits];
  }
  return Class;
}

/// The known-failing operation: run the largest program under a memory
/// ceiling well below its peak. It passes only if the run stops with a
/// Limit error and rolls back to the pre-run content.
bool memoryCeilingHolds(const Program &P) {
  Frontend F;
  if (!F.execute(SteensgaardProgram))
    return false;
  loadFacts(F.graph(), P);
  if (!F.execute("(set-option :max-memory-mb " +
                 std::to_string(MemoryCeilingMB) + ")"))
    return false;
  uint64_t Before = F.graph().liveContentHash();
  bool Ran = F.execute("(run 1000000)");
  return !Ran && F.lastError().Kind == ErrKind::Limit &&
         F.graph().liveContentHash() == Before;
}

Program handProgram(const char *Name, uint32_t Vars, uint32_t Allocs,
                    uint32_t Fields) {
  Program P;
  P.Name = Name;
  P.NumVars = Vars;
  P.NumBaseAllocs = Allocs;
  P.NumFields = Fields;
  return P;
}

/// True if every class of \p Fine lies inside one class of \p Coarse.
bool refines(const std::vector<uint32_t> &Fine,
             const std::vector<uint32_t> &Coarse) {
  std::unordered_map<uint32_t, uint32_t> Image;
  for (size_t A = 0; A < Fine.size(); ++A)
    if (Image.emplace(Fine[A], Coarse[A]).first->second != Coarse[A])
      return false;
  return true;
}

/// Checks the oracle against hand-worked expectations and against the
/// Datalog encoding System::Patched, under the semantics Patched
/// implements (see SteensgaardOracle.h):
///  * the three hand-sized programs of PointsToTest, whose classes are
///    worked out by hand and equal under both semantics;
///  * PointsToTest's five generated size-80 programs, on which the test
///    pins Patched to agree with egglog: equal partitions;
///  * a small seeded suite: Patched's partition must refine the oracle's.
///    Patched propagates one representative per class through a
///    non-monotone relation and can miss unifications (CHANGES.md), so
///    where the two differ Patched must be the finer one.
void checkOracle(uint64_t Seed, Result &R) {
  Program Alias = handProgram("tiny", 4, 2, 1);
  Alias.Allocs = {{0, 0}, {1, 1}};
  Alias.Copies = {{0, 1}};
  Program Heap = handProgram("tiny-heap", 4, 3, 1);
  Heap.Allocs = {{0, 0}, {1, 1}, {3, 2}};
  Heap.Stores = {{0, 1}};
  Heap.Loads = {{2, 0}};
  Heap.Copies = {{2, 3}};
  Program Field = handProgram("tiny-field", 5, 3, 2);
  Field.Allocs = {{0, 0}, {1, 1}, {4, 2}};
  Field.Copies = {{0, 1}};
  Field.Geps = {{2, 0, 0}, {3, 1, 0}};

  for (PointsToSemantics Sem :
       {PointsToSemantics::Steensgaard, PointsToSemantics::NonEmptyOnly}) {
    std::vector<uint32_t> A = oraclePartition(Alias, Sem);
    R.check(A[0] == A[1], "oracle: a copy unifies pointees");
    std::vector<uint32_t> H = oraclePartition(Heap, Sem);
    R.check(H[1] == H[2] && H[0] != H[1],
            "oracle: load/store unify through the heap");
    std::vector<uint32_t> F = oraclePartition(Field, Sem);
    R.check(F[Field.fieldAlloc(0, 0)] == F[Field.fieldAlloc(1, 0)] &&
                F[Field.fieldAlloc(0, 0)] != F[Field.fieldAlloc(0, 1)],
            "oracle: field congruence, field sensitivity");
  }

  std::vector<Program> Pinned = {Alias, Heap, Field};
  for (uint32_t TestSeed : {11u, 22u, 33u, 44u, 55u}) {
    GeneratorOptions Opts;
    Opts.Seed = TestSeed;
    Opts.Size = 80;
    Pinned.push_back(generateProgram("prop" + std::to_string(TestSeed), Opts));
  }
  for (const Program &P : Pinned) {
    AnalysisResult Patched = runPointsTo(P, System::Patched, 60);
    R.check(!Patched.TimedOut &&
                Patched.AllocClass ==
                    oraclePartition(P, PointsToSemantics::NonEmptyOnly),
            "oracle disagrees with System::Patched on " + P.Name);
  }

  size_t Equal = 0;
  std::vector<Program> Small = seededSuite(mixSeed(Seed, 100), PatchedScale);
  for (const Program &P : Small) {
    AnalysisResult Patched = runPointsTo(P, System::Patched, 60);
    std::vector<uint32_t> Oracle =
        oraclePartition(P, PointsToSemantics::NonEmptyOnly);
    R.check(!Patched.TimedOut && refines(Patched.AllocClass, Oracle),
            "System::Patched unifies what the oracle keeps apart on " +
                P.Name);
    Equal += Patched.AllocClass == Oracle;
  }
  std::fprintf(stderr,
               "perfbench: oracle equals System::Patched on %zu of %zu "
               "programs at scale %.2f\n",
               Equal, Small.size(), PatchedScale);
}

} // namespace

void perfbench::runPointsToWorkload(const Settings &S, Result &R) {
  // Set-up: generate the inputs and declare the schema and rules.
  std::vector<Program> Suite;
  std::vector<double> SetupTimes;
  auto SetUp = [&] {
    double T0 = nowSeconds();
    Suite = seededSuite(S.Seed, SuiteScale);
    Frontend F;
    bool Declared = F.execute(SteensgaardProgram);
    SetupTimes.push_back(nowSeconds() - T0);
    return R.check(Declared, "schema failed to load: " + F.error());
  };
  for (int Rep = 0; Rep < SetupRepeats; ++Rep)
    if (!SetUp())
      return;
  // The ceiling operation's input does not depend on the seed.
  Program Largest = postgresSuite(SuiteScale).back();

  checkOracle(S.Seed, R);
  std::vector<std::vector<uint32_t>> Expected;
  for (const Program &P : Suite)
    Expected.push_back(oraclePartition(P, PointsToSemantics::Steensgaard));

  // Content hashes of the first round, per thread count and program.
  std::vector<uint64_t> Hashes[NumWidths];
  for (auto &H : Hashes)
    H.assign(Suite.size(), 0);
  // One untraced pass over the suite at every thread count: runPointsTo
  // as a black box, then the ceiling operation. Fills the summed analysis
  // times per thread count and returns the wall time of the analyses
  // (without the ceiling operation), the base of the tracing overhead.
  auto UntracedPass = [&](double (&Totals)[NumWidths]) {
    double W0 = nowSeconds();
    for (size_t W = 0; W < NumWidths; ++W) {
      Totals[W] = 0;
      for (size_t I = 0; I < Suite.size(); ++I) {
        AnalysisResult A =
            runPointsTo(Suite[I], System::Egglog, 0, Widths[W]);
        R.attempt(!A.TimedOut);
        Totals[W] += A.Seconds;
        R.check(A.AllocClass == Expected[I],
                "partition differs from the oracle on " + Suite[I].Name);
        if (Hashes[W][I] == 0)
          Hashes[W][I] = A.ContentHash;
        R.check(A.ContentHash == Hashes[W][I],
                "content hash changed between rounds on " + Suite[I].Name);
      }
    }
    double Wall = nowSeconds() - W0;
    R.attempt(memoryCeilingHolds(Largest));
    return Wall;
  };

  double Start = nowSeconds();
  if (!S.Trace) {
    std::vector<double> Totals;
    std::vector<double> Serial;
    while (Totals.empty() || nowSeconds() - Start < S.Seconds) {
      for (int Rep = 0; Rep < SetupPerRound; ++Rep)
        SetUp();
      double Width[NumWidths];
      UntracedPass(Width);
      Serial.push_back(Width[0]);
      Totals.push_back(Width[0] + Width[1]);
    }
    R.metric("setup_s", median(SetupTimes), "s");
    R.metric("total_s", median(Totals), "s");
    R.metric("max_rss_mb", processUsage().MaxRssMB, "MB");
    std::fprintf(stderr, "perfbench: %zu rounds, %zu programs, scale %.2f, "
                 "total_s (1 thread) per round:",
                 Totals.size(), Suite.size(), SuiteScale);
    for (size_t I = 0; I < Totals.size(); ++I)
      std::fprintf(stderr, " %.3f (%.3f)", Totals[I], Serial[I]);
    std::fprintf(stderr, "\n");
    return;
  }

  // Traced run: the same analyses driven stage by stage through public
  // calls, one Engine::run iteration per call.
  declareLayerMetrics(R);
  SpanLog Log;
  LayerTotals L;
  PrimitiveProbe::Totals Prims;
  int Rounds = 0;
  double ApproxMB = 0;
  ProcessUsage UsageBefore{}, UsageAfter{};
  while (Rounds == 0 || nowSeconds() - Start < S.Seconds) {
    double Width[NumWidths];
    double Untraced = UntracedPass(Width);
    R.add("pointsto.serial_s", Width[0], "s");
    R.add("pointsto.parallel_s", Width[1], "s");

    UsageBefore = processUsage();
    double T0 = nowSeconds();
    uint32_t Round = Log.begin("pointsto.round");
    for (size_t W = 0; W < NumWidths; ++W) {
      ScopedSpan Pass(Log, W == 0 ? "pointsto.serial" : "pointsto.parallel");
      for (size_t I = 0; I < Suite.size(); ++I) {
        ScopedSpan Prog(Log, "pointsto.program");
        Frontend F;
        F.engine().setThreads(Widths[W]);
        EGraph &G = F.graph();
        PrimitiveProbe Probe;
        R.check(Probe.install(G), "a primitive changed id when wrapped");
        double E0 = nowSeconds();
        {
          ScopedSpan Span(Log, "frontend.execute");
          R.check(F.execute(SteensgaardProgram), "schema failed to load");
        }
        R.add("frontend.execute_s", nowSeconds() - E0, "s");
        double F0 = nowSeconds();
        {
          ScopedSpan Span(Log, "pointsto.facts");
          loadFacts(G, Suite[I]);
        }
        R.add("pointsto.facts_s", nowSeconds() - F0, "s");
        uint64_t UnionsBefore = G.unionFind().unionCount();
        RunOptions Opts;
        Opts.Iterations = 1;
        for (;;) {
          ScopedSpan Span(Log, "engine.run");
          double Run0 = nowSeconds();
          RunReport Report = F.engine().run(Opts);
          L.RunSeconds += nowSeconds() - Run0;
          L.addReport(Report);
          if (Report.Saturated || Report.TimedOut ||
              Report.Iterations.empty())
            break;
        }
        R.add("unionfind.unions",
              static_cast<double>(G.unionFind().unionCount() - UnionsBefore),
              "count");
        IndexCache::Stats Idx = G.indexStats();
        R.add("index.builds", static_cast<double>(Idx.Builds), "count");
        R.add("index.refreshes", static_cast<double>(Idx.Refreshes), "count");
        R.add("index.hits", static_cast<double>(Idx.Hits), "count");
        R.add("index.derivations", static_cast<double>(Idx.Derivations),
              "count");
        R.add("table.live_tuples", static_cast<double>(G.liveTupleCount()),
              "count");
        ApproxMB = std::max(ApproxMB, G.approxBytes() / 1048576.0);
        Prims += Probe.totals();
        R.check(G.liveContentHash() == Hashes[W][I],
                "traced run reached a different content hash on " +
                    Suite[I].Name);
        R.check(enginePartition(G, Suite[I]) == Expected[I],
                "traced partition differs from the oracle on " +
                    Suite[I].Name);
      }
    }
    Log.end(Round);
    UsageAfter = processUsage();
    R.add("trace.overhead_s", (nowSeconds() - T0) - Untraced, "s");
    ++Rounds;
  }
  reportLayers(R, L);
  reportPrimitives(R, Prims);
  R.scaleAll(1.0 / Rounds);
  // The last round's process figures; the largest engine's size.
  reportProcess(R, UsageBefore, UsageAfter);
  R.metric("egraph.approx_mb", ApproxMB, "MB");
  std::string Path = S.ScratchDir + "/spans-pointsto.jsonl";
  R.check(Log.write(Path), "could not write spans to " + Path);
  std::fprintf(stderr, "perfbench: %d traced rounds, %zu spans in %s\n",
               Rounds, Log.size(), Path.c_str());
}
