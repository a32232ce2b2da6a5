//===- perfbench/src/EqSatWorkload.cpp - Grow, extract, snapshot ----------===//
//
// Part of egglog-cpp's benchmark (see perfbench/README.md).
//
// Workload `eqsat`: pure term rewriting. Seeded random arithmetic terms
// run under the Fig. 7 math ruleset for a fixed number of iterations with
// BackOff off; then every seed's cheapest term is extracted, and the
// database is saved to a snapshot and loaded into a fresh engine. Checks:
// extracted terms evaluate, modulo a prime at seeded assignments, to the
// value of their seed term and cost no more than it; every constructor
// table is congruence-closed; the loaded snapshot reproduces the content
// hash and the extraction costs.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/Extract.h"
#include "core/Frontend.h"
#include "core/Snapshot.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <sys/stat.h>
#include <unistd.h>

using namespace perfbench;
using namespace egglog;

namespace {

constexpr unsigned NumTerms = 12;
constexpr unsigned TermDepth = 5;
constexpr unsigned Iterations = 4;
/// Symbols are s0 .. s(NumSymbols-1), more than the terms have leaves
/// (NumTerms * 2^TermDepth).
constexpr unsigned NumSymbols = 1000;
static_assert(NumSymbols >= NumTerms << TermDepth);
/// Seed of the term shapes, fixed for every workload seed.
constexpr uint64_t ShapeSeed = 7;

/// egg's math rules (the Fig. 7 ruleset, as in bench/MathSuite.h) in
/// egglog syntax.
const char *MathProgram = R"(
  (datatype Math
    (Num i64) (Sym String)
    (Add Math Math) (Sub Math Math) (Mul Math Math) (Pow Math Math))
  (rewrite (Add a b) (Add b a))
  (rewrite (Mul a b) (Mul b a))
  (rewrite (Add (Add a b) c) (Add a (Add b c)))
  (rewrite (Mul (Mul a b) c) (Mul a (Mul b c)))
  (rewrite (Sub a b) (Add a (Mul (Num -1) b)))
  (rewrite (Add a (Num 0)) a)
  (rewrite (Mul a (Num 0)) (Num 0))
  (rewrite (Mul a (Num 1)) a)
  (rewrite (Sub a a) (Num 0))
  (rewrite (Mul a (Add b c)) (Add (Mul a b) (Mul a c)))
  (rewrite (Add (Mul a b) (Mul a c)) (Mul a (Add b c)))
  (rewrite (Mul (Pow a b) (Pow a c)) (Pow a (Add b c)))
)";

//===----------------------------------------------------------------------===
// Terms and their independent evaluation modulo a prime
//===----------------------------------------------------------------------===

struct Term {
  std::string Op; ///< Num, Sym, Add, Sub, Mul, Pow
  int64_t Num = 0;
  std::string Sym;
  std::vector<Term> Args;
};

/// A random term whose shape (operators, leaf kinds, constants) comes
/// from \p Shape, a generator that does not depend on the workload seed.
/// Symbol leaves take the next name from \p Names, a seeded permutation,
/// so no two leaves share a symbol. Every seed thus grows isomorphic
/// e-graphs: a symbol that repeats inside a term can triple the e-graph,
/// which made the work depend on the seed.
Term randomTerm(std::mt19937_64 &Shape, const unsigned *&Names,
                unsigned Depth) {
  Term T;
  if (Depth == 0) {
    if (Shape() % 4 == 0) {
      T.Op = "Num";
      T.Num = static_cast<int64_t>(Shape() % 3); // 0, 1, 2
    } else {
      T.Op = "Sym";
      T.Sym = "s" + std::to_string(*Names++);
    }
    return T;
  }
  static const char *const Ops[] = {"Add", "Sub", "Mul"};
  T.Op = Ops[Shape() % 3];
  T.Args.push_back(randomTerm(Shape, Names, Depth - 1));
  T.Args.push_back(randomTerm(Shape, Names, Depth - 1));
  return T;
}

std::string render(const Term &T) {
  if (T.Op == "Num")
    return "(Num " + std::to_string(T.Num) + ")";
  if (T.Op == "Sym")
    return "(Sym \"" + T.Sym + "\")";
  return "(" + T.Op + " " + render(T.Args[0]) + " " + render(T.Args[1]) + ")";
}

/// Tree cost in the extractor's model: 1 per constructor plus 1 per
/// primitive argument.
int64_t treeCost(const Term &T) {
  if (T.Op == "Num" || T.Op == "Sym")
    return 2;
  return 1 + treeCost(T.Args[0]) + treeCost(T.Args[1]);
}

/// Reads the extractor's output syntax: (Op args...), integers, strings.
class TermParser {
public:
  explicit TermParser(const std::string &Text) : Text(Text) {}
  std::optional<Term> parse() {
    std::optional<Term> T = node();
    space();
    if (!T || Pos != Text.size())
      return std::nullopt;
    return T;
  }

private:
  const std::string &Text;
  size_t Pos = 0;

  void space() {
    while (Pos < Text.size() && Text[Pos] == ' ')
      ++Pos;
  }
  std::optional<Term> node() {
    space();
    if (Pos >= Text.size() || Text[Pos] != '(')
      return std::nullopt;
    ++Pos;
    size_t Start = Pos;
    while (Pos < Text.size() && std::isalpha(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    Term T;
    T.Op = Text.substr(Start, Pos - Start);
    space();
    if (T.Op == "Num") {
      size_t End = Pos;
      if (End < Text.size() && Text[End] == '-')
        ++End;
      while (End < Text.size() && std::isdigit(static_cast<unsigned char>(Text[End])))
        ++End;
      if (End == Pos)
        return std::nullopt;
      T.Num = std::stoll(Text.substr(Pos, End - Pos));
      Pos = End;
    } else if (T.Op == "Sym") {
      size_t Close = Pos < Text.size() && Text[Pos] == '"'
                         ? Text.find('"', Pos + 1)
                         : std::string::npos;
      if (Close == std::string::npos)
        return std::nullopt;
      T.Sym = Text.substr(Pos + 1, Close - Pos - 1);
      Pos = Close + 1;
    } else if (T.Op == "Add" || T.Op == "Sub" || T.Op == "Mul" ||
               T.Op == "Pow") {
      for (int I = 0; I < 2; ++I) {
        std::optional<Term> Arg = node();
        if (!Arg)
          return std::nullopt;
        T.Args.push_back(std::move(*Arg));
      }
    } else {
      return std::nullopt;
    }
    space();
    if (Pos >= Text.size() || Text[Pos] != ')')
      return std::nullopt;
    ++Pos;
    return T;
  }
};

constexpr uint64_t Prime = (1ull << 61) - 1;

uint64_t mulMod(uint64_t A, uint64_t B) {
  return static_cast<uint64_t>(static_cast<unsigned __int128>(A) * B % Prime);
}

uint64_t powMod(uint64_t Base, uint64_t Exp) {
  uint64_t Out = 1;
  for (; Exp; Exp >>= 1, Base = mulMod(Base, Base))
    if (Exp & 1)
      Out = mulMod(Out, Base);
  return Out;
}

/// Value of \p T modulo Prime under \p Env. Pow reads its exponent as the
/// residue of the exponent term (the seeds contain no Pow, and the rules
/// only rebuild one from an existing Pow).
uint64_t evalMod(const Term &T, const std::map<std::string, uint64_t> &Env) {
  if (T.Op == "Num")
    return T.Num >= 0 ? static_cast<uint64_t>(T.Num) % Prime
                      : Prime - static_cast<uint64_t>(-T.Num) % Prime;
  if (T.Op == "Sym")
    return Env.at(T.Sym);
  uint64_t A = evalMod(T.Args[0], Env), B = evalMod(T.Args[1], Env);
  if (T.Op == "Add")
    return (A + B) % Prime;
  if (T.Op == "Sub")
    return (A + Prime - B) % Prime;
  if (T.Op == "Mul")
    return mulMod(A, B);
  return powMod(A, B);
}

//===----------------------------------------------------------------------===
// One round
//===----------------------------------------------------------------------===

std::string seedDefinitions(const std::vector<Term> &Seeds) {
  std::string Defs;
  for (size_t I = 0; I < Seeds.size(); ++I)
    Defs += "(define t" + std::to_string(I) + " " + render(Seeds[I]) + ")\n";
  return Defs;
}

/// Every constructor table maps canonical arguments to one class.
bool congruenceHolds(EGraph &G) {
  for (const char *Name : {"Num", "Sym", "Add", "Sub", "Mul", "Pow"}) {
    FunctionId Id = 0;
    if (!G.lookupFunctionName(Name, Id))
      return false;
    const FunctionInfo &Info = G.function(Id);
    const Table &T = *Info.Storage;
    std::map<std::vector<uint64_t>, uint64_t> Seen;
    for (size_t Row : T.liveRows()) {
      std::vector<uint64_t> Key;
      for (unsigned I = 0; I < Info.numKeys(); ++I)
        Key.push_back(G.canonicalize(T.cell(Row, I)).Bits);
      uint64_t Out = G.canonicalize(T.output(Row)).Bits;
      auto [It, Fresh] = Seen.emplace(std::move(Key), Out);
      if (!Fresh && It->second != Out)
        return false;
    }
  }
  return true;
}

struct RoundTimes {
  double Rewrite = 0, Extract = 0, Save = 0, Load = 0, SnapshotMB = 0;
  uint64_t Hash = 0;
  size_t Tuples = 0;
};

struct Inputs {
  std::vector<Term> Seeds;
  std::string Definitions;
  std::vector<std::map<std::string, uint64_t>> Assignments;
};

Inputs makeInputs(uint64_t Seed) {
  Inputs In;
  std::mt19937_64 Shape(ShapeSeed), Rng(mixSeed(Seed, 300));
  std::vector<unsigned> Names(NumSymbols);
  std::iota(Names.begin(), Names.end(), 0);
  std::shuffle(Names.begin(), Names.end(), Rng);
  const unsigned *Next = Names.data();
  for (unsigned I = 0; I < NumTerms; ++I)
    In.Seeds.push_back(randomTerm(Shape, Next, TermDepth));
  In.Definitions = seedDefinitions(In.Seeds);
  for (int A = 0; A < 3; ++A) {
    std::map<std::string, uint64_t> Env;
    for (unsigned Sym = 0; Sym < NumSymbols; ++Sym)
      Env["s" + std::to_string(Sym)] = Rng() % Prime;
    In.Assignments.push_back(std::move(Env));
  }
  return In;
}

/// Runs one round. With \p Log set, drives the run one iteration per
/// Engine::run call and records spans and per-layer figures.
RoundTimes runRound(const Inputs &In, const std::string &SnapPath,
                    Result &R, SpanLog *Log, LayerTotals *L) {
  RoundTimes Times;
  auto Span = [&](const char *Name) -> std::optional<ScopedSpan> {
    if (!Log)
      return std::nullopt;
    return std::optional<ScopedSpan>(std::in_place, *Log, Name);
  };
  std::optional<ScopedSpan> Whole = Span("eqsat.round");
  // Operations count once per round: in the untraced one.
  auto Attempt = [&](bool Ok) {
    if (!Log)
      R.attempt(Ok);
  };
  Frontend F;
  EGraph &G = F.graph();
  PrimitiveProbe Probe;
  if (Log)
    R.check(Probe.install(G), "a primitive changed id when wrapped");
  double E0 = nowSeconds();
  {
    auto S = Span("frontend.execute");
    if (!R.check(F.execute(MathProgram) && F.execute(In.Definitions),
                 "math program failed to load: " + F.error()))
      return Times;
  }
  if (Log)
    R.add("frontend.execute_s", nowSeconds() - E0, "s");

  // Grow.
  RunOptions Opts;
  Opts.Iterations = Log ? 1 : Iterations;
  Opts.UseBackoff = false;
  uint64_t UnionsBefore = G.unionFind().unionCount();
  double T0 = nowSeconds();
  for (unsigned Call = 0; Call < (Log ? Iterations : 1); ++Call) {
    auto S = Span("engine.run");
    double Run0 = nowSeconds();
    RunReport Report = F.engine().run(Opts);
    if (L) {
      L->RunSeconds += nowSeconds() - Run0;
      L->addReport(Report);
    }
  }
  Times.Rewrite = nowSeconds() - T0;
  Attempt(true);
  Times.Tuples = G.liveTupleCount();
  if (Log) {
    R.add("unionfind.unions",
          static_cast<double>(G.unionFind().unionCount() - UnionsBefore),
          "count");
    IndexCache::Stats Idx = G.indexStats();
    R.add("index.builds", static_cast<double>(Idx.Builds), "count");
    R.add("index.refreshes", static_cast<double>(Idx.Refreshes), "count");
    R.add("index.hits", static_cast<double>(Idx.Hits), "count");
    R.add("index.derivations", static_cast<double>(Idx.Derivations), "count");
    R.add("table.live_tuples", static_cast<double>(Times.Tuples), "count");
    R.metric("egraph.approx_mb", G.approxBytes() / 1048576.0, "MB");
  }

  // Extract every seed's cheapest term.
  std::vector<Value> Roots;
  for (unsigned I = 0; I < NumTerms; ++I) {
    Value V;
    R.check(F.evalGround("t" + std::to_string(I), V), "seed term lost");
    Roots.push_back(V);
  }
  ExtractIndex::Stats Before = G.extractIndex().stats();
  std::vector<std::optional<ExtractedTerm>> Extracted;
  {
    auto S = Span("extract");
    double X0 = nowSeconds();
    for (Value V : Roots) {
      Extracted.push_back(extractTerm(G, V));
      Attempt(Extracted.back().has_value());
    }
    Times.Extract = nowSeconds() - X0;
  }
  if (Log) {
    ExtractIndex::Stats After = G.extractIndex().stats();
    R.add("extract.s", Times.Extract, "s");
    R.add("extract.rows",
          static_cast<double>(After.RowsConsidered - Before.RowsConsidered),
          "count");
    R.add("extract.full_rebuilds",
          static_cast<double>(After.FullRebuilds - Before.FullRebuilds),
          "count");
    reportPrimitives(R, Probe.totals());
  }

  // Save, then load into a fresh engine.
  EggError Err;
  {
    auto S = Span("snapshot.save");
    double S0 = nowSeconds();
    bool Saved = saveSnapshot(G, SnapPath, Err);
    Times.Save = nowSeconds() - S0;
    Attempt(Saved);
    R.check(Saved, "saveSnapshot failed: " + Err.Message);
  }
  struct stat Info {};
  if (::stat(SnapPath.c_str(), &Info) == 0)
    Times.SnapshotMB = static_cast<double>(Info.st_size) / 1048576.0;
  Frontend Loaded;
  {
    auto S = Span("snapshot.load");
    double L0 = nowSeconds();
    bool Ok = loadSnapshot(Loaded.graph(), SnapPath, Err);
    Times.Load = nowSeconds() - L0;
    Attempt(Ok);
    R.check(Ok, "loadSnapshot failed: " + Err.Message);
  }
  ::unlink(SnapPath.c_str());

  // Checks, untimed.
  Times.Hash = G.liveContentHash();
  R.check(Loaded.graph().liveContentHash() == Times.Hash,
          "loaded snapshot has a different content hash");
  R.check(congruenceHolds(G), "a constructor table is not congruence-closed");
  for (unsigned I = 0; I < NumTerms; ++I) {
    if (!Extracted[I])
      continue;
    std::string Tag = "seed t" + std::to_string(I);
    std::optional<Term> Got = TermParser(Extracted[I]->Text).parse();
    if (!R.check(Got.has_value(), Tag + ": unparsable " + Extracted[I]->Text))
      continue;
    for (const auto &Env : In.Assignments)
      R.check(evalMod(*Got, Env) == evalMod(In.Seeds[I], Env),
              Tag + ": extracted term differs modulo p: " +
                  Extracted[I]->Text);
    R.check(Extracted[I]->Cost <= treeCost(In.Seeds[I]),
            Tag + ": extracted cost exceeds the seed's");
    R.check(Extracted[I]->Cost == treeCost(*Got),
            Tag + ": reported cost differs from the term's cost");
    std::optional<int64_t> Reloaded =
        extractCost(Loaded.graph(), G.canonicalize(Roots[I]));
    R.check(Reloaded && *Reloaded == Extracted[I]->Cost,
            Tag + ": extraction cost changed across the snapshot");
  }
  return Times;
}

} // namespace

void perfbench::runEqSatWorkload(const Settings &S, Result &R) {
  // Set-up: generate the terms and declare datatype, rules and seeds.
  std::vector<double> SetupTimes;
  Inputs In;
  auto SetUp = [&] {
    double T0 = nowSeconds();
    In = makeInputs(S.Seed);
    Frontend F;
    bool Declared = F.execute(MathProgram) && F.execute(In.Definitions);
    SetupTimes.push_back(nowSeconds() - T0);
    return R.check(Declared, "math program failed to load: " + F.error());
  };
  for (int Rep = 0; Rep < SetupRepeats; ++Rep)
    if (!SetUp())
      return;
  std::string SnapPath = S.ScratchDir + "/eqsat.snapshot";

  double Start = nowSeconds();
  uint64_t Hash = 0;
  auto SameHash = [&](const RoundTimes &T) {
    if (Hash == 0)
      Hash = T.Hash;
    R.check(T.Hash == Hash, "content hash changed between rounds");
  };
  if (!S.Trace) {
    std::vector<double> Totals;
    double SnapMB = 0;
    while (Totals.empty() || nowSeconds() - Start < S.Seconds) {
      for (int Rep = 0; Rep < SetupPerRound; ++Rep)
        SetUp();
      RoundTimes T = runRound(In, SnapPath, R, nullptr, nullptr);
      SameHash(T);
      Totals.push_back(T.Rewrite + T.Extract + T.Save + T.Load);
      SnapMB = T.SnapshotMB;
    }
    R.metric("setup_s", median(SetupTimes), "s");
    R.metric("total_s", median(Totals), "s");
    R.metric("max_rss_mb", processUsage().MaxRssMB, "MB");
    std::fprintf(stderr,
                 "perfbench: %zu rounds, %u terms of depth %u, "
                 "%.3f MB snapshot\n",
                 Totals.size(), NumTerms, TermDepth, SnapMB);
    return;
  }

  declareLayerMetrics(R);
  SpanLog Log;
  LayerTotals L;
  ProcessUsage UsageBefore{}, UsageAfter{};
  int Rounds = 0;
  while (Rounds == 0 || nowSeconds() - Start < S.Seconds) {
    double U0 = nowSeconds();
    RoundTimes U = runRound(In, SnapPath, R, nullptr, nullptr);
    double Untraced = nowSeconds() - U0;
    SameHash(U);
    R.add("snapshot.save_s", U.Save, "s");
    R.add("snapshot.load_s", U.Load, "s");
    R.add("snapshot.mb", U.SnapshotMB, "MB");
    UsageBefore = processUsage();
    double T0 = nowSeconds();
    RoundTimes T = runRound(In, SnapPath, R, &Log, &L);
    R.check(T.Hash == Hash, "traced run reached a different content hash");
    R.add("trace.overhead_s", (nowSeconds() - T0) - Untraced, "s");
    UsageAfter = processUsage();
    ++Rounds;
  }
  reportLayers(R, L);
  double ApproxMB = R.value("egraph.approx_mb");
  R.scaleAll(1.0 / Rounds);
  reportProcess(R, UsageBefore, UsageAfter);
  R.metric("egraph.approx_mb", ApproxMB, "MB");
  std::string Path = S.ScratchDir + "/spans-eqsat.jsonl";
  R.check(Log.write(Path), "could not write spans to " + Path);
  std::fprintf(stderr, "perfbench: %d traced rounds, %zu spans in %s\n",
               Rounds, Log.size(), Path.c_str());
}
