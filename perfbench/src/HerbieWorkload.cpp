//===- perfbench/src/HerbieWorkload.cpp - Mini-Herbie, sound and unsound --===//
//
// Part of egglog-cpp's benchmark (see perfbench/README.md).
//
// Workload `herbie`: a seeded, cost-stratified draw from herbieSuite(),
// each benchmark improved once in sound mode and once in unsound mode
// with the shipped HerbieOptions. Results are checked with a __float128
// evaluator that shares no code with the engine: sound results must be
// real-equivalent to their input, no run may lose accuracy, and the error
// bits each run reports must match bits recomputed against the quad
// reference.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/Extract.h"
#include "core/Frontend.h"
#include "herbie/Herbie.h"
#include "herbie/Rules.h"
#include "support/Rational.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <quadmath.h>
#include <random>

using namespace perfbench;
using namespace egglog;
using namespace egglog::herbie;

namespace {

//===----------------------------------------------------------------------===
// The draw
//===----------------------------------------------------------------------===

/// Benchmarks grouped so that the members of a group cost about the same
/// (sound and unsound time, bits improved; measured on the reference
/// machine, see README.md). The draw takes `Take` members of each group,
/// so every seed runs different benchmarks of the same expected cost.
struct Group {
  std::vector<const char *> Names;
  unsigned Take;
};

const Group Groups[] = {
    // ~57.6 bits improved, 6-8 s sound. Its partner sqrt-add-one improves
    // as many bits but takes ~25% longer, too much for a one-of-two draw,
    // and running both leaves too few rounds in a run for a steady median.
    {{"sqrt-sub-one"}, 1},
    // ~0.1-0.3 s sound, ~0.01 s unsound, <0.3 bits.
    {{"x-over-x", "frac-cancel"}, 1},
    // Saturate within a few ms in both modes.
    {{"cbrt-cube",     "const-fold",  "div-sum",     "factor-out",
      "fma-candidate", "frac-mul",    "hypot-ish",   "midpoint",
      "neg-chain",     "plain-add",   "plain-cbrt",  "plain-div",
      "plain-mul",     "plain-sqrt",  "poly-horner", "quartic",
      "sqrt-of-square", "sqrt-ratio", "sqrt-square", "three-sum",
      "weighted-sum",  "distribute-in"},
     4},
};

std::vector<Benchmark> drawBenchmarks(uint64_t Seed, Result &R) {
  std::mt19937_64 Rng(mixSeed(Seed, 200));
  std::vector<Benchmark> Draw;
  for (const Group &G : Groups) {
    std::vector<const char *> Names = G.Names;
    for (unsigned I = 0; I < G.Take && I < Names.size(); ++I) {
      std::uniform_int_distribution<size_t> Pick(I, Names.size() - 1);
      std::swap(Names[I], Names[Pick(Rng)]);
      const Benchmark *Found = nullptr;
      for (const Benchmark &B : herbieSuite())
        if (B.Name == Names[I])
          Found = &B;
      if (R.check(Found != nullptr,
                  std::string("benchmark missing from the suite: ") +
                      Names[I]))
        Draw.push_back(*Found);
    }
  }
  return Draw;
}

//===----------------------------------------------------------------------===
// Independent evaluation: surface syntax, double and __float128
//===----------------------------------------------------------------------===

struct Term {
  std::string Op; ///< "num", "var" or the surface operator.
  double Num = 0;
  std::string Var;
  std::vector<Term> Args;
};

class SurfaceParser {
public:
  explicit SurfaceParser(const std::string &Text) : Text(Text) {}

  std::optional<Term> parse() {
    std::optional<Term> T = node();
    skipSpace();
    if (!T || Pos != Text.size())
      return std::nullopt;
    return T;
  }

private:
  const std::string &Text;
  size_t Pos = 0;

  void skipSpace() {
    while (Pos < Text.size() && std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  std::string atom() {
    size_t Start = Pos;
    while (Pos < Text.size() && Text[Pos] != '(' && Text[Pos] != ')' &&
           !std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    return Text.substr(Start, Pos - Start);
  }

  std::optional<Term> node() {
    skipSpace();
    if (Pos >= Text.size())
      return std::nullopt;
    Term T;
    if (Text[Pos] != '(') {
      std::string Atom = atom();
      if (Atom.empty())
        return std::nullopt;
      char *End = nullptr;
      double Value = std::strtod(Atom.c_str(), &End);
      if (End == Atom.c_str() + Atom.size()) {
        T.Op = "num";
        T.Num = Value;
      } else {
        T.Op = "var";
        T.Var = Atom;
      }
      return T;
    }
    ++Pos;
    skipSpace();
    T.Op = atom();
    static const std::map<std::string, size_t> Arity = {
        {"+", 2},    {"-", 2},    {"*", 2},    {"/", 2},   {"neg", 1},
        {"sqrt", 1}, {"cbrt", 1}, {"fabs", 1}, {"fma", 3}};
    auto It = Arity.find(T.Op);
    if (It == Arity.end())
      return std::nullopt;
    for (size_t I = 0; I < It->second; ++I) {
      std::optional<Term> Arg = node();
      if (!Arg)
        return std::nullopt;
      T.Args.push_back(std::move(*Arg));
    }
    skipSpace();
    if (Pos >= Text.size() || Text[Pos] != ')')
      return std::nullopt;
    ++Pos;
    return T;
  }
};

using Point = std::map<std::string, double>;

template <typename Real, typename Ops>
Real evaluate(const Term &T, const Point &At, const Ops &O) {
  if (T.Op == "num")
    return static_cast<Real>(T.Num);
  if (T.Op == "var")
    return static_cast<Real>(At.at(T.Var));
  Real A = evaluate<Real>(T.Args[0], At, O);
  if (T.Op == "neg")
    return -A;
  if (T.Op == "sqrt")
    return O.sqrt(A);
  if (T.Op == "cbrt")
    return O.cbrt(A);
  if (T.Op == "fabs")
    return A < 0 ? -A : A;
  Real B = evaluate<Real>(T.Args[1], At, O);
  if (T.Op == "+")
    return A + B;
  if (T.Op == "-")
    return A - B;
  if (T.Op == "*")
    return A * B;
  if (T.Op == "/")
    return A / B;
  return O.fma(A, B, evaluate<Real>(T.Args[2], At, O)); // "fma"
}

struct DoubleOps {
  double sqrt(double X) const { return std::sqrt(X); }
  double cbrt(double X) const { return std::cbrt(X); }
  double fma(double A, double B, double C) const { return std::fma(A, B, C); }
};

struct QuadOps {
  __float128 sqrt(__float128 X) const { return sqrtq(X); }
  __float128 cbrt(__float128 X) const { return cbrtq(X); }
  __float128 fma(__float128 A, __float128 B, __float128 C) const {
    return fmaq(A, B, C);
  }
};

__float128 evalQuad(const Term &T, const Point &At) {
  return evaluate<__float128>(T, At, QuadOps());
}

double evalDouble(const Term &T, const Point &At) {
  return evaluate<double>(T, At, DoubleOps());
}

/// log2(1 + ulps between A and B), 64 when either is NaN: the error
/// measure Herbie reports, written out independently.
double errorBits(double A, double B) {
  if (std::isnan(A) || std::isnan(B))
    return 64;
  if (A == B)
    return 0;
  auto Ordered = [](double X) {
    uint64_t Bits = std::bit_cast<uint64_t>(X);
    return Bits >> 63 ? ~Bits : Bits | (1ull << 63);
  };
  uint64_t Oa = Ordered(A), Ob = Ordered(B);
  return std::log2(1.0 + static_cast<double>(Oa > Ob ? Oa - Ob : Ob - Oa));
}

/// Relative tolerance of the real-equivalence check. Sound rewrites are
/// exact over the reals; __float128 carries 113 bits, so even an input
/// that cancels 60 bits keeps agreement far below this.
constexpr double EquivalenceTolerance = 1e-9;

/// Largest accepted difference between reported and recomputed average
/// error bits. The engine's reference is double-double (106 bits) and
/// ours is __float128 (113 bits); they round to the same double except
/// where an input cancels more than ~50 bits.
constexpr double BitsTolerance = 0.05;

struct Reference {
  Term Input;
  std::vector<Point> Points;
  std::vector<double> Exact; ///< Quad value of Input, rounded to double.
  std::vector<__float128> Quad;
};

bool realEquivalent(const Term &Candidate, const Reference &Ref) {
  for (size_t I = 0; I < Ref.Points.size(); ++I) {
    __float128 A = evalQuad(Candidate, Ref.Points[I]), B = Ref.Quad[I];
    if (isnanq(A) || isnanq(B)) {
      if (isnanq(A) != isnanq(B))
        return false;
      continue;
    }
    __float128 Scale = fmaxq(fabsq(A), fabsq(B));
    if (fabsq(A - B) > Scale * EquivalenceTolerance)
      return false;
  }
  return true;
}

double averageBits(const Term &Candidate, const Reference &Ref) {
  double Total = 0;
  for (size_t I = 0; I < Ref.Points.size(); ++I)
    Total += errorBits(evalDouble(Candidate, Ref.Points[I]), Ref.Exact[I]);
  return Ref.Points.empty() ? 0 : Total / static_cast<double>(Ref.Points.size());
}

/// Checks one improveExpression result. Returns false when an unsound
/// result is not real-equivalent to its input (counted, not a failure).
bool checkResult(const Benchmark &B, const Reference &Ref,
                 const HerbieResult &Res, bool Sound, Result &R) {
  std::string Tag = B.Name + (Sound ? " (sound)" : " (unsound)");
  R.check(Res.FinalErrorBits <= Res.InitialErrorBits,
          Tag + ": final error exceeds initial error");
  double Initial = averageBits(Ref.Input, Ref);
  R.check(std::fabs(Initial - Res.InitialErrorBits) <= BitsTolerance,
          Tag + ": initial bits " + std::to_string(Res.InitialErrorBits) +
              " vs recomputed " + std::to_string(Initial));
  std::optional<Term> Best = SurfaceParser(Res.BestExpr).parse();
  if (!R.check(Best.has_value(), Tag + ": unparsable result " + Res.BestExpr))
    return true;
  double Final = averageBits(*Best, Ref);
  R.check(std::fabs(Final - Res.FinalErrorBits) <= BitsTolerance,
          Tag + ": final bits " + std::to_string(Res.FinalErrorBits) +
              " vs recomputed " + std::to_string(Final));
  bool Equivalent = realEquivalent(*Best, Ref);
  if (Sound)
    R.check(Equivalent, Tag + ": result not real-equivalent: " + Res.BestExpr);
  return Equivalent;
}

//===----------------------------------------------------------------------===
// The traced pipeline
//===----------------------------------------------------------------------===

/// improveExpression driven stage by stage through public calls, with a
/// span and a per-layer figure around each stage.
HerbieResult tracedImprove(const Benchmark &Bench, const HerbieOptions &Opts,
                           SpanLog &Log, LayerTotals &L,
                           PrimitiveProbe::Totals &Prims, Result &R) {
  HerbieResult Res;
  ScopedSpan Whole(Log, "herbie.improve");
  auto Timed = [&](const char *Span, const char *Metric, auto &&Fn) {
    ScopedSpan S(Log, Span);
    double T0 = nowSeconds();
    auto Out = Fn();
    R.add(Metric, nowSeconds() - T0, "s");
    return Out;
  };
  ExprPtr Root = [&] {
    ScopedSpan S(Log, "herbie.parse");
    return parseFPExpr(Bench.Expr);
  }();
  if (!Root)
    return Res;
  SampleSet Samples = Timed("herbie.sample", "herbie.sample_s", [&] {
    return samplePoints(*Root, Bench.Ranges, Opts.Samples, Opts.Seed);
  });
  Res.InitialErrorBits = Timed("herbie.measure", "herbie.measure_s", [&] {
    return averageError(*Root, Samples);
  });

  Frontend F;
  EGraph &G = F.graph();
  PrimitiveProbe Probe;
  R.check(Probe.install(G), "a primitive changed id when wrapped");
  std::string Setup = "(define root " + toEgglogTerm(*Root) + ")\n";
  if (Opts.Sound)
    for (const VarRange &Range : Bench.Ranges) {
      Rational Lo = Rational::fromDouble(Range.Lo);
      Rational Hi = Rational::fromDouble(Range.Hi);
      Setup += "(set (lo (MVar \"" + Range.Name + "\")) (rational-big \"" +
               Lo.numerator().toString() + "\" \"" +
               Lo.denominator().toString() + "\"))\n";
      Setup += "(set (hi (MVar \"" + Range.Name + "\")) (rational-big \"" +
               Hi.numerator().toString() + "\" \"" +
               Hi.denominator().toString() + "\"))\n";
    }
  bool Loaded = Timed("frontend.execute", "frontend.execute_s", [&] {
    return F.execute(herbieProgramText(Opts.Sound)) && F.execute(Setup);
  });
  if (!R.check(Loaded, Bench.Name + ": ruleset failed to load: " + F.error()))
    return Res;
  RunOptions &RunOpts = F.runOptions();
  RunOpts.NodeLimit = Opts.NodeLimit;
  RunOpts.TimeoutSeconds = Opts.TimeoutSeconds;
  RunOpts.UseBackoff = true;
  bool Ran = Timed("herbie.schedule", "herbie.schedule_s", [&] {
    return F.execute(herbiePhasedSchedule(Opts.Iterations));
  });
  if (!R.check(Ran, Bench.Name + ": schedule failed: " + F.error()))
    return Res;
  L.RunSeconds += F.lastRun().TotalSeconds;
  L.addReport(F.lastRun());
  Res.ENodes = G.liveTupleCount();
  R.add("herbie.enodes", static_cast<double>(Res.ENodes), "count");
  R.add("table.live_tuples", static_cast<double>(Res.ENodes), "count");
  R.metric("egraph.approx_mb",
           std::max(R.value("egraph.approx_mb"), G.approxBytes() / 1048576.0),
           "MB");
  IndexCache::Stats Idx = G.indexStats();
  R.add("index.builds", static_cast<double>(Idx.Builds), "count");
  R.add("index.refreshes", static_cast<double>(Idx.Refreshes), "count");
  R.add("index.hits", static_cast<double>(Idx.Hits), "count");
  R.add("index.derivations", static_cast<double>(Idx.Derivations), "count");
  R.add("unionfind.unions", static_cast<double>(G.unionFind().unionCount()),
        "count");

  Value RootValue;
  if (!R.check(F.evalGround("root", RootValue), Bench.Name + ": root lost"))
    return Res;
  ExtractIndex::Stats Before = G.extractIndex().stats();
  std::vector<ExtractedTerm> Variants =
      Timed("extract", "extract.s", [&] {
        return extractVariants(G, RootValue, Opts.MaxCandidates);
      });
  ExtractIndex::Stats After = G.extractIndex().stats();
  R.add("extract.rows",
        static_cast<double>(After.RowsConsidered - Before.RowsConsidered),
        "count");
  R.add("extract.full_rebuilds",
        static_cast<double>(After.FullRebuilds - Before.FullRebuilds),
        "count");

  Res.FinalErrorBits = Res.InitialErrorBits;
  Res.BestExpr = Bench.Expr;
  Timed("herbie.measure", "herbie.measure_s", [&] {
    for (const ExtractedTerm &Variant : Variants) {
      ExprPtr Candidate = parseEgglogTerm(Variant.Text);
      if (!Candidate)
        continue;
      ++Res.CandidatesTried;
      double Error = averageError(*Candidate, Samples);
      if (Error < Res.FinalErrorBits) {
        Res.FinalErrorBits = Error;
        Res.BestExpr = toSurface(*Candidate);
      }
    }
    return 0;
  });
  R.add("herbie.candidates", static_cast<double>(Res.CandidatesTried),
        "count");
  Prims += Probe.totals();
  Res.Ok = true;
  return Res;
}

} // namespace

void perfbench::runHerbieWorkload(const Settings &S, Result &R) {
  HerbieOptions Shipped;

  // Set-up: draw the inputs and declare both rulesets.
  std::vector<double> SetupTimes;
  std::vector<Benchmark> Draw;
  auto SetUp = [&] {
    double T0 = nowSeconds();
    Draw = drawBenchmarks(S.Seed, R);
    Frontend SoundF, UnsoundF;
    bool Declared = SoundF.execute(herbieProgramText(true)) &&
                    UnsoundF.execute(herbieProgramText(false));
    SetupTimes.push_back(nowSeconds() - T0);
    return R.check(Declared, "Herbie rulesets failed to load");
  };
  for (int Rep = 0; Rep < SetupRepeats; ++Rep)
    if (!SetUp())
      return;

  // The quad reference at the points samplePoints draws with the shipped
  // seed.
  std::vector<Reference> Refs;
  for (const Benchmark &B : Draw) {
    Reference Ref;
    std::optional<Term> Input = SurfaceParser(B.Expr).parse();
    ExprPtr Parsed = parseFPExpr(B.Expr);
    if (!R.check(Input && Parsed, B.Name + ": unparsable input"))
      return;
    Ref.Input = *Input;
    SampleSet Samples =
        samplePoints(*Parsed, B.Ranges, Shipped.Samples, Shipped.Seed);
    Ref.Points = Samples.Points;
    for (const Point &P : Ref.Points) {
      Ref.Quad.push_back(evalQuad(Ref.Input, P));
      Ref.Exact.push_back(static_cast<double>(Ref.Quad.back()));
    }
    Refs.push_back(std::move(Ref));
  }

  struct Pass {
    double Sound = 0, Unsound = 0, Bits = 0;
    uint64_t UnsoundWrong = 0;
    std::vector<HerbieResult> Results; ///< sound, unsound per benchmark
  };
  auto UntracedPass = [&]() {
    Pass P;
    for (size_t I = 0; I < Draw.size(); ++I)
      for (bool Sound : {true, false}) {
        HerbieOptions Opts = Shipped;
        Opts.Sound = Sound;
        double T0 = nowSeconds();
        HerbieResult Res = improveExpression(Draw[I], Opts);
        double Elapsed = nowSeconds() - T0;
        (Sound ? P.Sound : P.Unsound) += Elapsed;
        R.attempt(Res.Ok);
        if (!R.check(Res.Ok, Draw[I].Name + ": " + Res.FailureReason))
          continue;
        P.Bits += Res.InitialErrorBits - Res.FinalErrorBits;
        if (!checkResult(Draw[I], Refs[I], Res, Sound, R) && !Sound)
          ++P.UnsoundWrong;
        P.Results.push_back(Res);
      }
    return P;
  };

  double Start = nowSeconds();
  if (!S.Trace) {
    std::vector<double> Totals, Bits;
    while (Totals.empty() || nowSeconds() - Start < S.Seconds) {
      for (int Rep = 0; Rep < SetupPerRound; ++Rep)
        SetUp();
      Pass P = UntracedPass();
      Totals.push_back(P.Sound + P.Unsound);
      Bits.push_back(P.Bits);
    }
    R.check(*std::min_element(Bits.begin(), Bits.end()) ==
                *std::max_element(Bits.begin(), Bits.end()),
            "bits improved differ between rounds");
    R.metric("setup_s", median(SetupTimes), "s");
    R.metric("total_s", median(Totals), "s");
    R.metric("max_rss_mb", processUsage().MaxRssMB, "MB");
    std::string Names;
    for (const Benchmark &B : Draw)
      Names += " " + B.Name;
    std::fprintf(stderr, "perfbench: %zu rounds over%s, %.4g bits improved\n",
                 Totals.size(), Names.c_str(), Bits.front());
    return;
  }

  declareLayerMetrics(R);
  SpanLog Log;
  LayerTotals L;
  PrimitiveProbe::Totals Prims;
  ProcessUsage UsageBefore{}, UsageAfter{};
  int Rounds = 0;
  while (Rounds == 0 || nowSeconds() - Start < S.Seconds) {
    double U0 = nowSeconds();
    Pass Untraced = UntracedPass();
    double UntracedSeconds = nowSeconds() - U0;
    R.add("herbie.unsound_wrong", static_cast<double>(Untraced.UnsoundWrong),
          "count");
    R.add("herbie.sound_s", Untraced.Sound, "s");
    R.add("herbie.unsound_s", Untraced.Unsound, "s");
    R.add("herbie.bits_improved", Untraced.Bits, "bits");

    UsageBefore = processUsage();
    double T0 = nowSeconds();
    std::vector<HerbieResult> Traced;
    {
      ScopedSpan Round(Log, "herbie.round");
      for (const Benchmark &B : Draw)
        for (bool Sound : {true, false}) {
          HerbieOptions Opts = Shipped;
          Opts.Sound = Sound;
          Traced.push_back(tracedImprove(B, Opts, Log, L, Prims, R));
        }
    }
    R.add("trace.overhead_s", (nowSeconds() - T0) - UntracedSeconds, "s");
    UsageAfter = processUsage();
    bool Same = Traced.size() == Untraced.Results.size();
    for (size_t I = 0; Same && I < Traced.size(); ++I)
      Same = Traced[I].BestExpr == Untraced.Results[I].BestExpr &&
             Traced[I].InitialErrorBits ==
                 Untraced.Results[I].InitialErrorBits &&
             Traced[I].FinalErrorBits == Untraced.Results[I].FinalErrorBits;
    R.check(Same, "traced Herbie pipeline reached different results");
    ++Rounds;
  }
  reportLayers(R, L);
  reportPrimitives(R, Prims);
  double ApproxMB = R.value("egraph.approx_mb");
  R.scaleAll(1.0 / Rounds);
  reportProcess(R, UsageBefore, UsageAfter);
  R.metric("egraph.approx_mb", ApproxMB, "MB");
  std::string Path = S.ScratchDir + "/spans-herbie.jsonl";
  R.check(Log.write(Path), "could not write spans to " + Path);
  std::fprintf(stderr, "perfbench: %d traced rounds, %zu spans in %s\n",
               Rounds, Log.size(), Path.c_str());
}
