//===- perfbench/src/Harness.cpp - Shared benchmark scaffolding -----------===//
//
// Part of egglog-cpp's benchmark. See Harness.h for an overview.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/EGraph.h"
#include "core/Engine.h"
#include "core/Primitives.h"

#include <algorithm>
#include <cstdio>
#include <sys/resource.h>

using namespace perfbench;

double perfbench::nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t Mid = Values.size() / 2;
  if (Values.size() % 2)
    return Values[Mid];
  return (Values[Mid - 1] + Values[Mid]) / 2;
}

uint64_t perfbench::mixSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (Stream + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

ProcessUsage perfbench::processUsage() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  ProcessUsage P;
  P.UserSeconds = Usage.ru_utime.tv_sec + Usage.ru_utime.tv_usec * 1e-6;
  P.SysSeconds = Usage.ru_stime.tv_sec + Usage.ru_stime.tv_usec * 1e-6;
  P.MinorFaults = static_cast<uint64_t>(Usage.ru_minflt);
  P.MaxRssMB = static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux
  return P;
}

//===----------------------------------------------------------------------===
// Result
//===----------------------------------------------------------------------===

void Result::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  for (Metric &M : Metrics)
    if (M.Name == Name) {
      M.Value = Value;
      M.Unit = Unit;
      return;
    }
  Metrics.push_back(Metric{Name, Unit, Value});
}

void Result::add(const std::string &Name, double Delta,
                 const std::string &Unit) {
  metric(Name, value(Name) + Delta, Unit);
}

double Result::value(const std::string &Name) const {
  for (const Metric &M : Metrics)
    if (M.Name == Name)
      return M.Value;
  return 0;
}

void Result::scaleAll(double Factor) {
  for (Metric &M : Metrics)
    M.Value *= Factor;
}

bool Result::check(bool Ok, const std::string &What) {
  if (!Ok) {
    Correct = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", What.c_str());
  }
  return Ok;
}

void Result::print() const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

//===----------------------------------------------------------------------===
// Spans
//===----------------------------------------------------------------------===

uint32_t SpanLog::begin(const char *Name) {
  Span S;
  S.Name = Name;
  S.Parent = Open.empty() ? 0 : Open.back() + 1;
  S.Start = nowSeconds() - Origin;
  Spans.push_back(std::move(S));
  uint32_t Id = static_cast<uint32_t>(Spans.size() - 1);
  Open.push_back(Id);
  return Id;
}

void SpanLog::end(uint32_t Id) {
  Spans[Id].End = nowSeconds() - Origin;
  if (!Open.empty() && Open.back() == Id)
    Open.pop_back();
}

bool SpanLog::write(const std::string &Path) const {
  FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(Out,
                 "{\"id\": %zu, \"parent\": %lld, \"name\": \"%s\", "
                 "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                 I, S.Parent ? static_cast<long long>(S.Parent - 1) : -1LL,
                 S.Name.c_str(), S.Start, S.End);
  }
  return std::fclose(Out) == 0;
}

//===----------------------------------------------------------------------===
// Primitive probe
//===----------------------------------------------------------------------===

bool PrimitiveProbe::install(egglog::EGraph &G) {
  egglog::PrimitiveRegistry &Registry = G.primitives();
  std::vector<egglog::Primitive> Entries;
  for (uint32_t Id = 0; Id < Registry.size(); ++Id)
    Entries.push_back(Registry.get(Id));
  Counters = std::make_shared<std::vector<Counter>>(Entries.size());
  Registry.truncate(0);
  for (uint32_t Id = 0; Id < Entries.size(); ++Id) {
    egglog::Primitive Wrapped = Entries[Id];
    bool Rational = Wrapped.OutSort == egglog::SortTable::RationalSort;
    for (egglog::SortId Arg : Wrapped.ArgSorts)
      Rational |= Arg == egglog::SortTable::RationalSort;
    (*Counters)[Id].Rational = Rational;
    Wrapped.Apply = [Inner = Entries[Id].Apply, Counters = Counters,
                     Id](egglog::EGraph &Graph, const egglog::Value *Args,
                         egglog::Value &Out) {
      Counter &C = (*Counters)[Id];
      auto Start = std::chrono::steady_clock::now();
      bool Ok = Inner(Graph, Args, Out);
      auto Nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
      C.Calls.fetch_add(1, std::memory_order_relaxed);
      C.Nanos.fetch_add(static_cast<uint64_t>(Nanos),
                        std::memory_order_relaxed);
      if (!Ok)
        C.Failed.fetch_add(1, std::memory_order_relaxed);
      return Ok;
    };
    if (Registry.add(std::move(Wrapped)) != Id)
      return false;
  }
  return true;
}

PrimitiveProbe::Totals PrimitiveProbe::totals() const {
  Totals T;
  if (!Counters)
    return T;
  for (const Counter &C : *Counters) {
    uint64_t Calls = C.Calls.load(std::memory_order_relaxed);
    double Seconds = C.Nanos.load(std::memory_order_relaxed) * 1e-9;
    (C.Rational ? T.RationalCalls : T.OtherCalls) += Calls;
    (C.Rational ? T.RationalSeconds : T.OtherSeconds) += Seconds;
    T.Failed += C.Failed.load(std::memory_order_relaxed);
  }
  return T;
}

//===----------------------------------------------------------------------===
// Per-layer reporting
//===----------------------------------------------------------------------===

void LayerTotals::addReport(const egglog::RunReport &Report) {
  for (const egglog::IterationStats &Stats : Report.Iterations) {
    ++Iterations;
    SearchSeconds += Stats.SearchSeconds;
    Matches += Stats.Matches;
    ApplySeconds += Stats.ApplySeconds;
    ApplyStageSeconds += Stats.ApplyStageSeconds;
    RebuildSeconds += Stats.RebuildSeconds;
    RebuildGatherSeconds += Stats.RebuildGatherSeconds;
    WarmSeconds += Stats.WarmSeconds;
    RebuildPasses += Stats.RebuildPasses;
  }
}

void perfbench::declareLayerMetrics(Result &R) {
  static const std::pair<const char *, const char *> Names[] = {
      {"frontend.execute_s", "s"},      {"pointsto.facts_s", "s"},
      {"engine.run_s", "s"},            {"engine.iterations", "count"},
      {"engine.other_s", "s"},          {"query.search_s", "s"},
      {"query.matches", "count"},       {"index.builds", "count"},
      {"index.refreshes", "count"},     {"index.hits", "count"},
      {"index.derivations", "count"},   {"egraph.apply_s", "s"},
      {"egraph.rebuild_s", "s"},        {"egraph.rebuild_passes", "count"},
      {"unionfind.unions", "count"},    {"applystage.stage_s", "s"},
      {"engine.warm_s", "s"},           {"egraph.rebuild_gather_s", "s"},
      {"process.user_s", "s"},          {"process.sys_s", "s"},
      {"process.minor_faults", "count"}, {"table.live_tuples", "count"},
      {"egraph.approx_mb", "MB"},       {"primitives.rational_calls", "count"},
      {"primitives.rational_s", "s"},   {"primitives.other_calls", "count"},
      {"primitives.other_s", "s"},      {"primitives.failed", "count"},
      {"extract.s", "s"},               {"extract.rows", "count"},
      {"extract.full_rebuilds", "count"}, {"herbie.sample_s", "s"},
      {"herbie.schedule_s", "s"},       {"herbie.measure_s", "s"},
      {"herbie.candidates", "count"},   {"herbie.enodes", "count"},
      {"herbie.unsound_wrong", "count"}, {"trace.overhead_s", "s"},
      {"pointsto.serial_s", "s"},       {"pointsto.parallel_s", "s"},
      {"herbie.sound_s", "s"},          {"herbie.unsound_s", "s"},
      {"herbie.bits_improved", "bits"}, {"snapshot.save_s", "s"},
      {"snapshot.load_s", "s"},         {"snapshot.mb", "MB"},
  };
  for (const auto &[Name, Unit] : Names)
    R.metric(Name, 0, Unit);
}

void perfbench::reportLayers(Result &R, const LayerTotals &L) {
  double Phases = L.SearchSeconds + L.ApplySeconds + L.RebuildSeconds;
  R.metric("engine.run_s", L.RunSeconds, "s");
  R.metric("engine.iterations", static_cast<double>(L.Iterations), "count");
  R.metric("engine.other_s", L.RunSeconds - Phases, "s");
  R.metric("query.search_s", L.SearchSeconds, "s");
  R.metric("query.matches", static_cast<double>(L.Matches), "count");
  R.metric("egraph.apply_s", L.ApplySeconds, "s");
  R.metric("egraph.rebuild_s", L.RebuildSeconds, "s");
  R.metric("egraph.rebuild_passes", static_cast<double>(L.RebuildPasses),
           "count");
  R.metric("applystage.stage_s", L.ApplyStageSeconds, "s");
  R.metric("engine.warm_s", L.WarmSeconds, "s");
  R.metric("egraph.rebuild_gather_s", L.RebuildGatherSeconds, "s");
  // Search, apply and rebuild are disjoint intervals of one run call
  // (warm-up lies inside search, staging inside apply, gather inside
  // rebuild), so together they cannot exceed the run's wall time.
  R.check(Phases <= L.RunSeconds * 1.001 + 1e-4,
          "engine phase times exceed the timed Engine::run calls");
  R.check(L.WarmSeconds <= L.SearchSeconds + 1e-6 &&
              L.ApplyStageSeconds <= L.ApplySeconds + 1e-6 &&
              L.RebuildGatherSeconds <= L.RebuildSeconds + 1e-6,
          "a sub-phase time exceeds its phase");
}

void perfbench::reportPrimitives(Result &R, const PrimitiveProbe::Totals &T) {
  R.add("primitives.rational_calls", static_cast<double>(T.RationalCalls),
        "count");
  R.add("primitives.rational_s", T.RationalSeconds, "s");
  R.add("primitives.other_calls", static_cast<double>(T.OtherCalls),
        "count");
  R.add("primitives.other_s", T.OtherSeconds, "s");
  R.add("primitives.failed", static_cast<double>(T.Failed), "count");
}

void perfbench::reportProcess(Result &R, const ProcessUsage &Before,
                              const ProcessUsage &After) {
  R.metric("process.user_s", After.UserSeconds - Before.UserSeconds, "s");
  R.metric("process.sys_s", After.SysSeconds - Before.SysSeconds, "s");
  R.metric("process.minor_faults",
           static_cast<double>(After.MinorFaults - Before.MinorFaults),
           "count");
}
