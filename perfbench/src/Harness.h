//===- perfbench/src/Harness.h - Shared benchmark scaffolding ---*- C++ -*-===//
//
// Part of egglog-cpp's benchmark (see perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the command-line settings, the result
/// record printed as the last line of standard output, process resource
/// readings, the in-memory span recorder of the traced run, and the
/// counting wrapper put around every primitive of an e-graph. Everything
/// here observes the engine from outside, through its public calls.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_PERFBENCH_HARNESS_H
#define EGGLOG_PERFBENCH_HARNESS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace egglog {
class EGraph;
struct RunReport;
} // namespace egglog

namespace perfbench {

/// Settings of one benchmark run.
struct Settings {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory for the snapshot file and the span dump.
  std::string ScratchDir = ".";
};

/// How often each workload repeats its set-up before the rounds, and again
/// before each round, so that set-up samples the same stretch of time as
/// the rounds; setup_s is the median of all of them.
constexpr int SetupRepeats = 21;
constexpr int SetupPerRound = 5;

/// Seconds on the monotonic clock since an arbitrary fixed origin.
double nowSeconds();

/// Median of \p Values (0 for an empty list).
double median(std::vector<double> Values);

/// SplitMix64: derives independent sub-seeds from the workload seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Stream);

/// Resource usage of this process so far.
struct ProcessUsage {
  double UserSeconds = 0;
  double SysSeconds = 0;
  uint64_t MinorFaults = 0;
  double MaxRssMB = 0;
};
ProcessUsage processUsage();

/// One named figure with its unit.
struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
};

/// The result line and its bookkeeping. Checks that fail are recorded as
/// messages on standard error and turn `correct` false.
class Result {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// Adds \p Delta to a metric, creating it at zero first.
  void add(const std::string &Name, double Delta, const std::string &Unit);
  double value(const std::string &Name) const;
  /// Multiplies every metric by \p Factor (turns sums over the rounds of
  /// a traced run into per-round figures).
  void scaleAll(double Factor);

  /// Records a check outcome; returns \p Ok.
  bool check(bool Ok, const std::string &What);

  void attempt(bool Ok) {
    ++Attempted;
    if (!Ok)
      ++Failed;
  }

  /// Prints the JSON result object as one line on standard output.
  void print() const;

private:
  std::vector<Metric> Metrics;
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Spans of the traced run: name, start, end and parent, kept in memory
/// and written out as JSON lines when the run ends.
class SpanLog {
public:
  uint32_t begin(const char *Name);
  void end(uint32_t Id);
  bool write(const std::string &Path) const;
  size_t size() const { return Spans.size(); }

private:
  struct Span {
    std::string Name;
    uint32_t Parent = 0; ///< 0 = no parent; otherwise parent id + 1.
    double Start = 0;
    double End = 0;
  };
  std::vector<Span> Spans;
  std::vector<uint32_t> Open;
  double Origin = nowSeconds();
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
public:
  ScopedSpan(SpanLog &Log, const char *Name) : Log(Log), Id(Log.begin(Name)) {}
  ~ScopedSpan() { Log.end(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanLog &Log;
  uint32_t Id;
};

/// Counts and times every primitive call of one e-graph. install() copies
/// each registry entry, truncates the registry to zero, and re-adds the
/// entries in id order wrapped in a counter and a timer, so primitive ids
/// stay unchanged. The counters are atomics: the parallel match phase
/// calls primitives from several threads at once. Primitives registered
/// after install() (set sorts declared later) are not counted.
class PrimitiveProbe {
public:
  /// Returns false if a re-added primitive did not keep its id.
  bool install(egglog::EGraph &G);

  struct Totals {
    uint64_t RationalCalls = 0;
    double RationalSeconds = 0;
    uint64_t OtherCalls = 0;
    double OtherSeconds = 0;
    uint64_t Failed = 0;

    Totals &operator+=(const Totals &O) {
      RationalCalls += O.RationalCalls;
      RationalSeconds += O.RationalSeconds;
      OtherCalls += O.OtherCalls;
      OtherSeconds += O.OtherSeconds;
      Failed += O.Failed;
      return *this;
    }
  };
  Totals totals() const;

private:
  struct Counter {
    std::atomic<uint64_t> Calls{0};
    std::atomic<uint64_t> Nanos{0};
    std::atomic<uint64_t> Failed{0};
    bool Rational = false;
  };
  // Owned here and shared with the wrapped primitives, which may outlive
  // the probe inside the e-graph's registry.
  std::shared_ptr<std::vector<Counter>> Counters;
};

/// Per-layer figures that every traced workload accumulates from the
/// engine's own reports (see README.md for what each one should move).
struct LayerTotals {
  double RunSeconds = 0;
  uint64_t Iterations = 0;
  double SearchSeconds = 0;
  uint64_t Matches = 0;
  double ApplySeconds = 0;
  double ApplyStageSeconds = 0;
  double RebuildSeconds = 0;
  double RebuildGatherSeconds = 0;
  double WarmSeconds = 0;
  uint64_t RebuildPasses = 0;

  /// Adds the phase figures of \p Report; RunSeconds is timed by caller.
  void addReport(const egglog::RunReport &Report);
};

/// The names of every per-layer metric, in BENCHMARK.json order, so that
/// each traced run reports all of them (zero where a layer is not used).
void declareLayerMetrics(Result &R);

/// Writes the engine-report part of \p L into \p R and checks that the
/// phase figures account for no more than the timed run.
void reportLayers(Result &R, const LayerTotals &L);

void reportPrimitives(Result &R, const PrimitiveProbe::Totals &T);

/// Deltas of process usage between two readings, as per-layer metrics.
void reportProcess(Result &R, const ProcessUsage &Before,
                   const ProcessUsage &After);

// Workload entry points. Each fills \p R; the caller prints it.
void runPointsToWorkload(const Settings &S, Result &R);
void runHerbieWorkload(const Settings &S, Result &R);
void runEqSatWorkload(const Settings &S, Result &R);

} // namespace perfbench

#endif // EGGLOG_PERFBENCH_HARNESS_H
