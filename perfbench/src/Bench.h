//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the end-to-end benchmark shares: run options,
/// seeded randomness, latency summaries, the result report (the last
/// stdout line is the JSON result), and the traced mode's span recorder
/// and allocation counter. Spans are recorded here, around calls into
/// each layer's public functions, never inside the library.
///
//===----------------------------------------------------------------------===//

#ifndef RWPERF_BENCH_H
#define RWPERF_BENCH_H

#include "bench/ServerMix.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perf {

/// Monotonic nanoseconds (CLOCK_MONOTONIC, shared with the launcher so
/// set-up time can be measured from the process's start).
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

using rwbench::splitmix64;

/// An independent stream for (seed, a, b): every client, round, and
/// generator draws from its own stream, so schedules replay exactly.
inline uint64_t streamSeed(uint64_t Seed, uint64_t A, uint64_t B = 0) {
  uint64_t S = Seed ^ (A * 0xd1b54a32d192ed03ull) ^ (B * 0xaef17502108ef2d9ull);
  return splitmix64(S);
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Monotonic time the launcher started this process (0: use main()).
  uint64_t T0Ns = 0;
};

/// Where the traced mode writes its span files (relative to the checkout
/// root, where run.py starts the binary).
inline constexpr const char *OutDir = ".bench_out";

/// The end-to-end p50 of request class K (1-4) of a workload is reported
/// as ClassP50[K-1]; each workload's README table says which class is which.
inline constexpr const char *ClassP50[4] = {"class1_p50_us", "class2_p50_us",
                                            "class3_p50_us", "class4_p50_us"};

/// Exact quantile (nearest rank) of unsorted samples, in the samples' unit.
double quantile(std::vector<uint64_t> V, double Q);
double medianOf(std::vector<double> V);
double geomean(const std::vector<double> &V);

/// Contention from other tenants of a shared host slows whole stretches
/// of a run, from 0.1 s to more than 10 s (the per-pass rates of one
/// link-cold run spread from 14k to 22k functions/s, with CPU time equal
/// to wall time: the CPU itself ran slower). So every timed end-to-end
/// metric is computed per window of consecutive samples and summarised by
/// the decile of windows on the good side: the first decile of window
/// latencies, the ninth of window rates. A slower program moves every
/// window; contention that spares a tenth of the run moves none of these.
///
/// Quantile \p Q (us) of each full window of \p Window consecutive samples
/// (one window of all samples when there are fewer).
std::vector<double> windowQuantiles(const std::vector<uint64_t> &InOrder,
                                    size_t Window, double Q);
/// 100 samples per p50 window; 1000 per p99 window, so each window's p99
/// has ten samples beyond it.
constexpr size_t P50Window = 100, P99Window = 1000;
/// First and ninth decile (linear interpolation), 0 when empty.
double lowDecile(std::vector<double> V);
double highDecile(std::vector<double> V);

/// The benchmark's result: metrics by name and unit, attempted/failed
/// operation counts, and whether every output matched its reference.
class Report {
public:
  void metric(const std::string &Name, double Value, const char *Unit);
  /// A human-readable line on stdout (never the last line).
  void info(const std::string &Line) const;
  /// Prints a timing's sample count, median and the highest percentile
  /// with at least ten samples beyond it (none below forty samples).
  void timing(const std::string &Name, const std::vector<uint64_t> &Ns) const;
  /// Marks the run incorrect and says why on stderr.
  void fail(const std::string &Why);
  bool correct() const { return Correct; }
  bool has(const std::string &Name) const;
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;

  uint64_t Attempted = 0;
  uint64_t Failed = 0;

private:
  bool Correct = true;
  unsigned FailLines = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
};

//===----------------------------------------------------------------------===//
// Traced mode
//===----------------------------------------------------------------------===//

/// Heap allocations made by the calling thread (counted by the operator
/// new defined in Bench.cpp while counting is on).
uint64_t threadAllocs();
void setAllocCounting(bool On);

struct SpanRec {
  const char *Name = nullptr;
  uint64_t StartNs = 0, EndNs = 0;
  int32_t Parent = -1; ///< Index of the enclosing span on this thread.
  uint64_t Req = 0;    ///< Request id shared by all spans of one request.
  uint64_t Allocs = 0; ///< Allocations inside the span (children included).
  uint64_t Arg = 0;    ///< Work size (functions, instructions, ...).
  uint64_t durNs() const { return EndNs - StartNs; }
};

/// One thread's spans, kept in memory until the run ends.
class Tracer {
public:
  explicit Tracer(uint32_t Tid) : Tid(Tid) { Recs.reserve(1 << 16); }
  uint32_t begin(const char *Name, uint64_t Req);
  /// Closes span \p I; returns its duration.
  uint64_t end(uint32_t I, uint64_t Arg = 0);
  std::vector<SpanRec> Recs;
  uint32_t Tid;

private:
  std::vector<uint32_t> Open;
};

/// RAII span; a null tracer records nothing (the untraced path).
class Span {
public:
  Span(Tracer *T, const char *Name, uint64_t Req)
      : T(T), I(T ? T->begin(Name, Req) : 0) {}
  ~Span() { close(); }
  void setArg(uint64_t A) { Arg = A; }
  void close() {
    if (T)
      T->end(I, Arg);
    T = nullptr;
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer *T;
  uint32_t I;
  uint64_t Arg = 0;
};

/// Span statistics over all tracers, by span name; \p Root, when given,
/// keeps only spans whose outermost span has that name (a request class).
class SpanStats {
public:
  explicit SpanStats(std::vector<const Tracer *> Ts) : Ts(std::move(Ts)) {}
  std::vector<uint64_t> durs(const char *Name, const char *Root = nullptr) const;
  double medianUs(const char *Name, const char *Root = nullptr) const;
  /// Median over spans of duration / Arg, in microseconds.
  double medianPerArgUs(const char *Name, const char *Root = nullptr) const;
  /// Median over spans of Allocs / Arg (Allocs when Arg is unset).
  double medianAllocsPerArg(const char *Name, const char *Root = nullptr) const;
  double medianArg(const char *Name, const char *Root = nullptr) const;
  /// Per request: the summed durations (ns) of its spans named \p Name
  /// (a stage may run once per module of a request).
  std::vector<uint64_t> reqTotals(const char *Name,
                                  const char *Root = nullptr) const;

private:
  template <typename Fn>
  void each(const char *Name, const char *Root, Fn F) const;
  std::vector<const Tracer *> Ts;
};

/// Writes spans as Chrome trace_event JSON (loadable in Perfetto): the
/// first spans of each thread, MaxTraceSpans in all, so a file stays a
/// few MB; `otherData` gives how many were recorded and written. The
/// traced metrics use every span.
constexpr size_t MaxTraceSpans = 1 << 16;
bool writeTrace(const std::string &Path, const std::vector<const Tracer *> &Ts);

/// The per-layer metrics every traced run reports, in order; a workload
/// that does not run a layer reports 0 for it.
struct LayerMetric {
  const char *Name;
  const char *Unit;
};
const std::vector<LayerMetric> &layerMetrics();

// Workloads. Each fills the report; returns false on a set-up error.
bool runAdmitMix(const Options &O, Report &R);
bool runLinkCold(const Options &O, Report &R);
bool runExecTiers(const Options &O, Report &R);

/// Set-up time so far: since the launcher started this process, or since
/// main() when started directly (seconds).
double setupSeconds(const Options &O);

/// Peak resident set size of this process in MiB.
double peakRssMiB();

/// The JIT's process-wide deopt counter (obs `exec.tier.deopts`).
uint64_t deoptCount();

} // namespace perf

#endif // RWPERF_BENCH_H
