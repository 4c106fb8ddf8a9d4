//===- perfbench/src/Bench.cpp - Shared benchmark plumbing ----------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/Obs.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sys/resource.h>

//===----------------------------------------------------------------------===//
// Allocation counting: the benchmark binary's own operator new. Counting
// is per thread and gated, so the untraced runs pay one relaxed load.
//===----------------------------------------------------------------------===//

namespace {
std::atomic<bool> CountAllocs{false};
thread_local uint64_t TlAllocs = 0;

void *countedAlloc(std::size_t N) {
  if (CountAllocs.load(std::memory_order_relaxed))
    ++TlAllocs;
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}

void *countedAlignedAlloc(std::size_t N, std::align_val_t A) {
  if (CountAllocs.load(std::memory_order_relaxed))
    ++TlAllocs;
  std::size_t Al = static_cast<std::size_t>(A);
  std::size_t Sz = (N + Al - 1) / Al * Al;
  if (void *P = std::aligned_alloc(Al, Sz ? Sz : Al))
    return P;
  throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t N) { return countedAlloc(N); }
void *operator new[](std::size_t N) { return countedAlloc(N); }
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  try {
    return countedAlloc(N);
  } catch (...) {
    return nullptr;
  }
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  try {
    return countedAlloc(N);
  } catch (...) {
    return nullptr;
  }
}
void *operator new(std::size_t N, std::align_val_t A) {
  return countedAlignedAlloc(N, A);
}
void *operator new[](std::size_t N, std::align_val_t A) {
  return countedAlignedAlloc(N, A);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}

namespace perf {

uint64_t threadAllocs() { return TlAllocs; }
void setAllocCounting(bool On) {
  CountAllocs.store(On, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double quantile(std::vector<uint64_t> V, double Q) {
  if (V.empty())
    return 0;
  size_t Rank = static_cast<size_t>(Q * static_cast<double>(V.size()));
  if (Rank >= V.size())
    Rank = V.size() - 1;
  std::nth_element(V.begin(), V.begin() + static_cast<ptrdiff_t>(Rank),
                   V.end());
  return static_cast<double>(V[Rank]);
}

double medianOf(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

std::vector<double> windowQuantiles(const std::vector<uint64_t> &InOrder,
                                    size_t Window, double Q) {
  std::vector<double> Out;
  if (InOrder.size() < Window) {
    if (!InOrder.empty())
      Out.push_back(quantile(InOrder, Q) / 1e3);
    return Out;
  }
  for (size_t I = 0; I + Window <= InOrder.size(); I += Window)
    Out.push_back(quantile({InOrder.begin() + static_cast<ptrdiff_t>(I),
                            InOrder.begin() + static_cast<ptrdiff_t>(I + Window)},
                           Q) /
                  1e3);
  return Out;
}

static double interpolated(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  if (Lo + 1 >= V.size())
    return V.back();
  return V[Lo] + (V[Lo + 1] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double lowDecile(std::vector<double> V) { return interpolated(std::move(V), 0.1); }
double highDecile(std::vector<double> V) { return interpolated(std::move(V), 0.9); }

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double L = 0;
  for (double X : V)
    L += std::log(X);
  return std::exp(L / static_cast<double>(V.size()));
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::metric(const std::string &Name, double Value, const char *Unit) {
  for (auto &M : Metrics)
    if (M.first == Name) {
      M.second = {Value, Unit};
      return;
    }
  Metrics.push_back({Name, {Value, Unit}});
}

bool Report::has(const std::string &Name) const {
  for (const auto &M : Metrics)
    if (M.first == Name)
      return true;
  return false;
}

void Report::info(const std::string &Line) const {
  std::printf("info: %s\n", Line.c_str());
  std::fflush(stdout);
}

void Report::timing(const std::string &Name,
                    const std::vector<uint64_t> &Ns) const {
  char Buf[256];
  size_t N = Ns.size();
  if (N == 0) {
    info("timing " + Name + ": no samples");
    return;
  }
  double P50 = quantile(Ns, 0.5) / 1e3;
  // The highest percentile that still has ten samples beyond it.
  const double Ps[] = {0.999, 0.99, 0.95, 0.9, 0.75};
  double TailP = 0;
  for (double P : Ps)
    if (N >= 40 && static_cast<double>(N) * (1 - P) >= 10) {
      TailP = P;
      break;
    }
  if (TailP > 0)
    std::snprintf(Buf, sizeof(Buf), "timing %s: n=%zu p50=%.3fus p%g=%.3fus",
                  Name.c_str(), N, P50, TailP * 100, quantile(Ns, TailP) / 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "timing %s: n=%zu p50=%.3fus", Name.c_str(),
                  N, P50);
  info(Buf);
}

void Report::fail(const std::string &Why) {
  Correct = false;
  if (FailLines++ < 20)
    std::fprintf(stderr, "check failed: %s\n", Why.c_str());
}

static std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  auto Res = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, Res.ptr);
}

std::string Report::json() const {
  std::string S = "{\"correct\": ";
  S += Correct ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(Attempted);
  S += ", \"failed\": " + std::to_string(Failed);
  S += ", \"metrics\": {";
  bool First = true;
  for (const auto &M : Metrics) {
    if (!First)
      S += ", ";
    First = false;
    S += "\"" + M.first + "\": {\"value\": " + jsonNumber(M.second.first) +
         ", \"unit\": \"" + M.second.second + "\"}";
  }
  S += "}}";
  return S;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

uint32_t Tracer::begin(const char *Name, uint64_t Req) {
  SpanRec R;
  R.Name = Name;
  R.Req = Req;
  R.Parent = Open.empty() ? -1 : static_cast<int32_t>(Open.back());
  R.Allocs = threadAllocs(); // Start count until end() turns it into a delta.
  uint32_t I = static_cast<uint32_t>(Recs.size());
  Recs.push_back(R);
  Open.push_back(I);
  Recs[I].StartNs = nowNs();
  return I;
}

uint64_t Tracer::end(uint32_t I, uint64_t Arg) {
  uint64_t T = nowNs();
  SpanRec &R = Recs[I];
  R.EndNs = T;
  R.Allocs = threadAllocs() - R.Allocs;
  R.Arg = Arg;
  if (!Open.empty() && Open.back() == I)
    Open.pop_back();
  return R.durNs();
}

template <typename Fn>
void SpanStats::each(const char *Name, const char *Root, Fn F) const {
  for (const Tracer *T : Ts)
    for (const SpanRec &R : T->Recs) {
      if (std::strcmp(Name, R.Name) != 0)
        continue;
      if (Root) {
        const SpanRec *Top = &R;
        while (Top->Parent >= 0)
          Top = &T->Recs[static_cast<size_t>(Top->Parent)];
        if (std::strcmp(Root, Top->Name) != 0)
          continue;
      }
      F(R);
    }
}

std::vector<uint64_t> SpanStats::durs(const char *Name,
                                      const char *Root) const {
  std::vector<uint64_t> V;
  each(Name, Root, [&](const SpanRec &R) { V.push_back(R.durNs()); });
  return V;
}

double SpanStats::medianUs(const char *Name, const char *Root) const {
  return quantile(durs(Name, Root), 0.5) / 1e3;
}

double SpanStats::medianPerArgUs(const char *Name, const char *Root) const {
  std::vector<double> V;
  each(Name, Root, [&](const SpanRec &R) {
    if (R.Arg)
      V.push_back(static_cast<double>(R.durNs()) / 1e3 /
                  static_cast<double>(R.Arg));
  });
  return medianOf(std::move(V));
}

double SpanStats::medianAllocsPerArg(const char *Name,
                                     const char *Root) const {
  std::vector<double> V;
  each(Name, Root, [&](const SpanRec &R) {
    V.push_back(static_cast<double>(R.Allocs) /
                static_cast<double>(R.Arg ? R.Arg : 1));
  });
  return medianOf(std::move(V));
}

double SpanStats::medianArg(const char *Name, const char *Root) const {
  std::vector<double> V;
  each(Name, Root,
       [&](const SpanRec &R) { V.push_back(static_cast<double>(R.Arg)); });
  return medianOf(std::move(V));
}

std::vector<uint64_t> SpanStats::reqTotals(const char *Name,
                                           const char *Root) const {
  std::map<std::pair<const Tracer *, uint64_t>, uint64_t> Sums;
  for (const Tracer *T : Ts)
    SpanStats({T}).each(Name, Root, [&](const SpanRec &R) {
      Sums[{T, R.Req}] += R.durNs();
    });
  std::vector<uint64_t> V;
  for (const auto &KV : Sums)
    V.push_back(KV.second);
  return V;
}

bool writeTrace(const std::string &Path,
                const std::vector<const Tracer *> &Ts) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t BaseNs = UINT64_MAX;
  size_t Total = 0;
  for (const Tracer *T : Ts) {
    for (const SpanRec &R : T->Recs)
      BaseNs = std::min(BaseNs, R.StartNs);
    Total += T->Recs.size();
  }
  // A span's parent precedes it, so each thread's first spans are whole
  // requests apart from the last one.
  size_t PerThread = Ts.empty() ? 0 : MaxTraceSpans / Ts.size(), Written = 0;
  std::fprintf(F, "{\"traceEvents\":[\n");
  for (const Tracer *T : Ts)
    for (size_t I = 0; I < T->Recs.size() && I < PerThread; ++I, ++Written) {
      const SpanRec &R = T->Recs[I];
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"req\":%llu,\"allocs\":%llu,\"arg\":%llu}}",
                   Written ? ",\n" : "", R.Name, T->Tid,
                   static_cast<double>(R.StartNs - BaseNs) / 1e3,
                   static_cast<double>(R.durNs()) / 1e3, I, R.Parent,
                   static_cast<unsigned long long>(R.Req),
                   static_cast<unsigned long long>(R.Allocs),
                   static_cast<unsigned long long>(R.Arg));
    }
  std::fprintf(F, "\n],\"otherData\":{\"spans\":%zu,\"written\":%zu}}\n",
               Total, Written);
  return std::fclose(F) == 0;
}

const std::vector<LayerMetric> &layerMetrics() {
  static const std::vector<LayerMetric> L = {
      // Hot admission path.
      {"serial.read_us", "us"},
      {"serial.read_allocs", "count"},
      {"serial.hash_us", "us"},
      {"typing.check_us", "us"},
      {"cache.probe_us", "us"},
      {"cache.hit_ratio", "ratio"},
      {"cache.internal_hits", "count"},
      {"cache.internal_misses", "count"},
      {"link.instantiate_us", "us"},
      {"wasm.decode_us", "us"},
      // Cold compile path.
      {"typing.check_us_per_func", "us"},
      {"typing.allocs_per_func", "count"},
      {"link.resolve_us", "us"},
      {"lower.us_per_func", "us"},
      {"lower.allocs_per_func", "count"},
      {"wasm.validate_us", "us"},
      {"exec.translate_us", "us"},
      {"ml.compile_us", "us"},
      {"l3.compile_us", "us"},
      {"jit.compile_us", "us"},
      // Execution.
      {"exec.instrs", "count"},
      {"exec.flat_words", "count"},
      {"jit.coverage", "ratio"},
      {"jit.code_bytes", "bytes"},
      {"jit.deopts", "count"},
      {"lower.gc_collect_us", "us"},
      {"lower.cells_swept", "count"},
      // Rejection path, by rejecting stage.
      {"ingest.reject_us.sniff", "us"},
      {"ingest.reject_us.serial_read", "us"},
      {"ingest.reject_us.check", "us"},
      {"ingest.reject_us.instantiate", "us"},
      {"ingest.reject_us.wasm_decode", "us"},
      // The same layer times at one client (waiting on shared locks is the
      // difference to the figures above).
      {"serial.read_us.1client", "us"},
      {"serial.hash_us.1client", "us"},
      {"typing.check_us.1client", "us"},
      {"cache.probe_us.1client", "us"},
      {"link.instantiate_us.1client", "us"},
      {"wasm.decode_us.1client", "us"},
      {"wasm.validate_us.1client", "us"},
      {"lower.us_per_func.1client", "us"},
      // Traced stage sums against the untraced composite call.
      {"recon.hot.stage_sum_us", "us"},
      {"recon.hot.untraced_us", "us"},
      {"recon.cold.stage_sum_us", "us"},
      {"recon.cold.untraced_us", "us"},
      {"recon.wasm.stage_sum_us", "us"},
      {"recon.wasm.untraced_us", "us"},
      {"trace.overhead_pct", "pct"},
  };
  return L;
}

double peakRssMiB() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

uint64_t deoptCount() {
  for (const rw::obs::Metric &M : rw::obs::snapshot().Metrics)
    if (M.Name == "exec.tier.deopts")
      return M.Value;
  return 0;
}

} // namespace perf
