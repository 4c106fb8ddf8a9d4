//===- perfbench/src/Main.cpp - Benchmark entry point ---------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
// rwperf --workload <admit-mix|link-cold|exec-tiers> --seed <n>
//        --seconds <s> --trace <0|1> [--t0-ns <monotonic ns>]
//
// Prints informational lines, then one JSON result line; exits 1 when an
// output did not match its reference. perfbench/run.py builds this binary
// and runs it from the checkout root with a pinned environment.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>
#include <sys/utsname.h>
#include <thread>

using namespace perf;

namespace {

uint64_t MainStartNs = 0;

/// CPU brand (cpuid), logical cores and kernel: enough to tell hosts apart
/// without reading files outside the checkout.
std::string hostFingerprint() {
  char Brand[49] = {};
  unsigned Regs[4];
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004)
    for (unsigned I = 0; I < 3; ++I) {
      __get_cpuid(0x80000002 + I, &Regs[0], &Regs[1], &Regs[2], &Regs[3]);
      std::memcpy(Brand + 16 * I, Regs, 16);
    }
  std::string Model = Brand[0] ? Brand : "unknown-cpu";
  while (!Model.empty() && Model.back() == ' ')
    Model.pop_back();
  struct utsname U;
  std::string Kernel = uname(&U) == 0 ? std::string(U.release) : "unknown";
  return Model + " | cores=" +
         std::to_string(std::thread::hardware_concurrency()) +
         " | kernel=" + Kernel;
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "rwperf: %s\nusage: rwperf --workload admit-mix|link-cold|"
               "exec-tiers --seed N --seconds S --trace 0|1 [--t0-ns NS]\n",
               Why);
  return 2;
}

/// End-to-end metrics every untraced run reports (with ClassP50).
const char *const EndToEnd[] = {"setup_s", "peak_rss_mb", "throughput_per_s",
                                "p99_us", "wasm_bytes_per_func"};

} // namespace

double perf::setupSeconds(const Options &O) {
  uint64_t From = O.T0Ns && O.T0Ns <= MainStartNs ? O.T0Ns : MainStartNs;
  return static_cast<double>(nowNs() - From) / 1e9;
}

int main(int argc, char **argv) {
  MainStartNs = nowNs();
  Options O;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string K = argv[I], V = argv[I + 1];
    if (K == "--workload")
      O.Workload = V;
    else if (K == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      O.Seconds = std::strtod(V.c_str(), nullptr);
    else if (K == "--trace")
      O.Trace = V == "1";
    else if (K == "--t0-ns")
      O.T0Ns = std::strtoull(V.c_str(), nullptr, 10);
    else
      return usage(("unknown option " + K).c_str());
  }
  if (argc % 2 == 0)
    return usage("options come in pairs");
  if (O.Workload != "admit-mix" && O.Workload != "link-cold" &&
      O.Workload != "exec-tiers")
    return usage("unknown workload");
  if (!(O.Seconds > 0 && O.Seconds <= 120))
    return usage("--seconds must be in (0, 120]");

  // A pinned environment: timings from debug or sanitizer builds, or with
  // the library's own tracing or tier-up overrides switched on, measure
  // something else.
#ifndef NDEBUG
  return usage("refusing a build without NDEBUG (build Release)");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return usage("refusing a sanitizer build");
#endif
  for (const char *V :
       {"RW_JIT_THRESHOLD", "RW_OBS", "RW_OBS_TRACE", "RW_OBS_TRACE_SAMPLE"})
    if (std::getenv(V))
      return usage((std::string(V) + " is set; run through perfbench/run.py, "
                                     "which clears it")
                       .c_str());

  Report R;
  R.info("host " + hostFingerprint());
  R.info("workload " + O.Workload + " seed " + std::to_string(O.Seed) +
         " seconds " + std::to_string(O.Seconds) + " trace " +
         (O.Trace ? "1" : "0") + " nproc " +
         std::to_string(std::thread::hardware_concurrency()));
  if (O.Trace)
    ::mkdir(OutDir, 0755);

  bool Ok = O.Workload == "admit-mix"   ? runAdmitMix(O, R)
            : O.Workload == "link-cold" ? runLinkCold(O, R)
                                        : runExecTiers(O, R);
  if (!Ok) {
    std::fprintf(stderr, "rwperf: %s set-up failed\n", O.Workload.c_str());
    return 1;
  }
  if (!O.Trace) {
    R.metric("peak_rss_mb", peakRssMiB(), "MiB");
    for (const char *M : EndToEnd)
      if (!R.has(M))
        R.fail(std::string("metric ") + M + " was not measured");
    for (const char *M : ClassP50)
      if (!R.has(M))
        R.fail(std::string("metric ") + M + " was not measured");
  } else {
    // Every traced run reports every layer metric; a layer this workload
    // does not run reads 0.
    std::string Absent;
    for (const LayerMetric &L : layerMetrics())
      if (!R.has(L.Name)) {
        R.metric(L.Name, 0, L.Unit);
        Absent += std::string(" ") + L.Name;
      }
    if (!Absent.empty())
      R.info("layers not run by " + O.Workload + ":" + Absent);
  }
  std::printf("%s\n", R.json().c_str());
  return R.correct() ? 0 : 1;
}
