//===- perfbench/src/ExecTiers.cpp - exec-tiers: generated code per tier --===//
//
// Part of the RichWasm reproduction. MIT license.
//
// One thread runs fixed programs to completion on the flat tier and on
// the eager JIT tier: a numeric loop, linear alloc/swap/free churn, the
// Fig. 9 ML<->L3 counter across the language boundary, and GC churn
// collected by HostGc. Each run is preceded by a timed prepare, which
// admits (or links) the program afresh on that tier, JIT compile included,
// so a faster-code/slower-compile trade shows in the same workload. Every
// run is checked against its closed form, the runtime's live-block count,
// the collector's sweep count, and the other tier's instruction count.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Gen.h"

#include "exec/Engine.h"
#include "ingest/Ingest.h"
#include "jit/Jit.h"
#include "l3/L3.h"
#include "link/Link.h"
#include "ml/ML.h"
#include "serial/Serial.h"
#include "wasm/Binary.h"

#include <memory>

using namespace rw;

namespace perf {
namespace {

// Work per run (not seeded, so run times do not move with the seed).
constexpr int32_t LoopN = 200000, ChurnN = 4000, GcN = 4000;
constexpr uint32_t CounterRate = 64, CounterTicks = 40;

enum Prog : uint8_t { Loop, Churn, Counter, Gc, NumProgs };
const char *const ProgName[NumProgs] = {"loop", "churn", "counter", "gc"};
const wasm::EngineKind Tiers[2] = {wasm::EngineKind::Flat,
                                   wasm::EngineKind::Jit};
/// Root span per (program, tier).
const char *const RootName[NumProgs][2] = {{"run.loop.flat", "run.loop.jit"},
                                           {"run.churn.flat", "run.churn.jit"},
                                           {"run.counter.flat", "run.counter.jit"},
                                           {"run.gc.flat", "run.gc.jit"}};

/// One program instantiated on one tier.
struct Runner {
  ingest::AdmittedModule Admitted;      // Single-module programs.
  link::LoweredInstance Linked;         // The counter's link set.
  wasm::Instance *Inst = nullptr;
  const lower::LoweredProgram *Prog = nullptr;
};

struct Programs {
  uint32_t K = 0, Init = 0;
  /// RWBM bytes of the single-module programs (the counter's slot unused).
  std::vector<uint8_t> Bytes[NumProgs];
  /// The counter's link set, compiled once; each instance borrows it.
  std::vector<ir::Module> CounterSrc;
  std::unique_ptr<Runner> R[NumProgs][2];
  /// Executed instructions per run, in run order; the tiers run the same
  /// sequence, so the two tiers' lists must be equal.
  std::vector<uint64_t> Counts[NumProgs][2];
  uint64_t WasmBytes = 0, Funcs = 0;
};

uint32_t global(const Runner &Rn, uint32_t G) {
  return Rn.Inst->global(G).asU32();
}

/// One run of \p P; false with \p Why on any mismatch.
bool runOnce(Programs &Ps, Prog P, unsigned Tier, Tracer *T, uint64_t Req,
             std::string &Why) {
  Runner &Rn = *Ps.R[P][Tier];
  const lower::RuntimeLayout &L = Rn.Prog->Runtime;
  uint32_t Live = global(Rn, L.GLive);
  uint32_t Allocs = global(Rn, L.GAllocs), Frees = global(Rn, L.GFrees);
  uint64_t Before = Rn.Inst->instrCount();
  auto Call = [&](const std::string &Name, std::vector<wasm::WValue> Args,
                  uint32_t *Out) {
    Span S(T, "exec.invoke", Req);
    Expected<std::vector<wasm::WValue>> R = Rn.Inst->invokeByName(Name, Args);
    if (!R) {
      Why = Name + " trapped: " + R.error().message();
      return false;
    }
    if (Out)
      *Out = R->size() == 1 ? (*R)[0].asU32() : ~0u;
    return true;
  };
  uint32_t Got = 0, Want = 0;
  switch (P) {
  case Loop:
    if (!Call("loop.main", {}, &Got))
      return false;
    Want = gen::loopExpect(LoopN, Ps.K);
    break;
  case Churn:
    if (!Call("churn.main", {}, &Got))
      return false;
    Want = gen::churnExpect(ChurnN);
    if (global(Rn, L.GAllocs) - Allocs != ChurnN ||
        global(Rn, L.GFrees) - Frees != ChurnN) {
      Why = "churn: allocations and frees do not both equal " +
            std::to_string(ChurnN);
      return false;
    }
    break;
  case Counter:
    if (!Call("app.init", {}, nullptr) ||
        !Call("app.set_rate", {wasm::WValue::i32(CounterRate)}, nullptr))
      return false;
    for (uint32_t I = 0; I < CounterTicks; ++I)
      if (!Call("app.tick", {}, nullptr))
        return false;
    if (!Call("app.total", {}, &Got))
      return false;
    Want = Ps.Init + CounterRate * CounterTicks;
    break;
  default: {
    if (!Call("gc.main", {}, &Got))
      return false;
    Want = GcN;
    lower::HostGc::Stats St;
    {
      Span S(T, "lower.gc_collect", Req);
      St = lower::HostGc(*Rn.Inst, L, Rn.Prog->RefGlobals).collect();
      S.setArg(St.Swept);
    }
    if (St.Swept != GcN) {
      Why = "gc: swept " + std::to_string(St.Swept) + " cells, expected " +
            std::to_string(GcN);
      return false;
    }
    break;
  }
  }
  if (Got != Want) {
    Why = std::string(ProgName[P]) + " returned " + std::to_string(Got) +
          ", expected " + std::to_string(Want);
    return false;
  }
  // Every linear block is freed and every garbage cell swept.
  if (global(Rn, L.GLive) != Live) {
    Why = std::string(ProgName[P]) + ": live blocks went from " +
          std::to_string(Live) + " to " + std::to_string(global(Rn, L.GLive));
    return false;
  }
  Ps.Counts[P][Tier].push_back(Rn.Inst->instrCount() - Before);
  return true;
}

/// A fresh instance of \p P on \p Tier: admission of the program's bytes,
/// or the link of the counter's two modules.
std::unique_ptr<Runner> prepare(const Programs &Ps, Prog P, unsigned Tier,
                                std::string &Why) {
  auto Rn = std::make_unique<Runner>();
  link::LinkOptions Opts;
  Opts.Engine = Tiers[Tier];
  if (P == Counter) {
    Expected<link::LoweredInstance> LI = link::instantiateLowered(
        {&Ps.CounterSrc[0], &Ps.CounterSrc[1]}, Opts);
    if (!LI) {
      Why = "linking the counter: " + LI.error().message();
      return nullptr;
    }
    Rn->Linked = LI.take();
    Rn->Inst = Rn->Linked.Instance.get();
    Rn->Prog = Rn->Linked.Program.get();
    return Rn;
  }
  Expected<ingest::AdmittedModule> A = ingest::admit(Ps.Bytes[P], {}, Opts);
  if (!A) {
    Why = std::string("admitting ") + ProgName[P] + ": " + A.error().message();
    return nullptr;
  }
  Rn->Admitted = A.take();
  Rn->Inst = Rn->Admitted.instance();
  Rn->Prog = Rn->Admitted.Lowered.Program.get();
  return Rn;
}

bool build(Programs &Ps, uint64_t Seed, Report &R) {
  uint64_t S = streamSeed(Seed, 0xe7);
  Ps.K = static_cast<uint32_t>(splitmix64(S) % 1000);
  Ps.Init = static_cast<uint32_t>(splitmix64(S) % 1000);
  Ps.Bytes[Loop] = serial::write(
      gen::loopProgram(LoopN, static_cast<int32_t>(Ps.K)));
  Ps.Bytes[Churn] = serial::write(gen::churnProgram(ChurnN));
  Ps.Bytes[Gc] = serial::write(gen::gcProgram(GcN));
  Ps.Funcs = 3;
  Expected<ir::Module> Lib = l3::compileSource("lib", gen::CounterLibL3);
  Expected<ir::Module> App =
      ml::compileSource("app", gen::counterClientML("lib", Ps.Init));
  if (!Lib || !App) {
    R.fail("compiling the counter: " +
           (Lib ? App.error().message() : Lib.error().message()));
    return false;
  }
  Ps.CounterSrc.push_back(Lib.take());
  Ps.CounterSrc.push_back(App.take());
  for (const ir::Module &M : Ps.CounterSrc)
    for (const ir::Function &F : M.Funcs)
      Ps.Funcs += F.isImport() ? 0 : 1;
  for (unsigned T = 0; T < 2; ++T)
    for (unsigned P = 0; P < NumProgs; ++P) {
      std::string Why;
      Ps.R[P][T] = prepare(Ps, static_cast<Prog>(P), T, Why);
      if (!Ps.R[P][T]) {
        R.fail(Why);
        return false;
      }
    }
  for (unsigned P = 0; P < NumProgs; ++P)
    Ps.WasmBytes += wasm::encode(Ps.R[P][0]->Prog->Module).size();
  // A first run of each program on each tier fixes the instruction count
  // both tiers must reproduce.
  for (unsigned T = 0; T < 2; ++T)
    for (unsigned P = 0; P < NumProgs; ++P) {
      std::string Why;
      if (!runOnce(Ps, static_cast<Prog>(P), T, nullptr, 0, Why)) {
        R.fail(Why);
        return false;
      }
    }
  return true;
}

struct Phase {
  std::vector<uint64_t> Lat[NumProgs][2];
  std::vector<uint64_t> Prep[NumProgs][2];
  std::vector<uint64_t> All; ///< Run times in run order.
  std::vector<double> RoundRunsPerS;
  uint64_t Rounds = 0, Deopts = 0;
};

/// Whole rounds (every program prepared afresh and run on both tiers; the
/// tier order alternates and the program order is seeded) until
/// \p DeadlineNs, at most \p MaxRounds.
Phase runRounds(Programs &Ps, uint64_t Seed, uint64_t DeadlineNs,
                uint64_t MaxRounds, Tracer *T, Report &R) {
  Phase Ph;
  uint64_t D0 = deoptCount();
  for (uint64_t Round = 0; Round < MaxRounds && nowNs() < DeadlineNs;
       ++Round) {
    uint64_t S = streamSeed(Seed, 0xe8, Round);
    unsigned Order[NumProgs] = {Loop, Churn, Counter, Gc};
    for (unsigned I = NumProgs - 1; I > 0; --I)
      std::swap(Order[I], Order[splitmix64(S) % (I + 1)]);
    uint64_t RoundNs = 0;
    for (unsigned TI = 0; TI < 2; ++TI) {
      unsigned Tier = (Round + TI) % 2;
      for (unsigned P : Order) {
        std::string Why;
        uint64_t Req = Round * 8 + Tier * 4 + P;
        std::unique_ptr<Runner> Fresh;
        uint64_t T0 = nowNs();
        {
          Span Root(T, "prepare", Req);
          Fresh = prepare(Ps, static_cast<Prog>(P), Tier, Why);
        }
        uint64_t PrepNs = nowNs() - T0;
        ++R.Attempted;
        if (!Fresh) {
          ++R.Failed;
          R.fail(Why);
          continue;
        }
        // The instance it replaces is torn down outside both timings.
        std::swap(Ps.R[P][Tier], Fresh);
        T0 = nowNs();
        bool Ok;
        {
          Span Root(T, RootName[P][Tier], Req);
          Ok = runOnce(Ps, static_cast<Prog>(P), Tier, T, Req, Why);
        }
        uint64_t Ns = nowNs() - T0;
        if (!Ok) {
          ++R.Failed;
          R.fail(Why);
          continue;
        }
        Ph.Prep[P][Tier].push_back(PrepNs);
        Ph.Lat[P][Tier].push_back(Ns);
        Ph.All.push_back(Ns);
        RoundNs += Ns;
      }
    }
    ++Ph.Rounds;
    Ph.RoundRunsPerS.push_back(2.0 * static_cast<double>(NumProgs) * 1e9 / static_cast<double>(RoundNs));
  }
  Ph.Deopts = deoptCount() - D0;
  // The tiers agree on every run's executed-instruction count.
  for (unsigned P = 0; P < NumProgs; ++P)
    if (Ps.Counts[P][0] != Ps.Counts[P][1])
      R.fail(std::string(ProgName[P]) +
             ": flat and jit executed different instruction counts");
  return Ph;
}

std::vector<double> classMedians(const Phase &Ph) {
  std::vector<double> V;
  for (unsigned P = 0; P < NumProgs; ++P)
    for (unsigned T = 0; T < 2; ++T)
      V.push_back(quantile(Ph.Lat[P][T], 0.5) / 1e3);
  return V;
}

} // namespace

bool runExecTiers(const Options &O, Report &R) {
  Programs Ps;
  if (!build(Ps, O.Seed, R))
    return false;

  if (!O.Trace) {
    R.metric("setup_s", setupSeconds(O), "s");
    Phase Ph = runRounds(Ps, O.Seed, nowNs() + static_cast<uint64_t>(O.Seconds * 1e9),
                         UINT64_MAX, nullptr, R);
    // Per tier, the geometric mean over programs of each program's run and
    // prepare p50 (us), each the good decile over windows (Bench.h).
    std::vector<double> Run[2], Prep[2];
    for (unsigned P = 0; P < NumProgs; ++P)
      for (unsigned T = 0; T < 2; ++T) {
        std::string Name = std::string(ProgName[P]) + "." +
                           wasm::engineKindName(Tiers[T]);
        R.timing(Name, Ph.Lat[P][T]);
        R.timing("prepare." + Name, Ph.Prep[P][T]);
        Run[T].push_back(
            lowDecile(windowQuantiles(Ph.Lat[P][T], P50Window, 0.5)));
        Prep[T].push_back(
            lowDecile(windowQuantiles(Ph.Prep[P][T], P50Window, 0.5)));
      }
    R.info("run_ms.flat=" + std::to_string(geomean(Run[0]) / 1e3) +
           " run_ms.jit=" + std::to_string(geomean(Run[1]) / 1e3) +
           " prepare_ms.flat=" + std::to_string(geomean(Prep[0]) / 1e3) +
           " prepare_ms.jit=" + std::to_string(geomean(Prep[1]) / 1e3) +
           " rounds=" + std::to_string(Ph.Rounds));
    R.metric("throughput_per_s", highDecile(Ph.RoundRunsPerS), "1/s");
    R.metric(ClassP50[0], geomean(Run[0]), "us");
    R.metric(ClassP50[1], geomean(Run[1]), "us");
    R.metric(ClassP50[2], geomean(Prep[0]), "us");
    R.metric(ClassP50[3], geomean(Prep[1]), "us");
    R.metric("p99_us",
             lowDecile(windowQuantiles(Ph.All, P99Window, 0.99)), "us");
    R.metric("wasm_bytes_per_func",
             static_cast<double>(Ps.WasmBytes) / static_cast<double>(Ps.Funcs),
             "bytes");
    return true;
  }

  // Traced mode: the untraced rounds, then the same rounds inside spans.
  setAllocCounting(true);
  Phase Plain = runRounds(Ps, O.Seed, nowNs() + static_cast<uint64_t>(O.Seconds * 0.4e9),
                          UINT64_MAX, nullptr, R);
  Tracer T(0);
  runRounds(Ps, O.Seed, nowNs() + static_cast<uint64_t>(O.Seconds * 0.4e9),
            Plain.Rounds, &T, R);
  setAllocCounting(false);
  SpanStats S({&T});

  uint64_t Instrs = 0, Words = 0, Compiled = 0, JFuncs = 0, CodeBytes = 0;
  for (unsigned P = 0; P < NumProgs; ++P) {
    Instrs += Ps.Counts[P][0].empty() ? 0 : Ps.Counts[P][0].back();
    auto *Flat = static_cast<exec::FlatInstance *>(Ps.R[P][1]->Inst);
    for (const exec::FlatFunc &F : Flat->flat().Funcs)
      Words += F.Code.size();
    Compiled += Flat->jitCompiledCount();
    JFuncs += Flat->flat().Funcs.size();
#if RW_JIT_ENABLED
    // The eager compile the JIT tier ran at admission, repeated in a span.
    Span Sp(&T, "jit.compile", P);
    jit::ModuleJit MJ(Flat->flat());
    MJ.compileAll();
    Sp.close();
    CodeBytes += MJ.codeBytes();
#endif
  }
  R.metric("exec.instrs", static_cast<double>(Instrs), "count");
  R.metric("exec.flat_words", static_cast<double>(Words), "count");
  R.metric("jit.coverage",
           JFuncs ? static_cast<double>(Compiled) / static_cast<double>(JFuncs) : 0,
           "ratio");
  R.metric("jit.code_bytes", static_cast<double>(CodeBytes), "bytes");
  R.metric("jit.compile_us", S.medianUs("jit.compile"), "us");
  R.metric("jit.deopts",
           Plain.Rounds ? static_cast<double>(Plain.Deopts) /
                              static_cast<double>(Plain.Rounds)
                        : 0,
           "count");
  R.metric("lower.gc_collect_us", S.medianUs("lower.gc_collect"), "us");
  R.metric("lower.cells_swept", S.medianArg("lower.gc_collect"), "count");

  std::vector<double> Overheads;
  std::vector<double> Untraced = classMedians(Plain);
  for (unsigned P = 0, I = 0; P < NumProgs; ++P)
    for (unsigned Ti = 0; Ti < 2; ++Ti, ++I)
      Overheads.push_back(S.medianUs(RootName[P][Ti]) / Untraced[I]);
  R.metric("trace.overhead_pct", (geomean(Overheads) - 1) * 100, "pct");

  std::string Path =
      std::string(OutDir) + "/spans-exec-tiers-seed" + std::to_string(O.Seed) + ".json";
  if (!writeTrace(Path, {&T}))
    R.fail("cannot write " + Path);
  else
    R.info("spans written to " + Path);
  return true;
}

} // namespace perf
