//===- perfbench/src/LinkCold.cpp - link-cold: compile and link, no cache -===//
//
// Part of the RichWasm reproduction. MIT license.
//
// One thread compiles a seeded corpus of distinct link sets to running
// instances with no cache: ML and L3 sources (the Fig. 1/3 stash and the
// Fig. 9 counter/client), and IR-built modules with cross-module imports
// and linear, GC, variant and existential types. Each operation compiles
// the sources, runs link::instantiateLowered on the JIT tier, and calls
// every host-callable export once against its closed-form result.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Gen.h"

#include "exec/Engine.h"
#include "jit/Jit.h"
#include "l3/L3.h"
#include "link/Link.h"
#include "ml/ML.h"
#include "wasm/Binary.h"
#include "wasm/Validate.h"

#include <memory>

using namespace rw;

namespace perf {
namespace {

constexpr unsigned CorpusSize = 32;
/// Root span of an operation: "op." and the link set's kind.
const char *const Roots[] = {"op.stash", "op.counter", "op.imports",
                             "op.shapes"};

static_assert(std::size(Roots) == std::size(ClassP50),
              "one end-to-end class per link-set kind");

const char *rootOf(const std::string &Kind) {
  for (const char *R : Roots)
    if (Kind == R + 3)
      return R;
  return "op.other";
}

uint64_t definedFuncs(const std::vector<const ir::Module *> &Mods) {
  uint64_t N = 0;
  for (const ir::Module *M : Mods)
    for (const ir::Function &F : M->Funcs)
      N += F.isImport() ? 0 : 1;
  return N;
}

/// What one operation produced, for the checks and the counters.
struct OpResult {
  bool Ok = false;
  std::string Error;
  uint64_t Funcs = 0;
  uint64_t WasmBytes = 0; ///< Encoded lowered module (warm-up pass only).
  uint64_t Instrs = 0;
  uint64_t FlatWords = 0;
  uint64_t JitCompiled = 0, JitFuncs = 0, JitCodeBytes = 0;
};

/// Compiles, links and instantiates \p L, then calls every export. With a
/// tracer, the stages instantiateLowered runs are called one by one inside
/// spans (in its order); the instance then runs on the flat tier, since
/// the JIT compile is timed on its own.
OpResult runOp(const gen::LinkSet &L, const std::vector<ir::Module> &IRMods,
               Tracer *T, uint64_t Req, bool Encode) {
  OpResult Res;
  auto Fail = [&](std::string Why) {
    Res.Error = L.Kind + ": " + std::move(Why);
    return Res;
  };
  std::vector<ir::Module> Owned;
  Owned.reserve(L.Members.size());
  std::vector<const ir::Module *> Mods;
  for (const gen::Member &M : L.Members) {
    if (M.L == gen::Member::IR) {
      Mods.push_back(&IRMods[M.IRIndex]);
      continue;
    }
    Expected<ir::Module> C = Error("not compiled");
    {
      Span S(T, M.L == gen::Member::ML ? "ml.compile" : "l3.compile", Req);
      C = M.L == gen::Member::ML ? ml::compileSource(M.Name, M.Src)
                                 : l3::compileSource(M.Name, M.Src);
    }
    if (!C)
      return Fail("compiling " + M.Name + ": " + C.error().message());
    Owned.push_back(C.take());
    Mods.push_back(&Owned.back());
  }
  Res.Funcs = definedFuncs(Mods);

  link::LoweredInstance LI;
  std::shared_ptr<exec::FlatModule> FM;
#if RW_JIT_ENABLED
  std::unique_ptr<jit::ModuleJit> MJ;
#endif
  if (!T) {
    link::LinkOptions LO;
    LO.Engine = wasm::EngineKind::Jit;
    Expected<link::LoweredInstance> R = link::instantiateLowered(Mods, LO);
    if (!R)
      return Fail("instantiateLowered: " + R.error().message());
    LI = R.take();
  } else {
    std::vector<typing::InfoMap> Infos(Mods.size());
    for (size_t I = 0; I < Mods.size(); ++I) {
      Status C = Status::success();
      {
        Span S(T, "typing.check", Req);
        S.setArg(definedFuncs({Mods[I]}));
        C = typing::checkModule(*Mods[I], &Infos[I]);
      }
      if (!C)
        return Fail("check: " + C.error().message());
    }
    Expected<std::vector<link::ResolvedModule>> Resolved = Error("unresolved");
    {
      Span S(T, "link.resolve", Req);
      Resolved = link::resolveImports(
          Mods, link::ResolveOptions{link::ResolveMode::Batch, true});
    }
    if (!Resolved)
      return Fail("resolve: " + Resolved.error().message());
    lower::LowerOptions LOpts;
    LOpts.Resolved = &*Resolved;
    LOpts.Infos = &Infos;
    Expected<lower::LoweredProgram> LP = Error("not lowered");
    {
      Span S(T, "lower.lower", Req);
      S.setArg(Res.Funcs);
      LP = lower::lowerProgram(Mods, LOpts);
    }
    if (!LP)
      return Fail("lower: " + LP.error().message());
    auto Prog = std::make_shared<lower::LoweredProgram>(LP.take());
    Status V = Status::success();
    {
      Span S(T, "wasm.validate", Req);
      V = wasm::validate(Prog->Module);
    }
    if (!V)
      return Fail("validate: " + V.error().message());
    Expected<exec::FlatModule> F = Error("not translated");
    {
      Span S(T, "exec.translate", Req);
      F = exec::translate(Prog->Module);
    }
    if (!F)
      return Fail("translate: " + F.error().message());
    FM = std::make_shared<exec::FlatModule>(F.take());
    for (const exec::FlatFunc &Fn : FM->Funcs)
      Res.FlatWords += Fn.Code.size();
#if RW_JIT_ENABLED
    {
      Span S(T, "jit.compile", Req);
      S.setArg(FM->Funcs.size());
      MJ = std::make_unique<jit::ModuleJit>(*FM);
      MJ->compileAll();
    }
    Res.JitCompiled = MJ->compiledCount();
    Res.JitFuncs = FM->Funcs.size();
    Res.JitCodeBytes = MJ->codeBytes();
#endif
    Status I = Status::success();
    {
      Span S(T, "link.instantiate", Req);
      auto FI =
          std::make_unique<exec::FlatInstance>(Prog->Module, wasm::EngineKind::Flat);
      FI->adoptPretranslated(FM);
      FI->setTierPolicy(exec::FlatInstance::NeverTier);
      I = FI->initialize();
      LI.Instance = std::move(FI);
    }
    LI.Program = Prog;
    if (!I)
      return Fail("instantiate: " + I.error().message());
  }
  if (Encode)
    Res.WasmBytes = wasm::encode(LI.Program->Module).size();

  Span S(T, "exec.invoke", Req);
  uint64_t Before = LI.Instance->instrCount();
  for (const gen::Call &C : L.Calls) {
    std::vector<wasm::WValue> Args;
    for (uint32_t A : C.Args)
      Args.push_back(wasm::WValue::i32(A));
    Expected<std::vector<wasm::WValue>> R = LI.invokeExport(C.Export, Args);
    if (!R)
      return Fail(C.Export + " trapped: " + R.error().message());
    if (C.HasResult && (R->size() != 1 || (*R)[0].asU32() != C.Expect))
      return Fail(C.Export + " returned " +
                  (R->empty() ? std::string("nothing")
                              : std::to_string((*R)[0].asU32())) +
                  ", expected " + std::to_string(C.Expect));
  }
  Res.Instrs = LI.Instance->instrCount() - Before;
  Res.Ok = true;
  return Res;
}

/// Latencies by link-set kind, and per-pass function throughput.
struct Phase {
  std::map<std::string, std::vector<uint64_t>> ByKind;
  std::vector<uint64_t> All;
  std::vector<double> PassFuncsPerS;
  uint64_t Ops = 0, Deopts = 0;
};

/// Whole passes over the corpus until \p DeadlineNs (checked between
/// passes), at most \p MaxPasses.
Phase runPasses(const std::vector<gen::LinkSet> &Corpus,
                const std::vector<ir::Module> &IRMods, uint64_t DeadlineNs,
                uint64_t MaxPasses, Tracer *T, Report &R) {
  Phase P;
  uint64_t D0 = deoptCount();
  for (uint64_t Pass = 0; Pass < MaxPasses && nowNs() < DeadlineNs; ++Pass) {
    uint64_t PassNs = 0, PassFuncs = 0;
    for (size_t I = 0; I < Corpus.size(); ++I) {
      const gen::LinkSet &L = Corpus[I];
      uint64_t Req = Pass * Corpus.size() + I;
      uint64_t T0 = nowNs();
      OpResult Res;
      {
        Span Root(T, rootOf(L.Kind), Req);
        Res = runOp(L, IRMods, T, Req, false);
      }
      uint64_t Ns = nowNs() - T0;
      ++P.Ops;
      ++R.Attempted;
      if (!Res.Ok) {
        R.fail(Res.Error);
        ++R.Failed;
        continue;
      }
      P.ByKind[L.Kind].push_back(Ns);
      P.All.push_back(Ns);
      PassNs += Ns;
      PassFuncs += Res.Funcs;
    }
    if (PassNs)
      P.PassFuncsPerS.push_back(static_cast<double>(PassFuncs) * 1e9 /
                                static_cast<double>(PassNs));
  }
  P.Deopts = deoptCount() - D0;
  return P;
}

} // namespace

bool runLinkCold(const Options &O, Report &R) {
  std::vector<ir::Module> IRMods;
  std::vector<gen::LinkSet> Corpus = gen::linkCorpus(O.Seed, CorpusSize, IRMods);
  // Set-up: one warm-up pass interns every type the corpus uses in the
  // process-wide arena and records the encoded size of each lowered set.
  uint64_t WasmBytes = 0, Funcs = 0;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    OpResult Res = runOp(Corpus[I], IRMods, nullptr, I, true);
    if (!Res.Ok) {
      R.fail(Res.Error);
      return false;
    }
    WasmBytes += Res.WasmBytes;
    Funcs += Res.Funcs;
  }
  R.info("link-cold: " + std::to_string(Corpus.size()) + " link sets, " +
         std::to_string(Funcs) + " functions, " + std::to_string(WasmBytes) +
         " lowered wasm bytes per pass");

  if (!O.Trace) {
    R.metric("setup_s", setupSeconds(O), "s");
    uint64_t Start = nowNs();
    Phase P = runPasses(Corpus, IRMods, Start + static_cast<uint64_t>(O.Seconds * 1e9),
                        UINT64_MAX, nullptr, R);
    for (size_t K = 0; K < std::size(Roots); ++K) {
      const std::vector<uint64_t> &Lat = P.ByKind[Roots[K] + 3];
      R.timing(std::string("link.") + (Roots[K] + 3), Lat);
      R.metric(ClassP50[K],
               lowDecile(windowQuantiles(Lat, P50Window, 0.5)), "us");
    }
    R.timing("link.all", P.All);
    double FuncsPerS = highDecile(P.PassFuncsPerS);
    R.info("cold_funcs_per_s=" + std::to_string(FuncsPerS) +
           " wasm_bytes=" + std::to_string(WasmBytes) + " passes=" +
           std::to_string(P.PassFuncsPerS.size()));
    R.metric("throughput_per_s", FuncsPerS, "1/s");
    R.metric("p99_us",
             lowDecile(windowQuantiles(P.All, P99Window, 0.99)), "us");
    R.metric("wasm_bytes_per_func",
             static_cast<double>(WasmBytes) / static_cast<double>(Funcs), "bytes");
    return true;
  }

  // Traced mode: an untraced phase, then the same passes stage by stage.
  setAllocCounting(true);
  uint64_t Start = nowNs();
  Phase Plain = runPasses(Corpus, IRMods, Start + static_cast<uint64_t>(O.Seconds * 0.45e9),
                          UINT64_MAX, nullptr, R);
  Tracer T(0);
  Start = nowNs();
  runPasses(Corpus, IRMods, Start + static_cast<uint64_t>(O.Seconds * 0.45e9),
            Plain.PassFuncsPerS.size(), &T, R);
  setAllocCounting(false);

  SpanStats S({&T});
  R.metric("typing.check_us_per_func", S.medianPerArgUs("typing.check"), "us");
  R.metric("typing.allocs_per_func", S.medianAllocsPerArg("typing.check"), "count");
  R.metric("link.resolve_us", S.medianUs("link.resolve"), "us");
  R.metric("lower.us_per_func", S.medianPerArgUs("lower.lower"), "us");
  R.metric("lower.allocs_per_func", S.medianAllocsPerArg("lower.lower"), "count");
  R.metric("wasm.validate_us", S.medianUs("wasm.validate"), "us");
  R.metric("exec.translate_us", S.medianUs("exec.translate"), "us");
  R.metric("ml.compile_us", S.medianUs("ml.compile"), "us");
  R.metric("l3.compile_us", S.medianUs("l3.compile"), "us");
  R.metric("jit.compile_us", S.medianUs("jit.compile"), "us");
  R.metric("link.instantiate_us", S.medianUs("link.instantiate"), "us");

  // Counts per operation, from one more traced pass.
  uint64_t Instrs = 0, Words = 0, Compiled = 0, JFuncs = 0, CodeBytes = 0;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    Tracer Scratch(1);
    OpResult Res = runOp(Corpus[I], IRMods, &Scratch, I, false);
    Instrs += Res.Instrs;
    Words += Res.FlatWords;
    Compiled += Res.JitCompiled;
    JFuncs += Res.JitFuncs;
    CodeBytes += Res.JitCodeBytes;
  }
  double N = static_cast<double>(Corpus.size());
  R.metric("exec.instrs", static_cast<double>(Instrs) / N, "count");
  R.metric("exec.flat_words", static_cast<double>(Words) / N, "count");
  R.metric("jit.coverage",
           JFuncs ? static_cast<double>(Compiled) / static_cast<double>(JFuncs) : 0,
           "ratio");
  R.metric("jit.code_bytes", static_cast<double>(CodeBytes) / N, "bytes");
  R.metric("jit.deopts",
           Plain.Ops ? static_cast<double>(Plain.Deopts) / static_cast<double>(Plain.Ops)
                     : 0,
           "count");

  // Per kind: the sum of per-operation stage medians against the untraced
  // median of the whole operation.
  const char *Stages[] = {"ml.compile",     "l3.compile",    "typing.check",
                          "link.resolve",   "lower.lower",   "wasm.validate",
                          "exec.translate", "jit.compile",   "link.instantiate",
                          "exec.invoke"};
  std::vector<double> Sums, Untraced, Overheads;
  for (const char *Root : Roots) {
    double Sum = 0;
    for (const char *St : Stages) {
      std::vector<uint64_t> V = S.reqTotals(St, Root);
      if (!V.empty())
        Sum += quantile(V, 0.5) / 1e3;
    }
    double U = quantile(Plain.ByKind[Root + 3], 0.5) / 1e3;
    Sums.push_back(Sum);
    Untraced.push_back(U);
    Overheads.push_back(S.medianUs(Root) / U);
  }
  double Sum = geomean(Sums), U = geomean(Untraced);
  R.metric("recon.cold.stage_sum_us", Sum, "us");
  R.metric("recon.cold.untraced_us", U, "us");
  if (Sum < 0.5 * U || Sum > 2.0 * U)
    R.fail("recon.cold: stage sum " + std::to_string(Sum) +
           "us outside [0.5, 2] x untraced " + std::to_string(U) + "us");
  R.metric("trace.overhead_pct", (geomean(Overheads) - 1) * 100, "pct");

  std::string Path =
      std::string(OutDir) + "/spans-link-cold-seed" + std::to_string(O.Seed) + ".json";
  if (!writeTrace(Path, {&T}))
    R.fail("cannot write " + Path);
  else
    R.info("spans written to " + Path);
  return true;
}

} // namespace perf
