//===- perfbench/src/AdmitMix.cpp - admit-mix: the admission server -------===//
//
// Part of the RichWasm reproduction. MIT license.
//
// A closed loop of client threads (at most nproc) sends a seeded mix
// through ingest::admit, backed by a sharded AdmissionCache, with
// instances on the flat engine. Each client runs whole rounds of 100
// requests: zipf-hot resubmissions of a universe of modules of varied
// size in both containers (RWBM and lowered `\0asm`), novel modules that
// miss the cache, hostile inputs with verdicts derived from the container
// specifications, and a small class that ingest misfiles today (an
// unsatisfied import whose provider name contains a stage word).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Gen.h"

#include "cache/AdmissionCache.h"
#include "exec/Engine.h"
#include "ingest/Ingest.h"
#include "ir/TypeArena.h"
#include "lower/Lower.h"
#include "ml/ML.h"
#include "obs/Obs.h"
#include "serial/Serial.h"
#include "wasm/Binary.h"
#include "wasm/Validate.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>

using namespace rw;

namespace perf {
namespace {

using ingest::Category;

enum Kind : uint8_t { HotRwbm, HotWasm, Cold, Reject, Misfiled, NumKinds };
const char *const RootName[NumKinds] = {"req.hot_rwbm", "req.hot_wasm",
                                        "req.cold", "req.reject",
                                        "req.misfiled"};

/// One round: 64 hot RWBM, 14 hot `\0asm`, 10 cold, 10 hostile and 2
/// misfiled requests, shuffled per (seed, client, round).
constexpr unsigned RoundHotRwbm = 64, RoundHotWasm = 14, RoundCold = 10,
                   RoundReject = 10, RoundMisfiled = 2;
constexpr unsigned RoundSize =
    RoundHotRwbm + RoundHotWasm + RoundCold + RoundReject + RoundMisfiled;
/// Variants drawn per hostile slot (each slot is one hostile class).
constexpr unsigned HostileVariants = 24;
constexpr unsigned UniverseRwbm = 192, UniverseWasm = 32;
constexpr uint64_t CacheBudget = 24ull << 20;
constexpr unsigned CacheShards = 8;

/// A well-formed module of the universe and what its exports compute.
struct Payload {
  std::vector<uint8_t> Bytes;
  std::string Name;
  uint64_t Tag = 0;
  unsigned Funcs = 0;
};

/// A hostile input and the verdict the specifications give it.
struct Hostile {
  std::vector<uint8_t> Bytes;
  Category Expect = Category::None;
};

struct Req {
  Kind K;
  uint32_t Index; ///< Universe entry or hostile variant.
  uint32_t X;     ///< Argument of the reference call.
  uint32_t J;     ///< Which export to call (mod Funcs).
};

std::vector<double> zipfCdf(size_t N, double S) {
  std::vector<double> Cdf;
  double Acc = 0;
  for (size_t I = 0; I < N; ++I) {
    Acc += 1.0 / std::pow(static_cast<double>(I + 1), S);
    Cdf.push_back(Acc);
  }
  for (double &C : Cdf)
    C /= Acc;
  return Cdf;
}

uint32_t zipfPick(const std::vector<double> &Cdf, uint64_t &Rng) {
  double U = static_cast<double>(splitmix64(Rng) >> 11) * 0x1.0p-53;
  return static_cast<uint32_t>(
      std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
}

struct Universe {
  std::vector<Payload> Rwbm, Wasm;
  std::vector<double> RwbmCdf, WasmCdf;
  std::vector<gen::ColdTemplate> ColdT;
  std::vector<std::vector<Hostile>> Slots; ///< RoundReject slots.
  std::vector<Hostile> Misfiled;           ///< RoundMisfiled, fixed.
  uint64_t WasmBytes = 0, WasmFuncs = 0;
  uint64_t Seed = 0;

  bool build(uint64_t Seed, std::string &Why);
  void schedule(unsigned Client, uint64_t Round, std::vector<Req> &Out) const;
  /// The novel module for a client's N-th cold request.
  uint32_t coldConst(unsigned Client, uint64_t N) const {
    uint64_t Span = gen::ColdTemplate::ColdHi - gen::ColdTemplate::ColdLo;
    uint64_t Off = (Seed % (1u << 24)) + (uint64_t(Client) << 22) + N;
    return gen::ColdTemplate::ColdLo + static_cast<uint32_t>(Off % Span);
  }
};

bool Universe::build(uint64_t S0, std::string &Why) {
  Seed = S0;
  uint64_t S = streamSeed(Seed, 0xa0);
  for (unsigned I = 0; I < UniverseRwbm; ++I) {
    Payload P;
    P.Name = "srv" + std::to_string(I);
    // Sizes by zipf rank are fixed, so the work per request does not move
    // with the seed; the seed moves constants and the schedule.
    P.Funcs = 1 + (I * 5) % 12;
    P.Tag = splitmix64(S) % (1u << 20);
    P.Bytes = serial::write(gen::serverModule(P.Name, P.Tag, P.Funcs));
    Rwbm.push_back(std::move(P));
  }
  for (unsigned I = 0; I < UniverseWasm; ++I) {
    Payload P;
    P.Name = "wsrv" + std::to_string(I);
    P.Funcs = 1 + (I * 5) % 12;
    P.Tag = splitmix64(S) % (1u << 20);
    ir::Module M = gen::serverModule(P.Name, P.Tag, P.Funcs);
    Expected<lower::LoweredProgram> LP = lower::lowerProgram({&M});
    if (!LP) {
      Why = "lowering a wasm universe module: " + LP.error().message();
      return false;
    }
    P.Bytes = wasm::encode(LP->Module);
    WasmBytes += P.Bytes.size();
    WasmFuncs += P.Funcs;
    Wasm.push_back(std::move(P));
  }
  RwbmCdf = zipfCdf(Rwbm.size(), 1.1);
  WasmCdf = zipfCdf(Wasm.size(), 1.1);
  for (unsigned F : {2u, 5u, 9u}) {
    gen::ColdTemplate T;
    if (!T.init("novel" + std::to_string(F), F, Why))
      return false;
    ColdT.push_back(std::move(T));
  }

  // Hostile slots. Verdicts follow from the formats alone: RWBM carries a
  // payload length and an FNV-1a payload checksum in its header, both
  // containers start with a 4-byte magic and a version. The module a
  // variant mutates follows from its slot and index (a checksum costs the
  // payload's length, so a seeded pick would move the work with the
  // seed); the seed draws where and how it is mutated.
  unsigned V = 0;
  auto RwbmPick = [&](unsigned Slot) -> const std::vector<uint8_t> & {
    return Rwbm[(V * RoundReject + Slot) % Rwbm.size()].Bytes;
  };
  auto WasmPick = [&](unsigned Slot) -> const std::vector<uint8_t> & {
    return Wasm[(V * RoundReject + Slot) % Wasm.size()].Bytes;
  };
  auto Flip = [&]() { return static_cast<uint8_t>(1 + splitmix64(S) % 255); };
  Slots.resize(RoundReject);
  ir::Module Unsafe;
  {
    Expected<ir::Module> U = ml::compileSource("stash", gen::mlStash(false, 7));
    if (!U) {
      Why = "compiling the unsafe ML stash: " + U.error().message();
      return false;
    }
    Unsafe = U.take();
  }
  for (; V < HostileVariants; ++V) {
    for (unsigned Slot : {0u, 1u}) { // A strict prefix.
      std::vector<uint8_t> B = RwbmPick(Slot);
      B.resize(splitmix64(S) % B.size());
      Category C = B.size() < 4 ? Category::BadMagic : Category::Truncated;
      Slots[Slot].push_back({std::move(B), C});
    }
    for (unsigned Slot : {2u, 3u}) { // One payload byte changed.
      std::vector<uint8_t> B = RwbmPick(Slot);
      B[serial::HeaderSize + splitmix64(S) % (B.size() - serial::HeaderSize)] ^=
          Flip();
      Slots[Slot].push_back({std::move(B), Category::Malformed});
    }
    {
      std::vector<uint8_t> B = RwbmPick(4);
      B[splitmix64(S) % 4] ^= Flip();
      Slots[4].push_back({std::move(B), Category::BadMagic});
    }
    {
      std::vector<uint8_t> B = RwbmPick(5);
      B[4 + splitmix64(S) % 4] ^= Flip();
      Slots[5].push_back({std::move(B), Category::Unsupported});
    }
    {
      std::vector<uint8_t> B = WasmPick(6);
      B[splitmix64(S) % 4] ^= Flip();
      Slots[6].push_back({std::move(B), Category::BadMagic});
    }
    {
      std::vector<uint8_t> B = WasmPick(7);
      B[4 + splitmix64(S) % 4] ^= Flip();
      Slots[7].push_back({std::move(B), Category::Unsupported});
    }
    // Linearity violations: a dropped linear struct, or the Fig. 1
    // unsafe ML stash compiled to RichWasm.
    Slots[8].push_back(
        {V % 2 ? serial::write(Unsafe)
               : serial::write(gen::linearDropModule(
                     "drop" + std::to_string(V),
                     static_cast<uint32_t>(splitmix64(S) % 1000))),
         Category::Check});
    // An import from a provider that is absent, named without any stage
    // word (hex digits only).
    char Prov[32];
    std::snprintf(Prov, sizeof(Prov), "pkg%08llx",
                  static_cast<unsigned long long>(splitmix64(S) & 0xffffffff));
    Slots[9].push_back({serial::write(gen::importerModule(
                            "imp" + std::to_string(V), Prov,
                            static_cast<uint32_t>(splitmix64(S) % 1000))),
                        Category::Link});
  }
  // The known fault: the same unsatisfied import from providers whose
  // names contain a stage word. Fixed inputs, independent of the seed.
  Misfiled.push_back(
      {serial::write(gen::importerModule("kit", "validation_kit", 11)),
       Category::Link});
  Misfiled.push_back(
      {serial::write(gen::importerModule("low", "lowering", 13)),
       Category::Link});
  return true;
}

void Universe::schedule(unsigned Client, uint64_t Round,
                        std::vector<Req> &Out) const {
  uint64_t S = streamSeed(Seed, 0xad00 + Client, Round);
  Out.clear();
  auto Push = [&](Kind K, uint32_t Index) {
    uint32_t X = static_cast<uint32_t>(splitmix64(S) % 100000);
    uint32_t J = static_cast<uint32_t>(splitmix64(S) % 1024);
    Out.push_back({K, Index, X, J});
  };
  for (unsigned I = 0; I < RoundHotRwbm; ++I)
    Push(HotRwbm, zipfPick(RwbmCdf, S));
  for (unsigned I = 0; I < RoundHotWasm; ++I)
    Push(HotWasm, zipfPick(WasmCdf, S));
  for (unsigned I = 0; I < RoundCold; ++I)
    Push(Cold, 0);
  for (unsigned I = 0; I < RoundReject; ++I)
    Push(Reject, I * HostileVariants +
                     static_cast<uint32_t>(splitmix64(S) % HostileVariants));
  for (unsigned I = 0; I < RoundMisfiled; ++I)
    Push(Kind::Misfiled, I);
  for (size_t I = Out.size() - 1; I > 0; --I)
    std::swap(Out[I], Out[splitmix64(S) % (I + 1)]);
}

/// What one admission produced: an instance to call, or a rejection.
struct Outcome {
  bool Ok = false;
  Category Cat = Category::None;
  const char *Stage = nullptr; ///< Traced mode: the stage that rejected.
  bool Probed = false;         ///< Traced mode: the cache was probed...
  bool Hit = false;            ///< ...and served the artifact.
  ingest::AdmittedModule Admitted;
  // Traced mode keeps the stage results alive for the instance.
  std::unique_ptr<ir::Module> Mod;
  std::shared_ptr<const cache::LoweredArtifact> Art;
  std::unique_ptr<wasm::WModule> WMod;
  std::unique_ptr<wasm::Instance> Inst;
  wasm::Instance *instance() {
    return Inst ? Inst.get() : Admitted.instance();
  }
};

struct Env {
  const Universe &U;
  cache::AdmissionCache &Cache;
  link::LinkOptions Opts;
  ingest::Limits Lim;
};

/// The stages ingest::admit runs, called one by one inside spans. The
/// order and the calls follow ingest/Ingest.cpp and link/Link.cpp.
Outcome tracedAdmit(Env &E, const std::vector<uint8_t> &B, Tracer &T,
                    uint64_t Req) {
  Outcome O;
  auto Rejected = [&](const char *Stage) {
    O.Stage = Stage;
    return std::move(O);
  };
  if (B.size() < 4)
    return Rejected("sniff");
  bool IsWasm = B[0] == 0 && B[1] == 'a' && B[2] == 's' && B[3] == 'm';
  bool IsRwbm = B[0] == 'R' && B[1] == 'W' && B[2] == 'B' && B[3] == 'M';
  if (!IsWasm && !IsRwbm)
    return Rejected("sniff");

  if (IsWasm) {
    Expected<wasm::WModule> M = Error("not decoded");
    {
      Span S(&T, "wasm.decode", Req);
      M = wasm::decode(B, E.Lim);
    }
    if (!M)
      return Rejected("wasm_decode");
    O.WMod = std::make_unique<wasm::WModule>(M.take());
    Status V = Status::success();
    {
      Span S(&T, "wasm.validate", Req);
      V = wasm::validate(*O.WMod, E.Lim.MaxOperandDepth);
    }
    if (!V)
      return Rejected("wasm_validate");
    Expected<exec::FlatModule> FM = Error("not translated");
    {
      Span S(&T, "exec.translate", Req);
      FM = exec::translate(*O.WMod);
    }
    if (!FM)
      return Rejected("translate");
    Status I = Status::success();
    {
      Span S(&T, "link.instantiate", Req);
      auto FI = std::make_unique<exec::FlatInstance>(*O.WMod,
                                                     wasm::EngineKind::Flat);
      FI->adoptPretranslated(
          std::make_shared<const exec::FlatModule>(FM.take()));
      I = FI->initialize(E.Opts.RunStart);
      O.Inst = std::move(FI);
    }
    if (!I)
      return Rejected("instantiate");
    O.Ok = true;
    return O;
  }

  Expected<ir::Module> M = Error("not read");
  {
    Span S(&T, "serial.read", Req);
    M = serial::read(B, std::make_shared<ir::TypeArena>());
  }
  if (!M)
    return Rejected("serial_read");
  if (M->Funcs.size() > E.Lim.MaxFuncs || M->Globals.size() > E.Lim.MaxGlobals ||
      M->Tab.Entries.size() > E.Lim.MaxElems)
    return Rejected("limits");
  O.Mod = std::make_unique<ir::Module>(M.take());
  uint64_t Defined = 0;
  for (const ir::Function &F : O.Mod->Funcs)
    Defined += F.isImport() ? 0 : 1;
  std::vector<typing::InfoMap> Infos(1);
  Status C = Status::success();
  {
    Span S(&T, "typing.check", Req);
    S.setArg(Defined);
    C = typing::checkModule(*O.Mod, &Infos[0]);
  }
  if (!C)
    return Rejected("check");
  std::vector<const ir::Module *> Mods = {O.Mod.get()};
  serial::ModuleHash Key;
  {
    Span S(&T, "serial.hash", Req);
    Key = cache::programKey(Mods);
  }
  {
    Span S(&T, "cache.probe", Req);
    O.Art = E.Cache.lookupProgram(Key);
  }
  O.Probed = true;
  O.Hit = O.Art != nullptr;
  if (!O.Art) {
    Expected<std::vector<link::ResolvedModule>> Res = Error("not resolved");
    {
      Span S(&T, "link.resolve", Req);
      Res = link::resolveImports(
          Mods, link::ResolveOptions{link::ResolveMode::Batch, true});
    }
    if (!Res)
      return Rejected("resolve");
    lower::LowerOptions LO;
    LO.Resolved = &*Res;
    LO.Infos = &Infos;
    Expected<lower::LoweredProgram> LP = Error("not lowered");
    {
      Span S(&T, "lower.lower", Req);
      S.setArg(Defined);
      LP = lower::lowerProgram(Mods, LO);
    }
    if (!LP)
      return Rejected("lower");
    auto A = std::make_shared<cache::LoweredArtifact>();
    A->Program = LP.take();
    Status V = Status::success();
    {
      Span S(&T, "wasm.validate", Req);
      V = wasm::validate(A->Program.Module);
    }
    if (!V)
      return Rejected("validate");
    Expected<exec::FlatModule> FM = Error("not translated");
    {
      Span S(&T, "exec.translate", Req);
      FM = exec::translate(A->Program.Module);
    }
    if (!FM)
      return Rejected("translate");
    A->Flat = FM.take();
    uint64_t Words = 0;
    for (const exec::FlatFunc &F : A->Flat.Funcs)
      Words += F.Code.size();
    {
      Span S(&T, "cache.store", Req);
      S.setArg(Words);
      E.Cache.storeProgram(Key, A);
    }
    O.Art = A;
  }
  Status I = Status::success();
  {
    Span S(&T, "link.instantiate", Req);
    auto FI = std::make_unique<exec::FlatInstance>(O.Art->Program.Module,
                                                   wasm::EngineKind::Flat);
    FI->adoptPretranslated(
        std::shared_ptr<const exec::FlatModule>(O.Art, &O.Art->Flat));
    I = FI->initialize(E.Opts.RunStart);
    O.Inst = std::move(FI);
  }
  if (!I)
    return Rejected("instantiate");
  O.Ok = true;
  return O;
}

/// One client's tallies.
struct ClientOut {
  std::vector<uint64_t> Lat[NumKinds];
  std::vector<uint64_t> Seq; ///< Every class but Misfiled, in order.
  std::map<std::string, std::vector<uint64_t>> RejectByStage; // Traced.
  uint64_t Attempted = 0, Failed = 0, Accepted = 0;
  uint64_t RejectedBy[16] = {};
  uint64_t Probes = 0, Hits = 0, Instrs = 0;
  std::vector<std::string> Errors;
  /// A request whose output missed its reference: failed.
  void error(std::string S) {
    ++Failed;
    if (Errors.size() < 8)
      Errors.push_back(std::move(S));
  }
};

/// Runs whole rounds until \p DeadlineNs (checked between rounds), or
/// \p MaxRounds rounds. \p T null: through ingest::admit, untraced.
void runClient(Env &E, unsigned Client, uint64_t DeadlineNs, uint64_t MaxRounds,
               Tracer *T, std::atomic<uint64_t> &Done, ClientOut &Out) {
  const Universe &U = E.U;
  std::vector<Req> Sched;
  std::vector<uint8_t> ColdBuf;
  uint64_t ColdN = 0;
  for (uint64_t Round = 0; Round < MaxRounds && nowNs() < DeadlineNs;
       ++Round) {
    U.schedule(Client, Round, Sched);
    for (size_t I = 0; I < Sched.size(); ++I) {
      const Req &Q = Sched[I];
      const std::vector<uint8_t> *Bytes = nullptr;
      const Payload *P = nullptr;
      const gen::ColdTemplate *CT = nullptr;
      Category Expect = Category::None;
      uint32_t C0 = 0;
      switch (Q.K) {
      case HotRwbm:
        P = &U.Rwbm[Q.Index];
        Bytes = &P->Bytes;
        break;
      case HotWasm:
        P = &U.Wasm[Q.Index];
        Bytes = &P->Bytes;
        break;
      case Cold: {
        CT = &U.ColdT[ColdN % U.ColdT.size()];
        C0 = U.coldConst(Client, ColdN++);
        CT->make(C0, ColdBuf);
        Bytes = &ColdBuf;
        break;
      }
      case Reject: {
        const Hostile &H = U.Slots[Q.Index / HostileVariants]
                                  [Q.Index % HostileVariants];
        Bytes = &H.Bytes;
        Expect = H.Expect;
        break;
      }
      default:
        Bytes = &U.Misfiled[Q.Index].Bytes;
        Expect = U.Misfiled[Q.Index].Expect;
        break;
      }
      uint64_t ReqId = (uint64_t(Client) << 48) | (Round * RoundSize + I);

      Outcome O;
      uint64_t Ns;
      if (T) {
        Span Root(T, RootName[Q.K], ReqId);
        uint64_t T0 = nowNs();
        O = tracedAdmit(E, *Bytes, *T, ReqId);
        Ns = nowNs() - T0;
        Out.Probes += O.Probed;
        Out.Hits += O.Hit;
      } else {
        ingest::IngestError Err;
        uint64_t T0 = nowNs();
        Expected<ingest::AdmittedModule> A =
            ingest::admit(*Bytes, E.Lim, E.Opts, &Err);
        Ns = nowNs() - T0;
        O.Ok = static_cast<bool>(A);
        O.Cat = Err.Cat;
        if (A)
          O.Admitted = A.take();
      }
      ++Out.Attempted;

      bool WantOk = Q.K == HotRwbm || Q.K == HotWasm || Q.K == Cold;
      if (O.Ok)
        ++Out.Accepted;
      else if (!T)
        ++Out.RejectedBy[static_cast<unsigned>(O.Cat) & 15];
      if (WantOk != O.Ok) {
        Out.error(std::string(RootName[Q.K]) + " request " +
                  (O.Ok ? "admitted" : "rejected") + ", expected the opposite");
        Done.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (!WantOk) {
        // In traced mode the stages do not classify; the untraced phase
        // checks categories.
        if (!T && O.Cat != Expect) {
          if (Q.K == Misfiled) {
            ++Out.Failed;
            Done.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          Out.error(std::string("hostile input rejected as ") +
                    ingest::categoryName(O.Cat) + ", expected " +
                    ingest::categoryName(Expect));
        }
        if (T && O.Stage)
          Out.RejectByStage[O.Stage].push_back(Ns);
        Out.Lat[Q.K].push_back(Ns);
        if (Q.K != Misfiled)
          Out.Seq.push_back(Ns);
        Done.fetch_add(1, std::memory_order_relaxed);
        continue;
      }

      // The reference: f_j(x) = (x + c_j) * 3 mod 2^32.
      unsigned Funcs = P ? P->Funcs : CT->Funcs;
      const std::string &Name = P ? P->Name : CT->Name;
      uint64_t Tag = P ? P->Tag : CT->Tag;
      unsigned J = Q.J % Funcs;
      uint32_t Want = (Q.K == Cold && J == 0)
                          ? (Q.X + C0) * 3u
                          : gen::serverExpect(Tag, Funcs, J, Q.X);
      wasm::Instance *Inst = O.instance();
      uint64_t Before = Inst->instrCount();
      Expected<std::vector<wasm::WValue>> R = Inst->invokeByName(
          Name + ".f" + std::to_string(J), {wasm::WValue::i32(Q.X)});
      Out.Instrs += Inst->instrCount() - Before;
      if (!R || R->size() != 1 || (*R)[0].asU32() != Want)
        Out.error(Name + ".f" + std::to_string(J) + " returned " +
                  (R ? (R->empty() ? std::string("nothing")
                                   : std::to_string((*R)[0].asU32()))
                     : R.error().message()) +
                  ", expected " + std::to_string(Want));
      Out.Lat[Q.K].push_back(Ns);
      Out.Seq.push_back(Ns);
      Done.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

struct PhaseResult {
  std::vector<ClientOut> Outs;
  std::vector<std::unique_ptr<Tracer>> Tracers;
  std::vector<double> WindowRates;
  double Seconds = 0;
  cache::CacheStats Stats;
  std::map<std::string, uint64_t> Counters; ///< obs counter deltas.
};

const char *const ObsCounterNames[] = {
    "ingest.accepted",          "ingest.rejected.too_large",
    "ingest.rejected.bad_magic", "ingest.rejected.truncated",
    "ingest.rejected.malformed", "ingest.rejected.limit_exceeded",
    "ingest.rejected.unsupported", "ingest.rejected.validate",
    "ingest.rejected.check",    "ingest.rejected.link",
    "ingest.rejected.lower",    "ingest.rejected.translate",
    "ingest.rejected.engine",   "ingest.rejected.resource"};

std::map<std::string, uint64_t> obsCounters() {
  std::map<std::string, uint64_t> M;
  for (const char *N : ObsCounterNames)
    M[N] = 0;
  for (const obs::Metric &X : obs::snapshot().Metrics)
    if (M.count(X.Name))
      M[X.Name] = X.Value;
  return M;
}

/// A fresh cache filled with the universe (every hot RWBM module once).
std::unique_ptr<cache::AdmissionCache> warmCache(const Universe &U, Report &R) {
  auto Cache = std::make_unique<cache::AdmissionCache>(CacheBudget, CacheShards);
  link::LinkOptions Opts;
  Opts.Cache = Cache.get();
  Opts.Engine = wasm::EngineKind::Flat;
  for (const Payload &P : U.Rwbm) {
    Expected<ingest::AdmittedModule> A = ingest::admit(P.Bytes, {}, Opts);
    if (!A) {
      R.fail("warming " + P.Name + ": " + A.error().message());
      return nullptr;
    }
  }
  return Cache;
}

/// One measured phase on a warm cache: \p Clients threads, each on its
/// own schedule.
PhaseResult runPhase(const Universe &U, cache::AdmissionCache &Cache,
                     unsigned Clients, double Seconds, uint64_t MaxRounds,
                     bool Traced) {
  PhaseResult PR;
  Env E{U, Cache, {}, {}};
  E.Opts.Cache = &Cache;
  E.Opts.Engine = wasm::EngineKind::Flat;
  cache::CacheStats Before = Cache.stats();
  std::map<std::string, uint64_t> ObsBefore = obsCounters();

  PR.Outs.resize(Clients);
  for (unsigned C = 0; C < Clients; ++C)
    PR.Tracers.push_back(Traced ? std::make_unique<Tracer>(C) : nullptr);
  std::atomic<uint64_t> Done{0};
  std::atomic<bool> Go{false};
  uint64_t Start = 0, Deadline = 0;
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      runClient(E, C, Deadline, MaxRounds, PR.Tracers[C].get(), Done,
                PR.Outs[C]);
    });
  Start = nowNs();
  Deadline = Start + static_cast<uint64_t>(Seconds * 1e9);
  Go.store(true, std::memory_order_release);
  // Completed requests per 100ms window while every client is busy.
  uint64_t LastT = Start, LastN = 0;
  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    uint64_t Now = nowNs(), N = Done.load(std::memory_order_relaxed);
    if (Now > Deadline)
      break;
    PR.WindowRates.push_back(static_cast<double>(N - LastN) * 1e9 /
                             static_cast<double>(Now - LastT));
    LastT = Now;
    LastN = N;
  }
  for (std::thread &Th : Threads)
    Th.join();
  PR.Seconds = static_cast<double>(nowNs() - Start) / 1e9;
  cache::CacheStats After = Cache.stats();
  PR.Stats.ProgramHits = After.ProgramHits - Before.ProgramHits;
  PR.Stats.ProgramMisses = After.ProgramMisses - Before.ProgramMisses;
  PR.Stats.Evictions = After.Evictions - Before.Evictions;
  std::map<std::string, uint64_t> ObsAfter = obsCounters();
  for (const auto &KV : ObsAfter)
    PR.Counters[KV.first] = KV.second - ObsBefore[KV.first];
  return PR;
}

std::vector<uint64_t> merged(const PhaseResult &PR, Kind K) {
  std::vector<uint64_t> V;
  for (const ClientOut &O : PR.Outs)
    V.insert(V.end(), O.Lat[K].begin(), O.Lat[K].end());
  return V;
}

/// Correctness and totals common to every phase; untraced phases also
/// reconcile the per-category counts with ingest's own counters.
void checkPhase(const PhaseResult &PR, bool Traced, Report &R) {
  uint64_t Accepted = 0, By[16] = {};
  for (const ClientOut &O : PR.Outs) {
    for (const std::string &E : O.Errors)
      R.fail(E);
    Accepted += O.Accepted;
    for (unsigned I = 0; I < 16; ++I)
      By[I] += O.RejectedBy[I];
  }
  if (Traced)
    return;
  auto Check = [&](const std::string &Name, uint64_t Mine) {
    uint64_t Theirs = PR.Counters.at(Name);
    if (Mine != Theirs)
      R.fail(Name + ": ingest counted " + std::to_string(Theirs) +
             ", the benchmark saw " + std::to_string(Mine));
  };
  Check("ingest.accepted", Accepted);
  for (unsigned C = 1; C <= static_cast<unsigned>(Category::Resource); ++C)
    Check(std::string("ingest.rejected.") +
              ingest::categoryToken(static_cast<Category>(C)),
          By[C]);
}

} // namespace

bool runAdmitMix(const Options &O, Report &R) {
  // Two clients leave cores to the rest of a shared host, which keeps the
  // tail steady from run to run.
  unsigned Clients = std::max(1u, std::min(2u, std::thread::hardware_concurrency()));
  R.info("admit-mix: " + std::to_string(Clients) + " closed-loop clients, rounds of " +
         std::to_string(RoundSize) + " requests");
  Universe U;
  std::string Why;
  if (!U.build(O.Seed, Why)) {
    R.fail(Why);
    return false;
  }

  if (!O.Trace) {
    // Set-up: the universe and hostile inputs, then the cache filled with
    // the universe.
    std::unique_ptr<cache::AdmissionCache> Cache = warmCache(U, R);
    if (!Cache)
      return false;
    R.metric("setup_s", setupSeconds(O), "s");
    PhaseResult PR = runPhase(U, *Cache, Clients, O.Seconds, UINT64_MAX, false);
    checkPhase(PR, false, R);
    for (const ClientOut &C : PR.Outs) {
      R.Attempted += C.Attempted;
      R.Failed += C.Failed;
    }
    std::vector<uint64_t> Hot = merged(PR, HotRwbm), HotW = merged(PR, HotWasm),
                          ColdL = merged(PR, Cold), Rej = merged(PR, Reject);
    std::vector<uint64_t> AllHot = Hot, All;
    AllHot.insert(AllHot.end(), HotW.begin(), HotW.end());
    // Windows are cut from each client's own sequence of samples.
    std::vector<double> P99s, P50s[NumKinds];
    auto AddWindows = [](std::vector<double> &To, std::vector<double> W) {
      To.insert(To.end(), W.begin(), W.end());
    };
    for (const ClientOut &C : PR.Outs) {
      All.insert(All.end(), C.Seq.begin(), C.Seq.end());
      AddWindows(P99s, windowQuantiles(C.Seq, P99Window, 0.99));
      for (unsigned K : {HotRwbm, HotWasm, Cold, Reject})
        AddWindows(P50s[K], windowQuantiles(C.Lat[K], P50Window, 0.5));
    }
    R.timing("hot_rwbm", Hot);
    R.timing("hot_wasm", HotW);
    R.timing("cold", ColdL);
    R.timing("reject", Rej);
    R.timing("all", All);
    double Rps = highDecile(PR.WindowRates), P99 = lowDecile(P99s);
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "admit_rps=%.0f hot_admit_p50_us=%.3f cold_admit_p50_us=%.3f "
                  "reject_p50_us=%.3f admit_p99_us=%.3f (whole run)",
                  Rps, quantile(AllHot, 0.5) / 1e3, quantile(ColdL, 0.5) / 1e3,
                  quantile(Rej, 0.5) / 1e3, quantile(All, 0.99) / 1e3);
    R.info(Buf);
    std::snprintf(Buf, sizeof(Buf),
                  "cache: program hits=%llu misses=%llu evictions=%llu",
                  static_cast<unsigned long long>(PR.Stats.ProgramHits),
                  static_cast<unsigned long long>(PR.Stats.ProgramMisses),
                  static_cast<unsigned long long>(PR.Stats.Evictions));
    R.info(Buf);
    R.metric("throughput_per_s", Rps, "1/s");
    R.metric(ClassP50[0], lowDecile(P50s[HotRwbm]), "us");
    R.metric(ClassP50[1], lowDecile(P50s[HotWasm]), "us");
    R.metric(ClassP50[2], lowDecile(P50s[Cold]), "us");
    R.metric(ClassP50[3], lowDecile(P50s[Reject]), "us");
    R.metric("p99_us", P99, "us");
    R.metric("wasm_bytes_per_func",
             static_cast<double>(U.WasmBytes) / static_cast<double>(U.WasmFuncs),
             "bytes");
    return true;
  }

  // Traced mode: an untraced phase, then the same rounds replayed stage
  // by stage inside spans at the same client count, then at one client.
  // Each phase starts from its own warm cache, so novel modules miss.
  setAllocCounting(true);
  std::unique_ptr<cache::AdmissionCache> C0 = warmCache(U, R), C1 = warmCache(U, R),
                                         C2 = warmCache(U, R);
  if (!C0 || !C1 || !C2)
    return false;
  PhaseResult Plain =
      runPhase(U, *C0, Clients, O.Seconds * 0.35, UINT64_MAX, false);
  checkPhase(Plain, false, R);
  uint64_t Rounds = 0;
  for (const ClientOut &C : Plain.Outs) {
    R.Attempted += C.Attempted;
    R.Failed += C.Failed;
    Rounds = std::max<uint64_t>(Rounds, C.Attempted / RoundSize);
  }
  PhaseResult Tr = runPhase(U, *C1, Clients, O.Seconds * 0.35, Rounds, true);
  checkPhase(Tr, true, R);
  PhaseResult One = runPhase(U, *C2, 1, O.Seconds * 0.25, Rounds, true);
  checkPhase(One, true, R);
  setAllocCounting(false);

  std::vector<const Tracer *> Ts, Ts1;
  for (const auto &T : Tr.Tracers)
    Ts.push_back(T.get());
  for (const auto &T : One.Tracers)
    Ts1.push_back(T.get());
  SpanStats S(Ts), S1(Ts1);
  const char *Hot = RootName[HotRwbm], *HotW = RootName[HotWasm],
             *ColdR = RootName[Cold];
  R.metric("serial.read_us", S.medianUs("serial.read", Hot), "us");
  R.metric("serial.read_allocs", S.medianAllocsPerArg("serial.read", Hot),
           "count");
  R.metric("serial.hash_us", S.medianUs("serial.hash", Hot), "us");
  R.metric("typing.check_us", S.medianUs("typing.check", Hot), "us");
  R.metric("cache.probe_us", S.medianUs("cache.probe", Hot), "us");
  uint64_t Probes = 0, Hits = 0, Accepted = 0, Instrs = 0;
  for (const ClientOut &C : Tr.Outs) {
    Probes += C.Probes;
    Hits += C.Hits;
    Accepted += C.Accepted;
    Instrs += C.Instrs;
  }
  R.metric("cache.hit_ratio",
           Probes ? static_cast<double>(Hits) / static_cast<double>(Probes) : 0,
           "ratio");
  R.metric("cache.internal_hits", static_cast<double>(Tr.Stats.ProgramHits), "count");
  R.metric("cache.internal_misses", static_cast<double>(Tr.Stats.ProgramMisses),
           "count");
  R.metric("link.instantiate_us", S.medianUs("link.instantiate", Hot), "us");
  R.metric("wasm.decode_us", S.medianUs("wasm.decode", HotW), "us");
  R.metric("typing.check_us_per_func", S.medianPerArgUs("typing.check", ColdR), "us");
  R.metric("typing.allocs_per_func", S.medianAllocsPerArg("typing.check", ColdR),
           "count");
  R.metric("link.resolve_us", S.medianUs("link.resolve", ColdR), "us");
  R.metric("lower.us_per_func", S.medianPerArgUs("lower.lower", ColdR), "us");
  R.metric("lower.allocs_per_func", S.medianAllocsPerArg("lower.lower", ColdR),
           "count");
  R.metric("wasm.validate_us", S.medianUs("wasm.validate", ColdR), "us");
  R.metric("exec.translate_us", S.medianUs("exec.translate", ColdR), "us");
  R.metric("exec.instrs",
           Accepted ? static_cast<double>(Instrs) / static_cast<double>(Accepted) : 0,
           "count");
  R.metric("exec.flat_words", S.medianArg("cache.store", ColdR), "count");
  std::map<std::string, std::vector<uint64_t>> ByStage;
  for (const ClientOut &C : Tr.Outs)
    for (const auto &KV : C.RejectByStage)
      ByStage[KV.first].insert(ByStage[KV.first].end(), KV.second.begin(),
                               KV.second.end());
  for (const auto &KV : ByStage)
    R.timing("reject." + KV.first, KV.second);
  for (const char *St :
       {"sniff", "serial_read", "check", "instantiate", "wasm_decode"})
    R.metric(std::string("ingest.reject_us.") + St,
             quantile(ByStage[St], 0.5) / 1e3, "us");
  R.metric("serial.read_us.1client", S1.medianUs("serial.read", Hot), "us");
  R.metric("serial.hash_us.1client", S1.medianUs("serial.hash", Hot), "us");
  R.metric("typing.check_us.1client", S1.medianUs("typing.check", Hot), "us");
  R.metric("cache.probe_us.1client", S1.medianUs("cache.probe", Hot), "us");
  R.metric("link.instantiate_us.1client", S1.medianUs("link.instantiate", Hot), "us");
  R.metric("wasm.decode_us.1client", S1.medianUs("wasm.decode", HotW), "us");
  R.metric("wasm.validate_us.1client", S1.medianUs("wasm.validate", ColdR), "us");
  R.metric("lower.us_per_func.1client", S1.medianPerArgUs("lower.lower", ColdR), "us");

  // Stage medians against the untraced composite call of the same class.
  struct Recon {
    const char *Name;
    Kind K;
    std::vector<const char *> Stages;
  };
  const Recon Recons[] = {
      {"hot", HotRwbm,
       {"serial.read", "typing.check", "serial.hash", "cache.probe",
        "link.instantiate"}},
      {"cold", Cold,
       {"serial.read", "typing.check", "serial.hash", "cache.probe",
        "link.resolve", "lower.lower", "wasm.validate", "exec.translate",
        "cache.store", "link.instantiate"}},
      {"wasm", HotWasm,
       {"wasm.decode", "wasm.validate", "exec.translate", "link.instantiate"}},
  };
  std::vector<double> Overheads;
  for (const Recon &C : Recons) {
    double Sum = 0;
    for (const char *St : C.Stages)
      Sum += S.medianUs(St, RootName[C.K]);
    double Untraced = quantile(merged(Plain, C.K), 0.5) / 1e3;
    double TracedRoot = S.medianUs(RootName[C.K]);
    R.metric(std::string("recon.") + C.Name + ".stage_sum_us", Sum, "us");
    R.metric(std::string("recon.") + C.Name + ".untraced_us", Untraced, "us");
    // The stated band: stage medians sum to within [0.5, 2] of the
    // untraced per-class admission median.
    if (Untraced > 0 && (Sum < 0.5 * Untraced || Sum > 2.0 * Untraced))
      R.fail(std::string("recon.") + C.Name + ": stage sum " +
             std::to_string(Sum) + "us outside [0.5, 2] x untraced " +
             std::to_string(Untraced) + "us");
    if (Untraced > 0)
      Overheads.push_back(TracedRoot / Untraced);
  }
  R.metric("trace.overhead_pct", (geomean(Overheads) - 1) * 100, "pct");

  std::vector<const Tracer *> AllTs = Ts;
  AllTs.insert(AllTs.end(), Ts1.begin(), Ts1.end());
  std::string Path = std::string(OutDir) + "/spans-admit-mix-seed" + std::to_string(O.Seed) +
                     ".json";
  if (!writeTrace(Path, AllTs))
    R.fail("cannot write " + Path);
  else
    R.info("spans written to " + Path);
  return true;
}

} // namespace perf
