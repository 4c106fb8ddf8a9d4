//===- perfbench/src/Gen.cpp - Seeded inputs and their references ---------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Gen.h"

#include "Bench.h"

#include "ir/Builder.h"
#include "serial/Serial.h"

#include <cstring>

using namespace rw;
using namespace rw::ir;
using namespace rw::ir::build;

namespace perf::gen {

namespace {

/// serverModule with f0's constant replaced by \p C0 (the constant is the
/// second instruction of each body).
ir::Module withF0Const(ir::Module M, uint32_t C0) {
  M.Funcs[0].Body[1] = iconst(static_cast<int32_t>(C0));
  return M;
}

void encodeLeb4(uint32_t V, uint8_t *Out) {
  Out[0] = static_cast<uint8_t>((V & 0x7f) | 0x80);
  Out[1] = static_cast<uint8_t>(((V >> 7) & 0x7f) | 0x80);
  Out[2] = static_cast<uint8_t>(((V >> 14) & 0x7f) | 0x80);
  Out[3] = static_cast<uint8_t>((V >> 21) & 0x7f);
}

void storeChecksum(std::vector<uint8_t> &B) {
  uint64_t H = fnv1a(B.data() + serial::HeaderSize,
                     B.size() - serial::HeaderSize);
  for (unsigned I = 0; I < 8; ++I)
    B[16 + I] = static_cast<uint8_t>(H >> (8 * I));
}

FunTypeRef i32ToI32() { return FunType::get({}, arrow({i32T()}, {i32T()})); }

} // namespace

ir::Module serverModule(const std::string &Name, uint64_t Tag,
                        unsigned Funcs) {
  ir::Module M = rwbench::serverModule(Tag, Funcs);
  M.Name = Name;
  return M;
}

uint64_t fnv1a(const uint8_t *P, size_t N) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t I = 0; I < N; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

bool ColdTemplate::init(const std::string &N, unsigned F, std::string &Why) {
  Name = N;
  Funcs = F;
  Tag = ColdLo / Funcs + 12345;
  ir::Module M = serverModule(Name, Tag, Funcs);
  Bytes = serial::write(M);
  uint8_t Want[4];
  encodeLeb4(serverConst(Tag, Funcs, 0), Want);
  unsigned Hits = 0;
  for (size_t I = serial::HeaderSize; I + 4 <= Bytes.size(); ++I)
    if (std::memcmp(Bytes.data() + I, Want, 4) == 0) {
      ConstOff = I;
      ++Hits;
    }
  if (Hits != 1) {
    Why = "cold template: f0 constant found " + std::to_string(Hits) +
          " times in the serialized module";
    return false;
  }
  // The in-place rewrite must equal a fresh serialization, checksum
  // included (RWBM: FNV-1a of the payload at header offset 16).
  for (uint32_t C0 : {ColdLo + 7u, ColdHi - 3u, ColdLo + 999999u}) {
    std::vector<uint8_t> Patched;
    make(C0, Patched);
    if (Patched != serial::write(withF0Const(M, C0))) {
      Why = "cold template: in-place rewrite differs from serial::write";
      return false;
    }
  }
  return true;
}

void ColdTemplate::make(uint32_t C0, std::vector<uint8_t> &Out) const {
  Out = Bytes;
  encodeLeb4(C0, Out.data() + ConstOff);
  storeChecksum(Out);
}

ir::Module importerModule(const std::string &Name, const std::string &Provider,
                          uint64_t Tag) {
  ir::Module M = serverModule(Name, Tag, 1);
  M.Funcs.push_back(importFunc({Provider, "g"}, i32ToI32()));
  return M;
}

ir::Module linearDropModule(const std::string &Name, uint32_t K) {
  ir::Module M;
  M.Name = Name;
  M.Funcs.push_back(function(
      {"main"}, FunType::get({}, arrow({}, {})), {},
      {iconst(static_cast<int32_t>(K)),
       structMalloc({Size::constant(32)}, Qual::lin()), drop()}));
  return M;
}

std::string mlStash(bool Safe, uint32_t K) {
  std::string S = "global c = linref [ref int] () ;;";
  S += Safe ? "export fun stash (r : lin (ref int)) : unit = c := r ;;"
            : "export fun stash (r : lin (ref int)) : lin (ref int) = "
              "c := r; r ;;";
  S += "export fun get_stashed (u : unit) : lin (ref int) = !c ;;";
  S += "export fun poly (x : int) : int = x * x + " + std::to_string(K) +
       " ;;";
  return S;
}

std::string l3StashClient(const std::string &P, uint32_t K, uint32_t D) {
  return "import " + P + ".stash : Ref int -o unit ;;" + "import " + P +
         ".get_stashed : unit -o Ref int ;;" +
         "export fun main (u : unit) : int = stash (join (new " +
         std::to_string(K) + ")) ; free (split (get_stashed ())) + " +
         std::to_string(D) + " ;;";
}

const char *CounterLibL3 =
    "export fun make (n : int) : Ref int = join (new n) ;;"
    "export fun bump (r : Ref int) : Ref int = "
    "  let (old, c) = swap (split r) 0 in "
    "  let (z, c2) = swap c (old + 1) in "
    "  join c2 ;;"
    "export fun finish (r : Ref int) : int = free (split r) ;;";

std::string counterClientML(const std::string &P, uint32_t Init) {
  return "import " + P + ".make : int -> lin (ref int) ;;" + "import " + P +
         ".bump : lin (ref int) -> lin (ref int) ;;" + "import " + P +
         ".finish : lin (ref int) -> int ;;" +
         "global cell = linref [ref int] () ;;"
         "global rate = ref 1 ;;"
         "export fun init (u : unit) : unit = cell := make " +
         std::to_string(Init) +
         " ;;"
         "fun ntimes (n : int) : unit = "
         "  if n = 0 then () else (cell := bump !cell; ntimes (n - 1)) ;;"
         "export fun tick (u : unit) : unit = ntimes !rate ;;"
         "export fun set_rate (n : int) : unit = rate := n ;;"
         "export fun total (u : unit) : int = finish !cell ;;";
}

//===----------------------------------------------------------------------===//
// The link-cold corpus
//===----------------------------------------------------------------------===//

namespace {

/// g(x) = x + K through an unrestricted (garbage-collected) struct.
InstVec gcBody(uint32_t K) {
  return {getLocal(0, Qual::unr()),
          structMalloc({Size::constant(32)}, Qual::unr()),
          memUnpack(arrow({}, {i32T()}), {{1, i32T()}},
                    {structGet(0), setLocal(1), drop(),
                     getLocal(1, Qual::unr())}),
          iconst(static_cast<int32_t>(K)), addI32()};
}

/// v(x) = x + K through a linear variant and a case dispatch.
InstVec variantBody(uint32_t K) {
  std::vector<Type> Cases = {unitT(), i32T()};
  return {getLocal(0, Qual::unr()), variantMalloc(1, Cases, Qual::lin()),
          memUnpack(arrow({}, {i32T()}), {},
                    {variantCase(Qual::lin(), variantHT(Cases),
                                 arrow({}, {i32T()}), {},
                                 {{drop(), iconst(-1)}, {}})}),
          iconst(static_cast<int32_t>(K)), addI32()};
}

/// e(x) = 2x + K: packs (x, coderef dbl) as an existential, opens it and
/// applies the coderef to the abstract value (Fig. 9 in miniature).
InstVec existBody(uint32_t K) {
  Type AlphaV(varPT(0), Qual::unr());
  FunTypeRef OpTy = FunType::get({}, arrow({AlphaV}, {i32T()}));
  HeapTypeRef Ex = exHT(
      Qual::unr(), Size::constant(32),
      Type(prodPT({AlphaV, Type(coderefPT(OpTy), Qual::unr())}), Qual::unr()));
  return {getLocal(0, Qual::unr()), coderef(0), group(2, Qual::unr()),
          existPack(numPT(NumType::I32), Ex, Qual::lin()),
          memUnpack(arrow({}, {i32T()}), {},
                    {existUnpack(Qual::lin(), Ex, arrow({}, {i32T()}), {},
                                 {ungroup(), callIndirect()})}),
          iconst(static_cast<int32_t>(K)), addI32()};
}

uint32_t draw(uint64_t &S, uint32_t Lo, uint32_t Hi) {
  return Lo + static_cast<uint32_t>(splitmix64(S) % (Hi - Lo + 1));
}

} // namespace

std::vector<LinkSet> linkCorpus(uint64_t Seed, unsigned N,
                                std::vector<ir::Module> &IRMods) {
  std::vector<LinkSet> Out;
  for (unsigned I = 0; I < N; ++I) {
    uint64_t S = streamSeed(Seed, 0x11c0, I);
    std::string Tag = std::to_string(I);
    LinkSet L;
    uint32_t X = draw(S, 1, 1000);
    switch (I % 4) {
    case 0: { // Fig. 1/3: the safe ML stash and its L3 client.
      L.Kind = "stash";
      uint32_t K = draw(S, 1, 1 << 16), C = draw(S, 1, 1 << 16),
               D = draw(S, 1, 1000);
      std::string P = "mls" + Tag;
      L.Members.push_back({Member::ML, P, mlStash(true, K), 0});
      L.Members.push_back(
          {Member::L3, "cls" + Tag, l3StashClient(P, C, D), 0});
      L.Calls.push_back({"cls" + Tag + ".main", {}, true, C + D});
      L.Calls.push_back({P + ".poly", {X}, true, X * X + K});
      break;
    }
    case 1: { // Fig. 9: the L3 counter library and its ML client.
      L.Kind = "counter";
      uint32_t Init = draw(S, 0, 1000), Rate = draw(S, 2, 24),
               Ticks = 2 + (I / 4) % 7;
      std::string P = "lib" + Tag, A = "app" + Tag;
      L.Members.push_back({Member::L3, P, CounterLibL3, 0});
      L.Members.push_back({Member::ML, A, counterClientML(P, Init), 0});
      L.Calls.push_back({A + ".init", {}, false, 0});
      L.Calls.push_back({A + ".set_rate", {Rate}, false, 0});
      for (uint32_t T = 0; T < Ticks; ++T)
        L.Calls.push_back({A + ".tick", {}, false, 0});
      L.Calls.push_back({A + ".total", {}, true, Init + Rate * Ticks});
      break;
    }
    case 2: { // A provider and consumers importing across modules.
      L.Kind = "imports";
      unsigned Fp = 2 + (I / 4) % 7, Consumers = 1 + (I / 4) % 3;
      uint32_t SrvTag = draw(S, 1, 1 << 20);
      std::string P = "prov" + Tag;
      IRMods.push_back(serverModule(P, SrvTag, Fp));
      L.Members.push_back({Member::IR, P, "", IRMods.size() - 1});
      for (unsigned J = 0; J < Fp; ++J)
        L.Calls.push_back(
            {P + ".f" + std::to_string(J), {X}, true, serverExpect(SrvTag, Fp, J, X)});
      for (unsigned C = 0; C < Consumers; ++C) {
        unsigned E = draw(S, 0, Fp - 1);
        uint32_t Dd = draw(S, 1, 1 << 16);
        ir::Module Q;
        Q.Name = "cons" + Tag + "_" + std::to_string(C);
        Q.Funcs.push_back(importFunc({P, "f" + std::to_string(E)}, i32ToI32()));
        Q.Funcs.push_back(function({"h"}, i32ToI32(), {},
                                   {getLocal(0, Qual::unr()), call(0),
                                    iconst(static_cast<int32_t>(Dd)), addI32()}));
        L.Calls.push_back({Q.Name + ".h", {X}, true,
                           serverExpect(SrvTag, Fp, E, X) + Dd});
        IRMods.push_back(std::move(Q));
        L.Members.push_back(
            {Member::IR, IRMods.back().Name, "", IRMods.size() - 1});
      }
      break;
    }
    default: { // GC, variant and existential types behind an import.
      L.Kind = "shapes";
      uint32_t SrvTag = draw(S, 1, 1 << 20), K1 = draw(S, 1, 1 << 16),
               K2 = draw(S, 1, 1 << 16), K3 = draw(S, 1, 1 << 16),
               W = draw(S, 1, 1000);
      std::string P = "sprov" + Tag;
      IRMods.push_back(serverModule(P, SrvTag, 2));
      L.Members.push_back({Member::IR, P, "", IRMods.size() - 1});
      L.Calls.push_back({P + ".f0", {X}, true, serverExpect(SrvTag, 2, 0, X)});
      L.Calls.push_back({P + ".f1", {X}, true, serverExpect(SrvTag, 2, 1, X)});
      ir::Module M;
      M.Name = "shp" + Tag;
      M.Funcs.push_back(importFunc({P, "f0"}, i32ToI32()));
      M.Funcs.push_back(function({}, i32ToI32(), {},
                                 {getLocal(0, Qual::unr()), iconst(2),
                                  mulI32()}));
      M.Tab.Entries = {1};
      M.Funcs.push_back(
          function({"g"}, i32ToI32(), {Size::constant(32)}, gcBody(K1)));
      M.Funcs.push_back(function({"v"}, i32ToI32(), {}, variantBody(K2)));
      M.Funcs.push_back(function({"e"}, i32ToI32(), {}, existBody(K3)));
      M.Funcs.push_back(function({"w"}, i32ToI32(), {},
                                 {getLocal(0, Qual::unr()), call(0),
                                  iconst(static_cast<int32_t>(W)), addI32()}));
      L.Calls.push_back({M.Name + ".g", {X}, true, X + K1});
      L.Calls.push_back({M.Name + ".v", {X}, true, X + K2});
      L.Calls.push_back({M.Name + ".e", {X}, true, 2 * X + K3});
      L.Calls.push_back(
          {M.Name + ".w", {X}, true, serverExpect(SrvTag, 2, 0, X) + W});
      IRMods.push_back(std::move(M));
      L.Members.push_back(
          {Member::IR, IRMods.back().Name, "", IRMods.size() - 1});
      break;
    }
    }
    Out.push_back(std::move(L));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// exec-tiers programs
//===----------------------------------------------------------------------===//

ir::Module loopProgram(int32_t N, int32_t K) {
  ir::Module M;
  M.Name = "loop";
  InstVec Body = {
      iconst(0), setLocal(0), iconst(0), setLocal(1),
      block(arrow({}, {}), {},
            {loop(arrow({}, {}),
                  {getLocal(1, Qual::unr()), iconst(1), addI32(), setLocal(1),
                   getLocal(0, Qual::unr()), getLocal(1, Qual::unr()),
                   addI32(), iconst(K), addI32(), setLocal(0),
                   getLocal(1, Qual::unr()), iconst(N),
                   relop(NumType::I32, RelopKind::Lt), brIf(0)})}),
      getLocal(0, Qual::unr())};
  M.Funcs.push_back(function({"main"}, FunType::get({}, arrow({}, {i32T()})),
                             {Size::constant(32), Size::constant(32)},
                             std::move(Body)));
  return M;
}

ir::Module churnProgram(int32_t N) {
  ir::Module M;
  M.Name = "churn";
  InstVec Loop = {
      getLocal(1, Qual::unr()),
      structMalloc({Size::constant(32)}, Qual::lin()),
      memUnpack(arrow({}, {i32T()}), {{2, i32T()}},
                {iconst(9), structSwap(0), setLocal(2), structFree(),
                 getLocal(2, Qual::unr())}),
      getLocal(0, Qual::unr()), addI32(), setLocal(0),
      getLocal(1, Qual::unr()), iconst(1), addI32(), setLocal(1),
      getLocal(1, Qual::unr()), iconst(N), relop(NumType::I32, RelopKind::Lt),
      brIf(0)};
  InstVec Body = {iconst(0), setLocal(0), iconst(0), setLocal(1), iconst(0),
                  setLocal(2),
                  block(arrow({}, {}), {}, {loop(arrow({}, {}), std::move(Loop))}),
                  getLocal(0, Qual::unr())};
  M.Funcs.push_back(function(
      {"main"}, FunType::get({}, arrow({}, {i32T()})),
      {Size::constant(32), Size::constant(32), Size::constant(32)},
      std::move(Body)));
  return M;
}

ir::Module gcProgram(int32_t N) {
  ir::Module M;
  M.Name = "gc";
  InstVec Loop = {getLocal(1, Qual::unr()),
                  structMalloc({Size::constant(32)}, Qual::unr()),
                  memUnpack(arrow({}, {}), {}, {drop()}),
                  getLocal(1, Qual::unr()), iconst(1), addI32(), setLocal(1),
                  getLocal(1, Qual::unr()), iconst(N),
                  relop(NumType::I32, RelopKind::Lt), brIf(0)};
  InstVec Body = {iconst(0), setLocal(1),
                  block(arrow({}, {}), {}, {loop(arrow({}, {}), std::move(Loop))}),
                  getLocal(1, Qual::unr())};
  M.Funcs.push_back(function({"main"}, FunType::get({}, arrow({}, {i32T()})),
                             {Size::constant(64), Size::constant(32)},
                             std::move(Body)));
  return M;
}

} // namespace perf::gen
