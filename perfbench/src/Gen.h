//===- perfbench/src/Gen.h - Seeded inputs and their references -*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Input generators for the three workloads. Every generated program comes
/// with its expected outputs as closed forms the generator computes
/// itself, and every hostile input with the verdict the container
/// specifications imply — never with a value taken from the program under
/// test.
///
//===----------------------------------------------------------------------===//

#ifndef RWPERF_GEN_H
#define RWPERF_GEN_H

#include "ingest/Limits.h"
#include "ir/Module.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perf::gen {

/// The c7 server module of bench/ServerMix.h, named \p Name: exports
/// f0..f{Funcs-1} with f_j(x) = (x + c_j) * 3 mod 2^32. Each body
/// allocates, strongly updates and frees a linear struct, as library code
/// does.
rw::ir::Module serverModule(const std::string &Name, uint64_t Tag,
                            unsigned Funcs);
/// c_j of serverModule(_, Tag, Funcs).
inline uint32_t serverConst(uint64_t Tag, unsigned Funcs, unsigned J) {
  return static_cast<uint32_t>((Tag * Funcs + J) & 0x7fffffff);
}
inline uint32_t serverExpect(uint64_t Tag, unsigned Funcs, unsigned J,
                             uint32_t X) {
  return (X + serverConst(Tag, Funcs, J)) * 3u;
}

/// FNV-1a over bytes, the RWBM payload checksum.
uint64_t fnv1a(const uint8_t *P, size_t N);

/// A serialized server module whose f0 constant is rewritten in place, so
/// a client makes a novel module (a distinct content hash) in about a
/// microsecond. Constants in [ColdLo, ColdHi) keep a 4-byte LEB128.
struct ColdTemplate {
  static constexpr uint32_t ColdLo = 1u << 21;
  static constexpr uint32_t ColdHi = 1u << 27;
  std::string Name;
  unsigned Funcs = 0;
  uint64_t Tag = 0; ///< c_j = serverConst(Tag, Funcs, j) for j >= 1; c_0 is patched.
  std::vector<uint8_t> Bytes;
  size_t ConstOff = 0;

  /// Builds the template; checks the in-place rewrite against a fresh
  /// serialization. Returns false (with \p Why) if the format moved.
  bool init(const std::string &Name, unsigned Funcs, std::string &Why);
  /// Writes the module with c_0 = \p C0 into \p Out.
  void make(uint32_t C0, std::vector<uint8_t> &Out) const;
};

/// A module whose function imports g : i32 -> i32 from \p Provider, which
/// no admission provides; it exports f0 like a one-function server module.
rw::ir::Module importerModule(const std::string &Name,
                              const std::string &Provider, uint64_t Tag);
/// A module whose function drops a linear struct: a linearity violation.
rw::ir::Module linearDropModule(const std::string &Name, uint32_t K);

/// The Fig. 1 stash in ML, unsafe (returns the stashed linear ref as well
/// as keeping it) and safe, plus a seeded unrestricted export
/// poly(x) = x * x + K.
std::string mlStash(bool Safe, uint32_t K);
/// The Fig. 3 L3 client of the safe stash in module \p Provider:
/// main() = K + D.
std::string l3StashClient(const std::string &Provider, uint32_t K,
                          uint32_t D);
/// The Fig. 9 linear counter library in L3.
extern const char *CounterLibL3;
/// The Fig. 9 ML client of the library in module \p Provider; its cell
/// starts at \p Init, so after set_rate(r) and t ticks,
/// total() = Init + r * t.
std::string counterClientML(const std::string &Provider, uint32_t Init);

/// One host call of an export and its reference result.
struct Call {
  std::string Export;
  std::vector<uint32_t> Args;
  bool HasResult = false;
  uint32_t Expect = 0;
};

/// One member of a link set: ML or L3 source compiled per operation, or
/// a module built once with the IR builder.
struct Member {
  enum Lang : uint8_t { ML, L3, IR } L = IR;
  std::string Name;
  std::string Src;
  size_t IRIndex = 0;
};

/// A link set of the link-cold corpus, in link order, with every host
/// call to make after instantiation.
struct LinkSet {
  std::string Kind;
  std::vector<Member> Members;
  std::vector<Call> Calls;
};

/// The link-cold corpus: \p N distinct link sets. Each set's shape and
/// size follow from its index; \p Seed draws the constants the references
/// follow, so the work does not move with the seed.
/// IR-built modules are appended to \p IRMods (referenced by IRIndex).
std::vector<LinkSet> linkCorpus(uint64_t Seed, unsigned N,
                                std::vector<rw::ir::Module> &IRMods);

/// The fixed programs of exec-tiers (work does not depend on the seed;
/// the seed only moves constants, which the references follow).
rw::ir::Module loopProgram(int32_t N, int32_t K);    ///< sum_{i=1..N} (i + K)
rw::ir::Module churnProgram(int32_t N);              ///< linear alloc/swap/free
rw::ir::Module gcProgram(int32_t N);                 ///< N garbage GC cells
inline uint32_t loopExpect(uint32_t N, uint32_t K) {
  return static_cast<uint32_t>(static_cast<uint64_t>(N) * (N + 1) / 2) + N * K;
}
inline uint32_t churnExpect(uint32_t N) {
  return static_cast<uint32_t>(static_cast<uint64_t>(N) * (N - 1) / 2);
}

} // namespace perf::gen

#endif // RWPERF_GEN_H
