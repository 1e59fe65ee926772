#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "cache/cache_fixture.hpp"

/// Figure 1, exhaustively: every state transition of both protocol FSMs as
/// one table. Each row prepares cache 0's line state with a scripted
/// prelude, applies one action, and checks the resulting state (plus the
/// foreign cache's state where the transition involves it).

namespace ccnoc::cache {
namespace {

constexpr sim::Addr kA = 0x100;    // block under test
constexpr sim::Addr kConf = 0x1100;  // conflicts with kA (4 KB direct-mapped)

enum class Act : std::uint8_t {
  kLoad0,          // cache 0 loads kA
  kStore0,         // cache 0 stores kA
  kForeignLoad,    // cache 1 loads kA
  kForeignStore,   // cache 1 stores kA
  kEvict0,         // cache 0 touches the conflicting block
};

struct Row {
  Row(mem::Protocol p, const char* t, std::vector<Act> pre, Act a, LineState e0,
      LineState e1 = LineState::kInvalid, bool c1 = false)
      : proto(p), title(t), prelude(std::move(pre)), action(a), expect0(e0),
        expect1(e1), check1(c1) {}

  mem::Protocol proto;
  // gtest lists each case with the raw bytes of its Row, so every byte up to
  // `title` is part of the test's name. These words fill what was compiler
  // padding, whose leftover heap contents changed the names from run to run;
  // the value keeps the names the cases have been registered under.
  std::uint32_t name_tag = 0x55b9;
  const char* title;
  std::vector<Act> prelude;  // establishes the initial state
  Act action;
  LineState expect0;  // cache 0's state for kA afterwards
  LineState expect1;  // cache 1's (when relevant)
  bool check1;
  std::uint32_t tail = 0;
};
static_assert(sizeof(Row) == 48, "Row has padding again; the test names would vary");

class FsmTable : public ::testing::TestWithParam<Row> {};

TEST_P(FsmTable, TransitionMatchesFigure1) {
  const Row& row = GetParam();

  test::CachePairRig rig(row.proto);

  auto apply = [&](Act a) {
    switch (a) {
      case Act::kLoad0: rig.load(0, kA); break;
      case Act::kStore0: rig.store(0, kA, 0xab); break;
      case Act::kForeignLoad: rig.load(1, kA); break;
      case Act::kForeignStore: rig.store(1, kA, 0xcd); break;
      case Act::kEvict0: rig.load(0, kConf); break;
    }
  };
  for (Act a : row.prelude) apply(a);
  apply(row.action);
  rig.sim.run_to_completion();

  EXPECT_EQ(rig.state(0, kA), row.expect0) << row.title;
  if (row.check1) {
    EXPECT_EQ(rig.state(1, kA), row.expect1) << row.title;
  }
}

const LineState I = LineState::kInvalid;
const LineState S = LineState::kShared;
const LineState E = LineState::kExclusive;
const LineState M = LineState::kModified;
constexpr mem::Protocol WTI = mem::Protocol::kWti;
constexpr mem::Protocol WTU = mem::Protocol::kWtu;
constexpr mem::Protocol MESI = mem::Protocol::kWbMesi;

INSTANTIATE_TEST_SUITE_P(
    Figure1, FsmTable,
    ::testing::Values(
        // ---- WTI (V/I) ----
        Row{WTI, "I --load--> V", {}, Act::kLoad0, S},
        Row{WTI, "I --store--> I (no allocate)", {}, Act::kStore0, I},
        Row{WTI, "V --load--> V", {Act::kLoad0}, Act::kLoad0, S},
        Row{WTI, "V --store--> V (local update)", {Act::kLoad0}, Act::kStore0, S},
        Row{WTI, "V --foreign store--> I", {Act::kLoad0}, Act::kForeignStore, I},
        Row{WTI, "V --foreign load--> V", {Act::kLoad0}, Act::kForeignLoad, S, S, true},
        Row{WTI, "V --evict--> I (silent)", {Act::kLoad0}, Act::kEvict0, I},
        // ---- WTU (V/I with updates) ----
        Row{WTU, "V --foreign store--> V (patched)", {Act::kLoad0}, Act::kForeignStore,
            S},
        Row{WTU, "I --store--> I (no allocate)", {}, Act::kStore0, I},
        // ---- MESI ----
        Row{MESI, "I --solo load--> E", {}, Act::kLoad0, E},
        Row{MESI, "I --load, foreign S--> S", {Act::kForeignLoad}, Act::kLoad0, S, S,
            true},
        Row{MESI, "I --load, foreign M--> S", {Act::kForeignStore}, Act::kLoad0, S, S,
            true},
        Row{MESI, "I --store--> M (write-allocate)", {}, Act::kStore0, M},
        Row{MESI, "I --store, foreign M--> M / foreign I", {Act::kForeignStore},
            Act::kStore0, M, I, true},
        Row{MESI, "S --store--> M (upgrade), foreign I",
            {Act::kLoad0, Act::kForeignLoad}, Act::kStore0, M, I, true},
        Row{MESI, "S --foreign store--> I", {Act::kLoad0, Act::kForeignLoad},
            Act::kForeignStore, I, M, true},
        Row{MESI, "E --load--> E", {Act::kLoad0}, Act::kLoad0, E},
        Row{MESI, "E --store--> M (silent)", {Act::kLoad0}, Act::kStore0, M},
        Row{MESI, "E --foreign load--> S", {Act::kLoad0}, Act::kForeignLoad, S, S,
            true},
        Row{MESI, "E --foreign store--> I", {Act::kLoad0}, Act::kForeignStore, I, M,
            true},
        Row{MESI, "E --evict--> I (silent)", {Act::kLoad0}, Act::kEvict0, I},
        Row{MESI, "M --load--> M", {Act::kStore0}, Act::kLoad0, M},
        Row{MESI, "M --store--> M", {Act::kStore0}, Act::kStore0, M},
        Row{MESI, "M --foreign load--> S (flush)", {Act::kStore0}, Act::kForeignLoad,
            S, S, true},
        Row{MESI, "M --foreign store--> I (fetch-inv)", {Act::kStore0},
            Act::kForeignStore, I, M, true},
        Row{MESI, "M --evict--> I (write back)", {Act::kStore0}, Act::kEvict0, I}),
    [](const ::testing::TestParamInfo<Row>& ti) {
      std::string name = std::string(to_string(ti.param.proto)) + "_" +
                         std::to_string(ti.index);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The side effects Figure 1 implies but states alone don't show.
TEST(FsmSideEffects, MesiEvictionWritesDataBack) {
  test::CachePairRig rig(mem::Protocol::kWbMesi);
  rig.store(0, kA, 0x5a);
  rig.load(0, kConf);
  rig.sim.run_to_completion();
  EXPECT_EQ(rig.bank.storage().read_uint(kA, 4), 0x5au);
}

TEST(FsmSideEffects, WtiStoreReachesMemoryEvenFromInvalid) {
  test::CachePairRig rig(mem::Protocol::kWti);
  rig.store(0, kA, 0x77);
  EXPECT_EQ(rig.bank.storage().read_uint(kA, 4), 0x77u);
}

TEST(FsmSideEffects, WtuForeignStorePatchesExactWord) {
  test::CachePairRig rig(mem::Protocol::kWtu);
  rig.store(1, kA + 4, 0x1111);  // prime other words
  rig.load(0, kA);
  rig.store(1, kA, 0x2222);
  rig.sim.run_to_completion();
  EXPECT_EQ(rig.load(0, kA), 0x2222u);
  EXPECT_EQ(rig.load(0, kA + 4), 0x1111u);  // neighbours untouched
}

}  // namespace
}  // namespace ccnoc::cache
