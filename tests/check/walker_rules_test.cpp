#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "core/system.hpp"

/// The invariant walker, rule by rule: a small checked platform is driven
/// through its data caches to a known quiescent state, one piece of
/// protocol state is corrupted through the tag arrays (or a directory), and
/// exactly the expected rule must fire with the expected message. The
/// escape tests open each legal transient window — an open bank
/// transaction, a CPU's own buffered store, a MESI write-back in flight —
/// and check that the periodic walk forgives it while the strict end-of-run
/// audit does not.

namespace ccnoc::check {
namespace {

using cache::CacheLine;
using cache::LineState;
using cache::MemAccess;

constexpr sim::Addr kA = 0x2000;     // block under test
constexpr sim::Addr kB = 0x3040;     // a second block, another page
constexpr sim::Addr kConf = 0x3000;  // conflicts with kA (4 KB direct-mapped)

class WalkerRig {
 public:
  explicit WalkerRig(mem::Protocol p, unsigned l2_banks = 0) : sys(config(p, l2_banks)) {
    // A recognizable pattern in memory, so flipped bytes have known values.
    std::array<std::uint8_t, 64> pattern{};
    for (unsigned i = 0; i < pattern.size(); ++i) pattern[i] = std::uint8_t(0x10 + i);
    for (sim::Addr a : {kA, kB, kConf}) sys.memory().write(a, pattern.data(), 32);
  }

  /// Issue an access on cpu \p c's data cache without running the platform.
  void issue(unsigned c, bool is_store, sim::Addr a, std::uint64_t v = 0) {
    MemAccess m;
    m.is_store = is_store;
    m.addr = a;
    m.size = 4;
    m.value = v;
    std::uint64_t hit_value = 0;
    (void)sys.cache_node(c).dcache().access(m, &hit_value, [](std::uint64_t) {});
  }

  void settle() {
    sys.simulator().run_to_completion();
    ASSERT_TRUE(sys.quiescent());
  }
  void load(unsigned c, sim::Addr a) {
    issue(c, false, a);
    settle();
  }
  void store(unsigned c, sim::Addr a, std::uint64_t v) {
    issue(c, true, a, v);
    settle();
  }

  /// Step the platform a cycle at a time until \p block has an open
  /// transaction at its home memory bank.
  void run_until_open_txn(sim::Addr block) {
    mem::Bank& bank = sys.bank(sys.address_map().bank_index_of(block));
    for (int i = 0; i < 1000 && !bank.has_open_txn(block); ++i) {
      sys.simulator().run_to_completion(1);
    }
    ASSERT_TRUE(bank.has_open_txn(block));
  }

  CacheLine& dline(unsigned c, sim::Addr block) {
    CacheLine* l = sys.cache_node(c).dcache().tags().find(block);
    EXPECT_NE(l, nullptr) << "cpu" << c << " holds no line for block " << block;
    return *l;
  }

  /// Make the I- or D-cache \p ctl hold \p block in \p state with the
  /// given bytes, whatever the protocol thinks.
  CacheLine& plant(cache::CacheController& ctl, sim::Addr block, LineState state,
                   const std::uint8_t* bytes) {
    CacheLine& l = ctl.tags().victim(block);
    l.block = block;
    l.state = state;
    std::copy(bytes, bytes + 32, l.data.begin());
    return l;
  }

  Checker& checker() { return *sys.checker(); }

  /// Violations recorded since the previous call.
  std::vector<Violation> fresh() {
    const auto& all = checker().violations();
    std::vector<Violation> out(all.begin() + std::ptrdiff_t(seen_), all.end());
    seen_ = all.size();
    return out;
  }

  core::System sys;

 private:
  static core::SystemConfig config(mem::Protocol p, unsigned l2_banks) {
    auto cfg = core::SystemConfig::architecture1(4, p);
    cfg.check.enabled = true;
    // The rig drives the caches directly, not through the processors, so
    // no store is ever committed: only the walker runs.
    cfg.check.oracle = false;
    if (l2_banks != 0) {
      cfg.hierarchy_levels = 2;
      cfg.num_l2_banks = l2_banks;
    }
    return cfg;
  }

  std::size_t seen_ = 0;
};

/// Exactly one violation of \p rule whose message is \p detail.
void expect_one(const std::vector<Violation>& v, const std::string& rule,
                const std::string& detail) {
  ASSERT_EQ(v.size(), 1u) << (v.empty() ? std::string("no violation")
                                        : "first: [" + v[0].rule + "] " + v[0].detail);
  EXPECT_EQ(v[0].rule, rule);
  EXPECT_EQ(v[0].detail, detail);
}

TEST(WalkerRules, CleanPlatformWalksClean) {
  for (mem::Protocol p : {mem::Protocol::kWti, mem::Protocol::kWbMesi}) {
    WalkerRig rig(p);
    rig.load(0, kA);
    rig.load(1, kA);
    rig.store(2, kB, 0xabcd);
    rig.checker().walk();
    rig.checker().final_audit();
    EXPECT_TRUE(rig.fresh().empty()) << to_string(p);
    EXPECT_EQ(rig.checker().walks(), 1u);
  }
}

TEST(WalkerRules, DataFlagsOneFlippedByteOfACleanLine) {
  WalkerRig rig(mem::Protocol::kWti);
  rig.load(0, kA);
  rig.dline(0, kA).data[5] ^= 0xff;
  rig.checker().walk();
  expect_one(rig.fresh(), "data",
             "dcache of cpu0, block 0x2000 (S) disagrees with memory at 0x2005: "
             "cache holds 0xea, memory holds 0x15");
}

TEST(WalkerRules, DataComparesAgainstZeroForANeverWrittenPage) {
  // Memory never written reads as zero; a line claiming otherwise is stale.
  WalkerRig rig(mem::Protocol::kWbMesi);
  const sim::Addr fresh = 0x40000;
  rig.load(0, fresh);  // solo load: E, clean
  rig.dline(0, fresh).data[31] = 0x7;
  rig.checker().walk();
  expect_one(rig.fresh(), "data",
             "dcache of cpu0, block 0x40000 (E) disagrees with memory at 0x4001f: "
             "cache holds 0x7, memory holds 0x0");
}

TEST(WalkerRules, PresenceFlagsACopyTheDirectoryNeverGranted) {
  WalkerRig rig(mem::Protocol::kWti);
  rig.load(0, kA);
  rig.plant(rig.sys.cache_node(1).dcache(), kA, LineState::kShared,
            rig.dline(0, kA).data.data());
  rig.checker().walk();
  expect_one(rig.fresh(), "presence",
             "dcache of cpu1, block 0x2000 is valid (S) but its directory presence "
             "bit is clear");
}

TEST(WalkerRules, WtiLineStateFlagsAModifiedWriteThroughLine) {
  WalkerRig rig(mem::Protocol::kWti);
  rig.load(2, kA);
  rig.dline(2, kA).state = LineState::kModified;
  rig.checker().walk();
  expect_one(rig.fresh(), "wti-line-state",
             "dcache of cpu2, block 0x2000 is in state M but this cache may only "
             "hold I or S lines");
}

TEST(WalkerRules, DirtyOwnerFlagsAnExclusiveLineTheDirectoryThinksClean) {
  WalkerRig rig(mem::Protocol::kWbMesi);
  rig.load(0, kA);  // E
  rig.load(1, kA);  // both S, directory clean
  rig.dline(1, kA).state = LineState::kInvalid;  // a legal silent eviction
  rig.dline(0, kA).state = LineState::kExclusive;
  rig.checker().walk();
  expect_one(rig.fresh(), "dirty-owner",
             "dcache of cpu0, block 0x2000 is E but the directory does not record "
             "cpu0 as dirty owner (dirty=0, owner=65535)");
}

TEST(WalkerRules, SwmrNamesTheFirstOwnerAndReportsInAddressOrder) {
  WalkerRig rig(mem::Protocol::kWbMesi);
  // cpu1 owns both blocks (M); an open transaction on each forgives the
  // directory cross-checks of the copies planted below, never SWMR.
  rig.store(1, kA, 0x1111);
  rig.store(1, kB, 0x2222);
  rig.issue(2, false, kB);
  rig.issue(3, false, kA);
  rig.run_until_open_txn(kB);
  rig.run_until_open_txn(kA);
  ASSERT_EQ(rig.dline(1, kA).state, LineState::kModified);
  ASSERT_EQ(rig.dline(1, kB).state, LineState::kModified);
  // Later cpus hold second E/M copies: cpu3 of kA, cpu2 and cpu3 of kB.
  rig.plant(rig.sys.cache_node(3).dcache(), kA, LineState::kExclusive,
            rig.dline(1, kA).data.data());
  rig.plant(rig.sys.cache_node(2).dcache(), kB, LineState::kModified,
            rig.dline(1, kB).data.data());
  rig.plant(rig.sys.cache_node(3).dcache(), kB, LineState::kExclusive,
            rig.dline(1, kB).data.data());
  rig.checker().walk();
  auto v = rig.fresh();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].rule, "swmr");
  EXPECT_EQ(v[0].detail,
            "block 0x2000 has 2 E/M copies among 2 valid copies (first owner cpu1)");
  EXPECT_EQ(v[1].rule, "swmr");
  EXPECT_EQ(v[1].detail,
            "block 0x3040 has 3 E/M copies among 3 valid copies (first owner cpu1)");
}

TEST(WalkerRules, SwmrFlagsAnOwnerBesideASharer) {
  WalkerRig rig(mem::Protocol::kWbMesi);
  rig.store(2, kA, 0x33);
  rig.issue(0, false, kA);
  rig.run_until_open_txn(kA);
  rig.plant(rig.sys.cache_node(3).dcache(), kA, LineState::kShared,
            rig.dline(2, kA).data.data());
  rig.checker().walk();
  expect_one(rig.fresh(), "swmr",
             "block 0x2000 has 1 E/M copy among 2 valid copies (first owner cpu2)");
}

TEST(WalkerRules, InclusionFlagsBothSidesOnATwoLevelPlatform) {
  WalkerRig rig(mem::Protocol::kWti, /*l2_banks=*/2);
  rig.load(0, kA);
  const sim::Addr stray = 0x50000;  // never filled into any L2 bank
  mem::L2Bank& home = rig.sys.l2_bank(rig.sys.address_map().l2_index_of(stray));
  ASSERT_FALSE(home.resident(stray));
  // An L1 copy of a block its home L2 bank does not hold, with the presence
  // bit the L2 directory would have had to grant: both inclusion audits
  // fire and nothing else does (the never-written block reads as zero).
  const std::array<std::uint8_t, 32> zeros{};
  rig.plant(rig.sys.cache_node(1).dcache(), stray, LineState::kShared, zeros.data());
  const_cast<mem::Directory&>(home.directory()).add_sharer(stray, sim::NodeId(1));
  rig.checker().walk();
  auto v = rig.fresh();
  const std::string l2 = "l2bank" + std::to_string(home.l2_index());
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].rule, "inclusion");
  EXPECT_EQ(v[0].detail, "dcache of cpu1, block 0x50000 is valid but its home L2 bank (" +
                             l2 + ") holds no resident line");
  EXPECT_EQ(v[1].rule, "inclusion");
  EXPECT_EQ(v[1].detail, l2 + " tracks L1 sharers for block 0x50000 (presence=0x2) "
                              "but holds no resident line");
}

TEST(WalkerRules, TwoLevelDataComparesAgainstTheL2Copy) {
  WalkerRig rig(mem::Protocol::kWbMesi, /*l2_banks=*/2);
  rig.load(0, kA);
  rig.load(1, kA);
  rig.checker().walk();
  ASSERT_TRUE(rig.fresh().empty());
  rig.dline(1, kA).data[0] = 0;
  rig.checker().walk();
  expect_one(rig.fresh(), "data",
             "dcache of cpu1, block 0x2000 (S) disagrees with memory at 0x2000: "
             "cache holds 0x0, memory holds 0x10");
}

// --- non-strict escapes, and strict mode ignoring them ----------------------

TEST(WalkerEscapes, OpenBankTransactionForgivesOnlyTheWalk) {
  WalkerRig rig(mem::Protocol::kWti);
  rig.load(0, kA);
  rig.issue(1, false, kA);  // cpu1's miss opens a transaction on kA
  rig.run_until_open_txn(kA);
  rig.dline(0, kA).data[9] ^= 0x01;
  rig.checker().walk();
  EXPECT_TRUE(rig.fresh().empty());
  rig.checker().final_audit();
  expect_one(rig.fresh(), "data",
             "dcache of cpu0, block 0x2000 (S) disagrees with memory at 0x2009: "
             "cache holds 0x18, memory holds 0x19");
}

TEST(WalkerEscapes, OwnBufferedStoreForgivesOnlyItsBytes) {
  WalkerRig rig(mem::Protocol::kWti);
  rig.load(0, kA);
  rig.load(1, kA);
  // cpu0's store hit patches bytes 8..11 of its line; the bank still holds
  // the old bytes until the write-through lands.
  rig.issue(0, true, kA + 8, 0xa1a2a3a4);
  ASSERT_EQ(rig.dline(0, kA).data[8], 0xa4);
  rig.checker().walk();
  EXPECT_TRUE(rig.fresh().empty());

  // Another CPU's copy gets no such pass for the same bytes...
  rig.dline(1, kA).data[10] ^= 0x80;
  rig.checker().walk();
  expect_one(rig.fresh(), "data",
             "dcache of cpu1, block 0x2000 (S) disagrees with memory at 0x200a: "
             "cache holds 0x9a, memory holds 0x1a");
  rig.dline(1, kA).data[10] ^= 0x80;

  // ...nor do cpu0's own bytes the store does not cover.
  rig.dline(0, kA).data[12] ^= 0x01;
  rig.checker().walk();
  expect_one(rig.fresh(), "data",
             "dcache of cpu0, block 0x2000 (S) disagrees with memory at 0x200c: "
             "cache holds 0x1d, memory holds 0x1c");
  rig.dline(0, kA).data[12] ^= 0x01;

  rig.checker().final_audit();
  expect_one(rig.fresh(), "data",
             "dcache of cpu0, block 0x2000 (S) disagrees with memory at 0x2008: "
             "cache holds 0xa4, memory holds 0x18");
}

TEST(WalkerEscapes, WriteBackInFlightForgivesOnlyTheWalk) {
  WalkerRig rig(mem::Protocol::kWbMesi);
  rig.store(0, kA, 0x5a5a5a5a);  // cpu0 holds kA Modified
  std::array<std::uint8_t, 32> written{};
  std::copy_n(rig.dline(0, kA).data.begin(), 32, written.begin());
  rig.store(1, kB, 0x77);
  rig.issue(0, false, kConf);        // evicts kA into the write-back buffer
  rig.issue(1, false, kB + 0x1000);  // and kB, on another cpu
  ASSERT_EQ(rig.sys.cache_node(0).dcache().tags().find(kA), nullptr);
  ASSERT_EQ(rig.sys.cache_node(1).dcache().tags().find(kB), nullptr);
  // An I-cache copy with the written-back bytes: memory is stale until the
  // write-back lands, so only the periodic walk may forgive it.
  rig.plant(rig.sys.cache_node(2).icache(), kA, LineState::kShared, written.data());
  rig.checker().walk();
  EXPECT_TRUE(rig.fresh().empty());
  rig.checker().final_audit();
  expect_one(rig.fresh(), "data",
             "icache of cpu2, block 0x2000 (S) disagrees with memory at 0x2000: "
             "cache holds 0x5a, memory holds 0x10");
}

}  // namespace
}  // namespace ccnoc::check
