#include <gtest/gtest.h>

#include <string>

#include "sim/jsonv.hpp"
#include "sim/profile.hpp"

/// Unit tests for the sharing profiler core: the classifier against
/// hand-built access sequences with known ground truth, the ping-pong
/// detector, the Little's-law bank-occupancy identity, and the off-mode
/// and determinism contracts (see EXPERIMENTS.md, "Sharing profiling").

namespace ccnoc::sim {
namespace {

class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pf.set_mode(ProfileMode::kOn);
    pf.set_epoch_cycles(1024);
    pf.set_block_bytes(32);
  }

  /// Snapshot and return the line for `block`; fails the test when absent.
  const ProfileSnapshot::Line* line(Addr block) {
    snap = pf.snapshot("test");
    const ProfileSnapshot::Line* l = snap.find(block);
    EXPECT_NE(l, nullptr) << "no line at 0x" << std::hex << block;
    return l;
  }

  Profiler pf;
  ProfileSnapshot snap;
};

TEST_F(ProfileTest, PrivateLine) {
  pf.access(1, 0, 0x100, 4, AccessClass::kLoad);
  pf.access(2, 0, 0x104, 4, AccessClass::kStore);
  const auto* l = line(0x100);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->pattern, SharingPattern::kPrivate);
  EXPECT_EQ(l->reads, 1u);
  EXPECT_EQ(l->writes, 1u);
  EXPECT_EQ(l->num_readers(), 1u);
  EXPECT_EQ(l->num_writers(), 1u);
}

TEST_F(ProfileTest, ReadSharedLine) {
  pf.access(1, 0, 0x200, 4, AccessClass::kLoad);
  pf.access(2, 1, 0x200, 4, AccessClass::kLoad);
  pf.access(3, 2, 0x208, 4, AccessClass::kLoad);
  const auto* l = line(0x200);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->pattern, SharingPattern::kReadShared);
  EXPECT_EQ(l->num_readers(), 3u);
  EXPECT_EQ(l->num_writers(), 0u);
}

TEST_F(ProfileTest, FalseSharingDisjointWords) {
  // CPU 0 owns word 0, CPU 1 owns word 7 — same 32-byte block, zero
  // word-level overlap: the textbook false-sharing case.
  pf.access(1, 0, 0x300, 4, AccessClass::kLoad);
  pf.access(2, 0, 0x300, 4, AccessClass::kStore);
  pf.access(3, 1, 0x31c, 4, AccessClass::kLoad);
  pf.access(4, 1, 0x31c, 4, AccessClass::kStore);
  const auto* l = line(0x300);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->pattern, SharingPattern::kFalseShared);
}

TEST_F(ProfileTest, TrueSharingOnOneWordIsNotFalseSharing) {
  // Same two CPUs, but CPU 1 also reads CPU 0's word: a word-level
  // conflict exists, so the block is genuinely shared.
  pf.access(1, 0, 0x300, 4, AccessClass::kStore);
  pf.access(2, 0, 0x300, 4, AccessClass::kLoad);
  pf.access(3, 1, 0x300, 4, AccessClass::kLoad);
  pf.access(4, 1, 0x31c, 4, AccessClass::kStore);
  const auto* l = line(0x300);
  ASSERT_NE(l, nullptr);
  EXPECT_NE(l->pattern, SharingPattern::kFalseShared);
}

TEST_F(ProfileTest, MigratoryLine) {
  // Both CPUs read and write the same word (reader set == writer set).
  for (unsigned cpu : {0u, 1u}) {
    pf.access(cpu + 1, cpu, 0x400, 4, AccessClass::kLoad);
    pf.access(cpu + 2, cpu, 0x400, 4, AccessClass::kStore);
  }
  const auto* l = line(0x400);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->pattern, SharingPattern::kMigratory);
}

TEST_F(ProfileTest, AtomicsCountAsReadAndWrite) {
  pf.access(1, 0, 0x480, 4, AccessClass::kAtomic);
  pf.access(2, 1, 0x480, 4, AccessClass::kAtomic);
  const auto* l = line(0x480);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->atomics, 2u);
  EXPECT_EQ(l->pattern, SharingPattern::kMigratory);
}

TEST_F(ProfileTest, ProducerConsumerLine) {
  pf.access(1, 0, 0x500, 4, AccessClass::kStore);
  pf.access(2, 1, 0x500, 4, AccessClass::kLoad);
  const auto* l = line(0x500);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->pattern, SharingPattern::kProducerConsumer);
}

TEST_F(ProfileTest, ReadWriteSharedLine) {
  // readers {0,1}, writers {0}, with a word conflict: the catch-all class.
  pf.access(1, 0, 0x600, 4, AccessClass::kStore);
  pf.access(2, 0, 0x600, 4, AccessClass::kLoad);
  pf.access(3, 1, 0x600, 4, AccessClass::kLoad);
  const auto* l = line(0x600);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->pattern, SharingPattern::kReadWriteShared);
}

TEST_F(ProfileTest, IfetchOnlyLineIsCode) {
  pf.access(1, 0, 0x700, 32, AccessClass::kIfetch);
  pf.access(2, 1, 0x700, 32, AccessClass::kIfetch);
  const auto* l = line(0x700);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->pattern, SharingPattern::kCode);
  EXPECT_EQ(l->ifetches, 2u);
  // Instruction fetches never join the data reader/writer sets.
  EXPECT_EQ(l->num_readers(), 0u);
}

TEST_F(ProfileTest, PingPongNeedsCopyLossThenRefetch) {
  // CPU 1 loses a live copy to an invalidation, then misses again: one
  // ping-pong. An invalidation that found no copy must not count.
  pf.access(1, 1, 0x800, 4, AccessClass::kLoad);
  pf.invalidate_recv(2, 1, 0x800, /*had_copy=*/true);
  pf.miss(3, 1, 0x800);
  pf.invalidate_recv(4, 2, 0x800, /*had_copy=*/false);
  pf.miss(5, 2, 0x800);
  const auto* l = line(0x800);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->ping_pongs, 1u);
  EXPECT_EQ(l->invalidations, 2u);
  EXPECT_EQ(l->misses, 2u);
}

TEST_F(ProfileTest, RepeatMissesAfterOneInvalidationCountOnce) {
  pf.invalidate_recv(1, 0, 0x840, true);
  pf.miss(2, 0, 0x840);
  pf.miss(3, 0, 0x840);  // plain capacity miss, not a ping-pong
  const auto* l = line(0x840);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->ping_pongs, 1u);
}

TEST_F(ProfileTest, LittlesLawOccupancyIdentity) {
  // Two overlapping requests on one bank: the time-integral of queue
  // depth must equal the sum of the per-request waits exactly.
  unsigned b = pf.register_bank("bank0", 0);
  ASSERT_NE(b, Profiler::kInvalidId);
  pf.bank_enqueue(0, b, 0x900, 1);   // depth 0 -> 1
  pf.bank_enqueue(2, b, 0x900, 2);   // depth 1 -> 2
  pf.bank_dequeue(5, b, 0x900, 1);   // depth 2 -> 1, first arrival waited 5
  pf.bank_dequeue(9, b, 0x900, 0);   // depth 1 -> 0, second waited 7
  snap = pf.snapshot("test");
  ASSERT_EQ(snap.banks.size(), 1u);
  const auto& bank = snap.banks[0];
  EXPECT_EQ(bank.wait_cycles, 12u);
  EXPECT_EQ(bank.occupancy_integral, 12u);  // 1*2 + 2*3 + 1*4
  EXPECT_EQ(bank.conflicts, 2u);
  EXPECT_EQ(bank.max_depth, 2u);
  const auto* l = snap.find(0x900);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->bank_waits, 2u);
  EXPECT_EQ(l->bank_wait_cycles, 12u);
}

TEST_F(ProfileTest, FanoutAndDirectoryWidth) {
  pf.fanout(1, 0, 0xa00, 3);
  pf.fanout(2, 0, 0xa00, 5);
  pf.dir_width(0, 0xa00, 2);
  pf.dir_width(0, 0xa00, 4);
  pf.dir_width(0, 0xa00, 1);
  const auto* l = line(0xa00);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->fanout_rounds, 2u);
  EXPECT_EQ(l->fanout_total, 8u);
  EXPECT_EQ(l->fanout_max, 5u);
  EXPECT_EQ(l->dir_max_sharers, 4u);
}

TEST_F(ProfileTest, TrafficRoundsToBlocks) {
  pf.traffic(1, 0, 0xb04, 8);
  pf.traffic(2, 0, 0xb1c, 12);
  pf.traffic(3, 0, 0xb20, 40);  // next block
  snap = pf.snapshot("test");
  const auto* a = snap.find(0xb00);
  const auto* b = snap.find(0xb20);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->traffic_bytes, 20u);
  EXPECT_EQ(a->packets, 2u);
  EXPECT_EQ(b->traffic_bytes, 40u);
  EXPECT_EQ(snap.total_traffic_bytes, 60u);
  EXPECT_EQ(snap.total_packets, 3u);
}

TEST_F(ProfileTest, EpochFolding) {
  pf.set_epoch_cycles(100);
  pf.access(10, 0, 0xc00, 4, AccessClass::kLoad);    // epoch 0: private read
  pf.access(150, 0, 0xc00, 4, AccessClass::kLoad);   // epoch 1: both read
  pf.access(160, 1, 0xc00, 4, AccessClass::kLoad);
  pf.access(250, 0, 0xc00, 4, AccessClass::kStore);  // epoch 2: rw-shared
  pf.access(260, 1, 0xc00, 4, AccessClass::kLoad);
  const auto* l = line(0xc00);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->epochs_active, 3u);
  EXPECT_EQ(l->epochs_shared, 2u);
  EXPECT_EQ(l->epochs_rw_shared, 1u);
}

TEST_F(ProfileTest, StallAttributionByClass) {
  pf.stall(1, 0, 0xd00, 17, AccessClass::kLoad);
  pf.stall(2, 0, 0xd00, 5, AccessClass::kStore);
  pf.stall(3, 1, 0xd40, 11, AccessClass::kIfetch);
  snap = pf.snapshot("test");
  EXPECT_EQ(snap.total_stall_cycles, 33u);
  EXPECT_EQ(snap.stalls_by_class[unsigned(AccessClass::kLoad)], 17u);
  EXPECT_EQ(snap.stalls_by_class[unsigned(AccessClass::kStore)], 5u);
  EXPECT_EQ(snap.stalls_by_class[unsigned(AccessClass::kIfetch)], 11u);
  const auto* l = snap.find(0xd00);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->stall_cycles, 22u);
}

TEST_F(ProfileTest, OffModeRecordsNothing) {
  Profiler off;  // default mode is kOff
  off.access(1, 0, 0x100, 4, AccessClass::kLoad);
  off.miss(1, 0, 0x100);
  off.traffic(1, 0, 0x100, 32);
  off.stall(1, 0, 0x100, 9, AccessClass::kLoad);
  EXPECT_EQ(off.register_bank("b", 0), Profiler::kInvalidId);
  EXPECT_EQ(off.register_link("l"), Profiler::kInvalidId);
  off.bank_enqueue(1, Profiler::kInvalidId, 0x100, 1);
  off.link_flits(Profiler::kInvalidId, 4);
  EXPECT_EQ(off.line_count(), 0u);
  ProfileSnapshot s = off.snapshot("off");
  EXPECT_TRUE(s.lines.empty());
  EXPECT_TRUE(s.banks.empty());
  EXPECT_TRUE(s.links.empty());
  EXPECT_EQ(s.total_traffic_bytes, 0u);
}

TEST_F(ProfileTest, JsonIsDeterministicAndParses) {
  auto feed = [](Profiler& p) {
    p.set_mode(ProfileMode::kOn);
    p.set_epoch_cycles(64);
    p.set_block_bytes(32);
    unsigned b = p.register_bank("bank0", 0);
    // Insert lines in non-sorted address order: the snapshot sorts.
    p.access(1, 0, 0x500, 4, AccessClass::kStore);
    p.access(2, 1, 0x100, 4, AccessClass::kLoad);
    p.traffic(2, 0, 0x500, 44);
    p.bank_enqueue(3, b, 0x100, 1);
    p.bank_dequeue(9, b, 0x100, 0);
  };
  Profiler p1, p2;
  feed(p1);
  feed(p2);
  const std::string j1 = profile_json(p1.snapshot("run"), 0);
  const std::string j2 = profile_json(p2.snapshot("run"), 0);
  EXPECT_EQ(j1, j2);

  Jsonv v;
  std::string err;
  ASSERT_TRUE(jsonv_parse(j1, v, err)) << err;
  ASSERT_NE(v.get("lines"), nullptr);
  EXPECT_EQ(v.get("lines")->array.size(), 2u);
  ASSERT_NE(v.get("schema_version"), nullptr);
  EXPECT_EQ(v.get("schema_version")->number, 1.0);
  // Lines come out hottest-first (traffic desc), banks in registration
  // order — both stable across runs.
  const Jsonv& first = v.get("lines")->array[0];
  ASSERT_NE(first.get("block"), nullptr);
  EXPECT_EQ(first.get("block")->string, "0x500");
}

TEST_F(ProfileTest, HottestAndFalseSharedOrdering) {
  pf.access(1, 0, 0x100, 4, AccessClass::kStore);
  pf.access(2, 1, 0x11c, 4, AccessClass::kStore);
  pf.traffic(3, 0, 0x100, 10);
  pf.access(1, 0, 0x200, 4, AccessClass::kStore);
  pf.access(2, 1, 0x21c, 4, AccessClass::kStore);
  pf.traffic(3, 1, 0x200, 99);
  snap = pf.snapshot("test");
  auto hot = snap.hottest(2);
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(hot[0]->block, 0x200u);
  auto fs = snap.top_false_shared(10);
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0]->block, 0x200u);
  EXPECT_EQ(fs[1]->block, 0x100u);
}

TEST_F(ProfileTest, SnapshotReconcilesLineTrafficWithTotals) {
  pf.traffic(1, 0, 0x100, 16);
  pf.traffic(2, 1, 0x200, 48);
  snap = pf.snapshot("test");
  std::uint64_t line_bytes = 0, line_packets = 0;
  for (const auto& l : snap.lines) {
    line_bytes += l.traffic_bytes;
    line_packets += l.packets;
  }
  EXPECT_EQ(line_bytes, snap.total_traffic_bytes);
  EXPECT_EQ(line_packets, snap.total_packets);
}

}  // namespace
}  // namespace ccnoc::sim
