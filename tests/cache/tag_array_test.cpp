#include "cache/tag_array.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ccnoc::cache {
namespace {

CacheConfig cfg(unsigned size = 4096, unsigned block = 32, unsigned ways = 1) {
  CacheConfig c;
  c.size_bytes = size;
  c.block_bytes = block;
  c.ways = ways;
  return c;
}

TEST(CacheConfig, PaperGeometry) {
  CacheConfig c;  // defaults = Table 2
  EXPECT_EQ(c.size_bytes, 4096u);
  EXPECT_EQ(c.block_bytes, 32u);
  EXPECT_EQ(c.ways, 1u);
  EXPECT_EQ(c.num_lines(), 128u);
  EXPECT_EQ(c.num_sets(), 128u);
  EXPECT_EQ(c.write_buffer_entries, 8u);
}

TEST(TagArray, MissThenInstallThenHit) {
  TagArray t(cfg());
  EXPECT_EQ(t.find(0x100), nullptr);
  CacheLine& v = t.victim(0x100);
  v.block = 0x100;
  v.state = LineState::kShared;
  EXPECT_EQ(t.find(0x100), &v);
  EXPECT_EQ(t.valid_lines(), 1u);
}

TEST(TagArray, DirectMappedConflict) {
  TagArray t(cfg());
  // 4096-byte direct-mapped, 32-byte blocks: addresses 4096 apart collide.
  CacheLine& a = t.victim(0x0);
  a.block = 0x0;
  a.state = LineState::kShared;
  CacheLine& b = t.victim(0x1000);
  EXPECT_EQ(&a, &b);  // same set, same (only) way
}

TEST(TagArray, AssociativityAvoidsConflict) {
  TagArray t(cfg(4096, 32, 2));
  CacheLine& a = t.victim(0x0);
  a.block = 0x0;
  a.state = LineState::kShared;
  CacheLine& b = t.victim(0x1000);
  EXPECT_NE(&a, &b);  // second way available
}

TEST(TagArray, LruVictimSelection) {
  TagArray t(cfg(4096, 32, 2));
  CacheLine& a = t.victim(0x0);
  a.block = 0x0;
  a.state = LineState::kShared;
  t.touch(a);
  CacheLine& b = t.victim(0x1000);
  b.block = 0x1000;
  b.state = LineState::kShared;
  t.touch(b);
  t.touch(a);  // a is now most recent
  CacheLine& v = t.victim(0x2000);
  EXPECT_EQ(&v, &b);
}

TEST(TagArray, InvalidWayPreferredOverLru) {
  TagArray t(cfg(4096, 32, 2));
  CacheLine& a = t.victim(0x0);
  a.block = 0x0;
  a.state = LineState::kShared;
  t.touch(a);
  CacheLine& v = t.victim(0x1000);
  EXPECT_EQ(v.state, LineState::kInvalid);
  EXPECT_NE(&v, &a);
}

TEST(TagArray, BlockAlignment) {
  TagArray t(cfg());
  EXPECT_EQ(t.block_of(0x107), 0x100u);
  EXPECT_EQ(t.block_of(0x11f), 0x100u);
  EXPECT_EQ(t.block_of(0x120), 0x120u);
}

TEST(TagArray, InvalidateAllClears) {
  TagArray t(cfg());
  for (sim::Addr a = 0; a < 0x200; a += 32) {
    CacheLine& l = t.victim(a);
    l.block = a;
    l.state = LineState::kModified;
  }
  EXPECT_GT(t.valid_lines(), 0u);
  t.invalidate_all();
  EXPECT_EQ(t.valid_lines(), 0u);
}

// Set counts that are not a power of two take the modulo fallback of the
// set index; the paper's power-of-two geometries take the shift-and-mask.
TEST(TagArray, NonPow2SetCountDirectMapped) {
  TagArray t(cfg(96, 32, 1));  // 3 sets
  CacheLine& a = t.victim(0x0);
  a.block = 0x0;
  a.state = LineState::kShared;
  EXPECT_EQ(&t.victim(3 * 32), &a);  // block 3 maps to set 0
  EXPECT_NE(&t.victim(1 * 32), &a);  // block 1 maps to set 1
  EXPECT_NE(&t.victim(2 * 32), &a);
  EXPECT_EQ(t.find(3 * 32), nullptr);
  EXPECT_EQ(t.find(0x0), &a);
}

TEST(TagArray, NonPow2SetCountLruStaysInSet) {
  TagArray t(cfg(192, 32, 2));  // 2 ways x 3 sets
  auto install = [&](sim::Addr block) -> CacheLine& {
    CacheLine& l = t.victim(block);
    EXPECT_EQ(l.state, LineState::kInvalid);
    l.block = block;
    l.state = LineState::kShared;
    t.touch(l);
    return l;
  };
  CacheLine& other = install(1 * 32);  // set 1: the oldest line overall
  CacheLine& b0 = install(0 * 32);     // set 0
  CacheLine& b3 = install(3 * 32);     // set 0
  t.touch(b0);                         // b3 is now set 0's LRU way
  CacheLine& v = t.victim(6 * 32);     // block 6 maps to set 0
  EXPECT_EQ(&v, &b3);
  EXPECT_NE(&v, &other);
  EXPECT_EQ(t.find(1 * 32), &other);
  EXPECT_EQ(t.find(4 * 32), nullptr);  // set 1, not installed
}

TEST(TagArray, SingleSetFullyAssociative) {
  TagArray t(cfg(128, 32, 4));  // one set: the set mask is 0
  std::vector<CacheLine*> lines;
  for (sim::Addr block : {0x0, 0x1000, 0x20, 0x7fe0}) {
    CacheLine& l = t.victim(block);
    EXPECT_EQ(l.state, LineState::kInvalid);
    l.block = block;
    l.state = LineState::kShared;
    t.touch(l);
    lines.push_back(&l);
  }
  EXPECT_EQ(t.valid_lines(), 4u);
  for (CacheLine* l : lines) EXPECT_EQ(t.find(l->block), l);
  t.touch(*lines[0]);
  EXPECT_EQ(&t.victim(0x40), lines[1]);  // LRU of the whole array
}

TEST(TagArray, RejectsBadGeometry) {
  EXPECT_THROW(TagArray t(cfg(4096, 33, 1)), std::logic_error);   // non-pow2 block
  EXPECT_THROW(TagArray t(cfg(4096, 128, 1)), std::logic_error);  // block > payload
  EXPECT_THROW(TagArray t(cfg(16, 32, 1)), std::logic_error);     // no whole set
}

/// A line whose every byte holds its own index, so any byte a write
/// strays onto shows.
CacheLine patterned_line() {
  CacheLine l;
  for (std::size_t i = 0; i < l.data.size(); ++i) l.data[i] = std::uint8_t(i);
  return l;
}

TEST(TagArray, LineReadsEveryWidthAtBothEndsOfTheBlock) {
  for (unsigned block : {32u, 64u}) {
    TagArray t(cfg(4096, block, 1));
    const CacheLine l = patterned_line();
    const sim::Addr base = 0x1000;
    for (unsigned size : {1u, 2u, 4u, 8u}) {
      for (unsigned off : {0u, block - size}) {
        std::uint64_t want = 0;
        for (unsigned i = 0; i < size; ++i) want |= std::uint64_t(off + i) << (8 * i);
        EXPECT_EQ(t.read(l, base + off, size), want)
            << "block " << block << " size " << size << " offset " << off;
      }
    }
  }
}

TEST(TagArray, LineWritesEveryWidthAndLeavesNeighboursAlone) {
  for (unsigned block : {32u, 64u}) {
    TagArray t(cfg(4096, block, 1));
    const sim::Addr base = 0x1000;
    for (unsigned size : {1u, 2u, 4u, 8u}) {
      for (unsigned off : {0u, block - size}) {
        CacheLine l = patterned_line();
        // The high bytes beyond `size` must not be stored.
        t.write(l, base + off, size, 0xf1f2f3f4f5f6f7f8ull);
        for (unsigned i = 0; i < l.data.size(); ++i) {
          const bool inside = i >= off && i < off + size;
          const std::uint8_t want =
              inside ? std::uint8_t(0xf8 - (i - off)) : std::uint8_t(i);
          ASSERT_EQ(l.data[i], want) << "block " << block << " size " << size
                                     << " offset " << off << " byte " << i;
        }
        EXPECT_EQ(t.read(l, base + off, size),
                  0xf1f2f3f4f5f6f7f8ull & (size == 8 ? ~0ull : (1ull << (8 * size)) - 1));
      }
    }
  }
}

TEST(TagArray, LineAccessOfAnOddWidthKeepsTheVariableCopy) {
  TagArray t(cfg());
  CacheLine l = patterned_line();
  EXPECT_EQ(t.read(l, 0x1005, 3), 0x070605u);
  t.write(l, 0x1005, 3, 0xaabbccddu);
  EXPECT_EQ(l.data[4], 4);
  EXPECT_EQ(l.data[5], 0xdd);
  EXPECT_EQ(l.data[7], 0xbb);
  EXPECT_EQ(l.data[8], 8);
}

TEST(TagArray, LineAccessAcrossTheBlockEndIsRejected) {
  TagArray t(cfg());
  CacheLine l = patterned_line();
  EXPECT_THROW((void)t.read(l, 0x101c, 8), std::logic_error);
  EXPECT_THROW(t.write(l, 0x101f, 2, 0), std::logic_error);
}

}  // namespace
}  // namespace ccnoc::cache
