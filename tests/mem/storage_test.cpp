#include "mem/storage.hpp"

#include <gtest/gtest.h>

namespace ccnoc::mem {
namespace {

TEST(PagedStorage, ReadsZeroBeforeFirstWrite) {
  PagedStorage s;
  EXPECT_EQ(s.read_uint(0x1234, 8), 0u);
  EXPECT_EQ(s.committed_pages(), 0u);
}

TEST(PagedStorage, RoundTripsScalars) {
  PagedStorage s;
  s.write_uint(0x100, 0xdeadbeefcafef00dull, 8);
  EXPECT_EQ(s.read_uint(0x100, 8), 0xdeadbeefcafef00dull);
  s.write_uint(0x200, 0xabcd, 2);
  EXPECT_EQ(s.read_uint(0x200, 2), 0xabcdu);
  EXPECT_EQ(s.read_uint(0x202, 2), 0u);  // adjacent bytes untouched
}

TEST(PagedStorage, BlockRoundTrip) {
  PagedStorage s;
  std::uint8_t in[32], out[32];
  for (int i = 0; i < 32; ++i) in[i] = std::uint8_t(i * 3);
  s.write(0x40, in, 32);
  s.read(0x40, out, 32);
  EXPECT_EQ(std::memcmp(in, out, 32), 0);
}

TEST(PagedStorage, CrossPageAccess) {
  PagedStorage s;
  sim::Addr a = PagedStorage::kPageBytes - 4;  // straddles two pages
  s.write_uint(a, 0x1122334455667788ull, 8);
  EXPECT_EQ(s.read_uint(a, 8), 0x1122334455667788ull);
  EXPECT_EQ(s.committed_pages(), 2u);
}

TEST(PagedStorage, PeekReadsInPlaceAndIsNullForUnwrittenPages) {
  PagedStorage s;
  EXPECT_EQ(s.peek(0x2040), nullptr);
  s.write_uint(0x2044, 0x5a, 1);
  const std::uint8_t* p = s.peek(0x2040);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p[4], 0x5a);
  EXPECT_EQ(p[0], 0);
  // In place: later writes show through, and new pages do not move it.
  s.write_uint(0x2040, 0x7, 1);
  s.write_uint(0x100000, 1, 1);
  EXPECT_EQ(p[0], 0x7);
  EXPECT_EQ(s.peek(0x2fff), p + 0xfbf);
  EXPECT_EQ(s.peek(0x3000), nullptr);
}

TEST(PagedStorage, PartialOverwrite) {
  PagedStorage s;
  s.write_uint(0x300, 0xffffffffffffffffull, 8);
  s.write_uint(0x302, 0x0, 2);
  EXPECT_EQ(s.read_uint(0x300, 8), 0xffffffff0000ffffull);
}

TEST(PagedStorage, SparseFarApartAddresses) {
  PagedStorage s;
  s.write_uint(0, 1, 4);
  s.write_uint(sim::Addr(1) << 30, 2, 4);
  EXPECT_EQ(s.read_uint(0, 4), 1u);
  EXPECT_EQ(s.read_uint(sim::Addr(1) << 30, 4), 2u);
  EXPECT_EQ(s.committed_pages(), 2u);  // only touched pages committed
}

}  // namespace
}  // namespace ccnoc::mem
