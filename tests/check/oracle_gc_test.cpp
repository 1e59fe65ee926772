#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <string>

#include "check/oracle.hpp"

/// The oracle's byte-version-history GC against an oracle that never
/// collects: within the horizon the two must give every load the same
/// verdict, and a byte trimmed back to one version must be trimmed again
/// once later writes give it more.

namespace ccnoc::check {
namespace {

constexpr sim::Addr kBase = 0x1000;
constexpr unsigned kBytes = 16;
constexpr sim::Cycle kHorizon = 4096;
constexpr sim::Cycle kGcEvery = 1024;

TEST(OracleGc, VerdictsInsideTheHorizonMatchAnUncollectedOracle) {
  for (std::uint32_t seed = 1; seed <= 4; ++seed) {
    Oracle collected(mem::Protocol::kWbMesi, 1, 32);
    Oracle reference(mem::Protocol::kWbMesi, 1, 32);
    std::mt19937_64 rng(seed);
    unsigned accepted = 0, rejected = 0;
    sim::Cycle next_gc = kGcEvery;
    for (sim::Cycle now = 1; now < 60'000; now += 1 + rng() % 7) {
      while (next_gc <= now) {
        collected.gc(next_gc, kHorizon);
        next_gc += kGcEvery;
      }
      const sim::Addr a = kBase + rng() % kBytes;
      const unsigned size = 1u << (rng() % 3);  // 1, 2 or 4 bytes
      if (rng() % 3 == 0) {
        // A few distinct values, so bytes often flip back and forth.
        const std::uint64_t v = rng() % 4 * 0x01010101u;
        EXPECT_FALSE(collected.store_commit(0, a, size, v, now));
        EXPECT_FALSE(reference.store_commit(0, a, size, v, now));
        continue;
      }
      // A load issued inside the horizon of the last collection, claiming
      // either a value some store wrote or an arbitrary one.
      const sim::Cycle span = rng() % (kHorizon - kGcEvery);
      const sim::Cycle issued = now > span ? now - span : 0;
      const std::uint64_t v = rng() % 2 == 0 ? rng() % 4 * 0x01010101u : rng();
      const std::uint64_t claimed =
          size >= 8 ? v : v & ((std::uint64_t(1) << (8 * size)) - 1);
      auto want = reference.load_commit(0, a, size, claimed, issued, now);
      auto got = collected.load_commit(0, a, size, claimed, issued, now);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "seed " << seed << " load [" << a << " +" << size << "] = " << claimed
          << " in [" << issued << ", " << now << "]";
      if (want) {
        EXPECT_EQ(*got, *want);
        ++rejected;
      } else {
        ++accepted;
      }
    }
    // Both verdicts must actually occur, or the comparison proves little.
    EXPECT_GT(accepted, 100u) << "seed " << seed;
    EXPECT_GT(rejected, 100u) << "seed " << seed;
  }
}

TEST(OracleGc, AByteTrimmedOnceIsTrimmedAgainAfterNewWrites) {
  Oracle collected(mem::Protocol::kWbMesi, 1, 32);
  Oracle reference(mem::Protocol::kWbMesi, 1, 32);
  auto store = [&](std::uint64_t v, sim::Cycle now) {
    EXPECT_FALSE(collected.store_commit(0, kBase, 1, v, now));
    EXPECT_FALSE(reference.store_commit(0, kBase, 1, v, now));
  };
  store(0x11, 10);
  store(0x22, 20);
  collected.gc(20 + 2 * kHorizon, kHorizon);  // back to one version: 0x22

  // The byte gains versions again; 0x22's interval now ends at t1.
  const sim::Cycle t1 = 3 * kHorizon;
  store(0x33, t1);
  // A load wholly inside 0x22's interval is still legal before the next
  // collection...
  EXPECT_FALSE(collected.load_commit(0, kBase, 1, 0x22, t1 - 5, t1 - 1));
  collected.gc(t1 + 2 * kHorizon, kHorizon);

  // ...and afterwards only the oracle that never collects can vouch for it:
  // the collected history no longer holds 0x22, so the claim is reported.
  EXPECT_FALSE(reference.load_commit(0, kBase, 1, 0x22, t1 - 5, t1 - 1));
  auto got = collected.load_commit(0, kBase, 1, 0x22, t1 - 5, t1 - 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_NE(got->find("matches no SC memory state"), std::string::npos) << *got;
}

TEST(OracleGc, APartlyTrimmedHistoryIsTrimmedFurtherLater) {
  Oracle collected(mem::Protocol::kWbMesi, 1, 32);
  auto store = [&](std::uint64_t v, sim::Cycle now) {
    EXPECT_FALSE(collected.store_commit(0, kBase, 1, v, now));
  };
  const sim::Cycle t0 = 2 * kHorizon;
  store(0x11, 10);
  store(0x22, 20);
  store(0x33, t0);
  // The cutoff falls inside 0x22's interval: 0x11 goes, 0x22 and 0x33 stay.
  collected.gc(t0 + kHorizon / 2, kHorizon);
  EXPECT_FALSE(collected.load_commit(0, kBase, 1, 0x22, t0 - 5, t0 - 1));
  // Once 0x22's interval ends before the cutoff too, it must go as well.
  collected.gc(t0 + 2 * kHorizon, kHorizon);
  EXPECT_TRUE(collected.load_commit(0, kBase, 1, 0x22, t0 - 5, t0 - 1).has_value());
}

}  // namespace
}  // namespace ccnoc::check
