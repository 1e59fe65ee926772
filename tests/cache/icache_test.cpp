#include <gtest/gtest.h>

#include "cache/cache_fixture.hpp"

/// The instruction cache's processor port: a miss fills through the bank,
/// a hit is counted and refreshes LRU but returns no fetched word.

namespace ccnoc::cache {
namespace {

class ICache : public test::CachePairFixture {
 protected:
  ICache() : CachePairFixture(mem::Protocol::kWti) {}

  CacheController& icache() { return nodes[0]->icache(); }

  AccessResult fetch(sim::Addr a, std::uint64_t* hit_value) {
    MemAccess m;
    m.addr = a;
    return icache().access(m, hit_value, [](std::uint64_t) {});
  }

  std::uint64_t stat(const std::string& suffix) {
    return sim.stats().counter_value("cpu0.icache." + suffix);
  }
};

TEST_F(ICache, HitCountsAndTouchesButLeavesTheHitValueAlone) {
  bank.storage().write_uint(0x8000, 0x1234, 4);
  std::uint64_t v = 0;
  ASSERT_EQ(fetch(0x8000, &v), AccessResult::kPending);
  sim.run_to_completion();
  EXPECT_EQ(stat("misses"), 1u);

  const CacheLine* l = icache().tags().find(0x8000);
  ASSERT_NE(l, nullptr);
  const std::uint64_t lru_after_fill = l->lru;
  constexpr std::uint64_t kUntouched = 0xdeadbeefcafef00dull;
  v = kUntouched;
  EXPECT_EQ(fetch(0x8004, &v), AccessResult::kHit);
  EXPECT_EQ(v, kUntouched);
  EXPECT_EQ(stat("hits"), 1u);
  EXPECT_GT(l->lru, lru_after_fill);
}

}  // namespace
}  // namespace ccnoc::cache
