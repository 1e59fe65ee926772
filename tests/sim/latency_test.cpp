#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/jsonv.hpp"
#include "sim/latency.hpp"

/// Unit tests for the latency observatory primitives: the HDR-style
/// LogHistogram (golden accuracy against known distributions) and the
/// telescoping phase-attribution machinery (phase sums ≡ whole-span by
/// construction, boundary clamping, top-K ordering).

namespace ccnoc::sim {
namespace {

// --- LogHistogram ------------------------------------------------------------

TEST(LogHistogram, EmptyIsZeroEverywhere) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0.50), 0u);
  EXPECT_EQ(h.percentile(0.999), 0u);
}

TEST(LogHistogram, ExactThroughLinearAndFirstGroup) {
  // Exact below 32 by the linear range; exact up to 63 because group 1's
  // sub-buckets have width 1 (continuity with the linear range).
  for (std::uint64_t v = 0; v < 64; ++v) {
    EXPECT_EQ(LogHistogram::bucket_of(v), std::size_t(v)) << v;
    EXPECT_EQ(LogHistogram::bucket_upper_edge(std::size_t(v)), v) << v;
  }
}

TEST(LogHistogram, BucketMappingMonotoneAndTight) {
  // Sweep magnitudes up to the top of the 64-bit range: bucket indices are
  // monotone, every value lands at or below its bucket's upper edge, and the
  // quantization error is bounded by 1/32 (kSubBits = 5).
  std::vector<std::uint64_t> values;
  for (unsigned e = 0; e < 63; ++e) {
    for (std::uint64_t off : {std::uint64_t{0}, std::uint64_t{1},
                              (std::uint64_t{1} << e) / 3,
                              (std::uint64_t{1} << e) - 1}) {
      values.push_back((std::uint64_t{1} << e) + off);
    }
  }
  std::sort(values.begin(), values.end());
  std::size_t prev = 0;
  for (std::uint64_t v : values) {
    const std::size_t b = LogHistogram::bucket_of(v);
    EXPECT_GE(b, prev) << v;
    prev = b;
    const std::uint64_t edge = LogHistogram::bucket_upper_edge(b);
    EXPECT_GE(edge, v) << v;
    EXPECT_LE(edge - v, v / 32) << v;
  }
}

TEST(LogHistogram, BucketEdgesPartitionTheRange) {
  // Consecutive buckets tile the value line with no gaps and no overlaps:
  // upper_edge(b) + 1 must land in bucket b + 1.
  std::uint64_t edge = 0;
  for (std::size_t b = 0; b < 512; ++b) {
    edge = LogHistogram::bucket_upper_edge(b);
    EXPECT_EQ(LogHistogram::bucket_of(edge), b) << b;
    EXPECT_EQ(LogHistogram::bucket_of(edge + 1), b + 1) << b;
  }
}

TEST(LogHistogram, SmallSetPercentilesAreExact) {
  // Values below 32 are bucketed exactly, so percentiles are the true order
  // statistics under the ceil(p*count) rank convention.
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 10; ++v) h.add(v);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.sum(), 55u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 10u);
  EXPECT_DOUBLE_EQ(h.mean(), 5.5);
  EXPECT_EQ(h.percentile(0.50), 5u);   // ceil(5.0) = 5th smallest
  EXPECT_EQ(h.percentile(0.90), 9u);
  EXPECT_EQ(h.percentile(0.99), 10u);  // ceil(9.9) = 10th smallest
  EXPECT_EQ(h.percentile(0.001), 1u);  // never below the first
}

TEST(LogHistogram, UniformDistributionTailWithinRelativeError) {
  // Golden distribution: 1..100000 uniform. Every percentile estimate must
  // sit within the 1/32 (~3.2%) quantization bound of the true order
  // statistic, at every magnitude the distribution spans.
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 100'000; ++v) h.add(v);
  for (double p : {0.50, 0.90, 0.99, 0.999}) {
    const auto truth = std::uint64_t(p * 100'000);
    const std::uint64_t est = h.percentile(p);
    EXPECT_GE(est, truth) << p;  // upper-edge estimator never undershoots
    EXPECT_LE(est - truth, truth / 32 + 1) << p;
  }
  EXPECT_EQ(h.percentile(1.0), 100'000u);
}

TEST(LogHistogram, LargeMagnitudesDoNotFold) {
  // The full 64-bit range is representable — nothing saturates into an
  // overflow bucket (the failure mode satellite 1 fixed in sim::Histogram).
  LogHistogram h;
  const std::uint64_t big = (std::uint64_t{1} << 40) + 12345;
  h.add(3);
  h.add(big);
  EXPECT_EQ(h.max(), big);
  const std::uint64_t p99 = h.percentile(0.99);
  EXPECT_GE(p99, big);
  EXPECT_LE(p99 - big, big / 32);
}

TEST(LogHistogram, MergeMatchesCombinedAdds) {
  LogHistogram a, b, all;
  for (std::uint64_t v = 1; v <= 500; ++v) {
    ((v % 2 == 0) ? a : b).add(v * 7);
    all.add(v * 7);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.sum(), all.sum());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  for (double p : {0.10, 0.50, 0.90, 0.99, 0.999}) {
    EXPECT_EQ(a.percentile(p), all.percentile(p)) << p;
  }
  LogHistogram empty;
  a.merge(empty);  // merging an empty histogram is a no-op
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.min(), all.min());
}

// --- LatencyObservatory ------------------------------------------------------

TEST(LatencyObservatory, OffModeRecordsNothing) {
  LatencyObservatory lat;  // default kOff
  EXPECT_FALSE(lat.on());
  lat.txn_begin(100, 1, "k", 0);
  lat.mark(110, 1, 0, Phase::kNocTransit, 110);
  lat.txn_end(120, 1, 0);
  EXPECT_EQ(lat.open_count(), 0u);
  EXPECT_TRUE(lat.kinds().empty());
  EXPECT_TRUE(lat.node_phases().empty());
  EXPECT_TRUE(lat.worst().empty());
}

TEST(LatencyObservatory, PhasesTelescopeToWholeSpan) {
  LatencyObservatory lat;
  lat.set_mode(LatencyMode::kOn);
  lat.txn_begin(100, 7, "load", 0);
  EXPECT_EQ(lat.open_count(), 1u);
  lat.mark(110, 7, 0, Phase::kNocIngress, 110);
  lat.mark(130, 7, 3, Phase::kNocTransit, 130);
  lat.mark(135, 7, 3, Phase::kBankQueue, 135);
  lat.txn_end(150, 7, 0);
  EXPECT_EQ(lat.open_count(), 0u);

  ASSERT_EQ(lat.kinds().count("load"), 1u);
  const auto& k = lat.kinds().at("load");
  EXPECT_EQ(k.count, 1u);
  EXPECT_EQ(k.phases[std::size_t(Phase::kNocIngress)], 10u);
  EXPECT_EQ(k.phases[std::size_t(Phase::kNocTransit)], 20u);
  EXPECT_EQ(k.phases[std::size_t(Phase::kBankQueue)], 5u);
  EXPECT_EQ(k.phases[std::size_t(Phase::kFinish)], 15u);
  std::uint64_t total = 0;
  for (std::uint64_t p : k.phases) total += p;
  EXPECT_EQ(total, 50u);  // exactly end - begin
  EXPECT_EQ(k.total.count(), 1u);
  EXPECT_EQ(k.total.sum(), 50u);
  EXPECT_EQ(k.dominant(), Phase::kNocTransit);
}

TEST(LatencyObservatory, StaleBoundaryClampsToZeroNotNegative) {
  LatencyObservatory lat;
  lat.set_mode(LatencyMode::kOn);
  lat.txn_begin(100, 1, "k", 0);
  lat.mark(120, 1, 0, Phase::kDirService, 120);
  // A boundary computed before the current one (e.g. stamped at enqueue
  // time) contributes zero — attribution never rolls backwards.
  lat.mark(125, 1, 0, Phase::kBankQueue, 110);
  lat.txn_end(120, 1, 0);
  const auto& k = lat.kinds().at("k");
  EXPECT_EQ(k.phases[std::size_t(Phase::kDirService)], 20u);
  EXPECT_EQ(k.phases[std::size_t(Phase::kBankQueue)], 0u);
  EXPECT_EQ(k.phases[std::size_t(Phase::kFinish)], 0u);
  EXPECT_EQ(k.total.sum(), 20u);
}

TEST(LatencyObservatory, EndClampsToLastBoundary) {
  // A mark may stamp a boundary past the completion cycle (service end
  // computed at enqueue); txn_end clamps so the span still telescopes.
  LatencyObservatory lat;
  lat.set_mode(LatencyMode::kOn);
  lat.txn_begin(100, 1, "k", 0);
  lat.mark(120, 1, 2, Phase::kDirService, 200);
  lat.txn_end(150, 1, 0);
  const auto& k = lat.kinds().at("k");
  EXPECT_EQ(k.phases[std::size_t(Phase::kDirService)], 100u);
  EXPECT_EQ(k.phases[std::size_t(Phase::kFinish)], 0u);
  EXPECT_EQ(k.total.sum(), 100u);
  ASSERT_EQ(lat.worst().size(), 1u);
  EXPECT_EQ(lat.worst()[0].latency(), 100u);
}

TEST(LatencyObservatory, UnknownTxnMarksAreSilentNoOps) {
  LatencyObservatory lat;
  lat.set_mode(LatencyMode::kOn);
  lat.mark(110, 42, 0, Phase::kNocTransit, 110);
  lat.txn_end(120, 42, 0);
  EXPECT_EQ(lat.open_count(), 0u);
  EXPECT_TRUE(lat.kinds().empty());
  EXPECT_TRUE(lat.node_phases().empty());
  EXPECT_TRUE(lat.worst().empty());
}

TEST(LatencyObservatory, NodeAttributionOnlyForNonZeroDurations) {
  LatencyObservatory lat;
  lat.set_mode(LatencyMode::kOn);
  lat.txn_begin(100, 1, "k", 5);
  lat.mark(100, 1, 6, Phase::kNocIngress, 100);  // zero-width: no node entry
  lat.mark(130, 1, 7, Phase::kNocTransit, 130);
  lat.txn_end(140, 1, 8);
  ASSERT_EQ(lat.node_phases().count(6), 0u);
  ASSERT_EQ(lat.node_phases().count(7), 1u);
  EXPECT_EQ(lat.node_phases().at(7)[std::size_t(Phase::kNocTransit)], 30u);
  ASSERT_EQ(lat.node_phases().count(8), 1u);
  EXPECT_EQ(lat.node_phases().at(8)[std::size_t(Phase::kFinish)], 10u);
}

TEST(LatencyObservatory, TopKKeepsSlowestSortedWithTxnTiebreak) {
  LatencyObservatory lat;
  lat.set_mode(LatencyMode::kOn);
  lat.set_top_k(3);
  const std::uint64_t latencies[] = {10, 30, 20, 30, 5};
  for (std::uint64_t i = 0; i < 5; ++i) {
    lat.txn_begin(1000, i + 1, "k", 0);
    lat.txn_end(1000 + latencies[i], i + 1, 0);
  }
  ASSERT_EQ(lat.worst().size(), 3u);
  EXPECT_EQ(lat.worst()[0].latency(), 30u);
  EXPECT_EQ(lat.worst()[0].txn, 2u);  // equal latencies: lower txn id first
  EXPECT_EQ(lat.worst()[1].latency(), 30u);
  EXPECT_EQ(lat.worst()[1].txn, 4u);
  EXPECT_EQ(lat.worst()[2].latency(), 20u);
  EXPECT_EQ(lat.worst()[2].txn, 3u);
}

TEST(LatencyObservatory, TopKZeroDisablesOffenderTable) {
  LatencyObservatory lat;
  lat.set_mode(LatencyMode::kOn);
  lat.set_top_k(0);
  lat.txn_begin(0, 1, "k", 0);
  lat.txn_end(100, 1, 0);
  EXPECT_TRUE(lat.worst().empty());
  EXPECT_EQ(lat.kinds().at("k").count, 1u);  // aggregates still recorded
}

/// Drive one synthetic multi-transaction schedule through an observatory.
/// Hooks arrive in nondecreasing cycle order, as the simulator guarantees.
void drive(LatencyObservatory& lat) {
  lat.txn_begin(100, 1, "load", 0);
  lat.txn_begin(101, 2, "store", 1);
  lat.mark(105, 1, 0, Phase::kNocIngress, 105);
  lat.mark(105, 2, 1, Phase::kWbufWait, 103);
  lat.mark(120, 1, 3, Phase::kBankQueue, 118);
  lat.mark(122, 2, 3, Phase::kNocTransit, 122);
  lat.mark(130, 2, 3, Phase::kDirService, 130);
  lat.txn_end(140, 1, 0);
  lat.txn_end(151, 2, 1);
}

TEST(LatencyObservatory, JsonIsValidAndCarriesSchema) {
  LatencyObservatory lat;
  lat.set_mode(LatencyMode::kOn);
  drive(lat);
  const std::string j = latency_json(lat);
  ASSERT_FALSE(j.empty());
  EXPECT_EQ(j.back(), '\n');

  Jsonv v;
  std::string err;
  ASSERT_TRUE(jsonv_parse(j, v, err)) << err;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.get("schema_version")->number, 1.0);
  ASSERT_NE(v.get("kind"), nullptr);
  ASSERT_NE(v.get("phases"), nullptr);
  EXPECT_EQ(v.get("phases")->array.size(), std::size_t(kNumPhases));
  ASSERT_NE(v.get("transactions"), nullptr);
  EXPECT_EQ(v.get("transactions")->object.size(), 2u);  // load + store
  ASSERT_NE(v.get("worst"), nullptr);
  EXPECT_EQ(v.get("worst")->array.size(), 2u);
  EXPECT_NE(v.get("summary"), nullptr);
  EXPECT_NE(v.get("nodes"), nullptr);
}

TEST(LatencyObservatory, JsonEscapesKindNames) {
  LatencyObservatory lat;
  lat.set_mode(LatencyMode::kOn);
  const char* kind = "lo\"ad\n";
  lat.txn_begin(100, 1, kind, 0);
  lat.txn_end(140, 1, 0);
  const std::string j = latency_json(lat);
  Jsonv v;
  std::string err;
  ASSERT_TRUE(jsonv_parse(j, v, err)) << err << "\n" << j;
  ASSERT_NE(v.get("transactions")->get(kind), nullptr) << j;
  ASSERT_EQ(v.get("worst")->array.size(), 1u);
  EXPECT_EQ(v.get("worst")->array[0].get("kind")->string, kind);
}

}  // namespace
}  // namespace ccnoc::sim
