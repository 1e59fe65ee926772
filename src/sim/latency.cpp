#include "sim/latency.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace ccnoc::sim {

const char* to_string(Phase p) {
  switch (p) {
    case Phase::kWbufWait: return "wbuf_wait";
    case Phase::kNocIngress: return "noc_ingress";
    case Phase::kNocTransit: return "noc_transit";
    case Phase::kBankQueue: return "bank_queue";
    case Phase::kDirService: return "dir_service";
    case Phase::kFanoutAcks: return "fanout_acks";
    case Phase::kOwnerFetch: return "owner_fetch";
    case Phase::kRetry: return "retry";
    case Phase::kL2Fill: return "l2_fill";
    case Phase::kL2Recall: return "l2_recall";
    case Phase::kFinish: return "finish";
  }
  return "?";
}

// --- LogHistogram ------------------------------------------------------------

namespace {
/// Sub-bucket precision: 2^kSubBits buckets per power of two above the
/// linear range, i.e. relative quantization error ≤ 2^-kSubBits.
constexpr unsigned kSubBits = 5;
constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;  // 32
}  // namespace

std::size_t LogHistogram::bucket_of(std::uint64_t v) {
  if (v < kSub) return std::size_t(v);
  // exp = position of the MSB (≥ kSubBits); group g ≥ 1 spans [2^exp, 2^(exp+1))
  // with kSub equal-width sub-buckets. Continuous with the linear range:
  // g == 1 has width-1 sub-buckets, so bucket_of(v) == v up to 2*kSub.
  const unsigned exp = 63u - unsigned(std::countl_zero(v));
  const unsigned g = exp - kSubBits + 1;
  const std::uint64_t sub = (v >> (exp - kSubBits)) & (kSub - 1);
  return std::size_t((std::uint64_t(g) << kSubBits) + sub);
}

std::uint64_t LogHistogram::bucket_upper_edge(std::size_t b) {
  if (b < kSub) return std::uint64_t(b);
  const std::uint64_t g = std::uint64_t(b) >> kSubBits;
  const std::uint64_t sub = std::uint64_t(b) & (kSub - 1);
  const std::uint64_t width = std::uint64_t{1} << (g - 1);
  const std::uint64_t low = (kSub + sub) << (g - 1);
  return low + width - 1;
}

void LogHistogram::add(std::uint64_t v) {
  const std::size_t b = bucket_of(v);
  if (buckets_.size() <= b) buckets_.resize(b + 1, 0);
  ++buckets_[b];
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

void LogHistogram::merge(const LogHistogram& o) {
  if (o.count_ == 0) return;
  if (buckets_.size() < o.buckets_.size()) buckets_.resize(o.buckets_.size(), 0);
  for (std::size_t b = 0; b < o.buckets_.size(); ++b) buckets_[b] += o.buckets_[b];
  count_ += o.count_;
  sum_ += o.sum_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

std::uint64_t LogHistogram::percentile(double p) const {
  if (count_ == 0) return 0;
  // Rank convention shared with Sample::percentile: the ceil(p·count)-th
  // smallest observation (1-based), never below the first.
  const double want = std::max(1.0, std::ceil(p * double(count_)));
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    cum += buckets_[b];
    if (double(cum) >= want) {
      return std::min(std::max(bucket_upper_edge(b), min()), max_);
    }
  }
  return max_;
}

// --- hook slow paths ---------------------------------------------------------

void LatencyObservatory::begin_slow(Cycle now, std::uint64_t txn,
                                    const char* kind, NodeId /*node*/) {
  open_.emplace(txn, OpenTxn{kind, now, now, {}});
}

void LatencyObservatory::mark_slow(Cycle /*now*/, std::uint64_t txn, NodeId node,
                                   Phase ph, Cycle boundary) {
  auto it = open_.find(txn);
  if (it == open_.end()) return;  // opened before the observatory was enabled
  OpenTxn& t = it->second;
  // Clamp monotone: a boundary computed before an earlier mark's (e.g. a
  // service completion stamped at enqueue time) never rolls attribution
  // back, it just contributes zero. Telescoping is preserved exactly.
  const Cycle b = std::max(boundary, t.last);
  const std::uint64_t dur = b - t.last;
  t.last = b;
  t.phases[std::size_t(ph)] += dur;
  if (dur != 0) node_phases_[node][std::size_t(ph)] += dur;
}

void LatencyObservatory::end_slow(Cycle now, std::uint64_t txn, NodeId node) {
  auto it = open_.find(txn);
  if (it == open_.end()) return;
  OpenTxn t = it->second;
  open_.erase(it);
  // The residual from the last boundary to completion is the finish phase;
  // clamping end to the boundary keeps phase sums ≡ whole-span exact even
  // if a mark stamped a (future) boundary past the completion cycle.
  const Cycle end = std::max(now, t.last);
  const std::uint64_t finish = end - t.last;
  t.phases[std::size_t(Phase::kFinish)] += finish;
  if (finish != 0) node_phases_[node][std::size_t(Phase::kFinish)] += finish;

  KindStats& k = kinds_[t.kind];
  ++k.count;
  k.total.add(end - t.begin);
  for (std::size_t p = 0; p < kNumPhases; ++p) k.phases[p] += t.phases[p];
  note_offender(txn, t, end);
}

void LatencyObservatory::note_offender(std::uint64_t txn, const OpenTxn& t,
                                       Cycle end) {
  if (top_k_ == 0) return;
  Offender o;
  o.txn = txn;
  o.kind = t.kind;
  o.begin = t.begin;
  o.end = end;
  o.phases = t.phases;
  auto worse = [](const Offender& a, const Offender& b) {
    return a.latency() != b.latency() ? a.latency() > b.latency()
                                      : a.txn < b.txn;
  };
  if (worst_.size() >= top_k_ && !worse(o, worst_.back())) return;
  worst_.insert(std::lower_bound(worst_.begin(), worst_.end(), o, worse), o);
  if (worst_.size() > top_k_) worst_.pop_back();
}

Phase LatencyObservatory::KindStats::dominant() const {
  std::size_t best = 0;
  for (std::size_t p = 1; p < kNumPhases; ++p) {
    if (phases[p] > phases[best]) best = p;
  }
  return Phase(best);
}

}  // namespace ccnoc::sim
