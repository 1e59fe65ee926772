#include "noc/gmn.hpp"

#include <algorithm>

#include "sim/parallel.hpp"

namespace ccnoc::noc {

void GmnNetwork::route(Packet&& pkt) {
  const sim::Cycle flits = flits_of(pkt);
  const sim::Cycle now = sim_.now();
  PortState& sp = ports_[pkt.src];

  // Ingress port: serialize behind earlier packets from the same source.
  const sim::Cycle in_start = std::max(now, sp.ingress_free);
  sp.ingress_free = in_start + flits;

  // Fabric traversal. fabric_done >= now + flits + min_latency, which is the
  // conservative engine's safety margin: an egress event posted here can
  // never land inside the epoch that posted it.
  const sim::Cycle fabric_done = in_start + flits + cfg_.min_latency;

  if (tracer_->on()) {
    // Attribute flits to the epoch in which the ingress port carries them.
    tracer_->add_link_flits(link_in_[pkt.src], in_start, flits);
  }
  if (profiler_->on()) [[unlikely]] {
    profiler_->link_flits(plink_in_[pkt.src], flits);
  }
  if (lat_->on()) [[unlikely]] {
    // Send→in_start is ingress-port queueing behind earlier packets from
    // this source. Recorded at the source — route() runs in its domain.
    if (pkt.msg.txn != 0 && on_txn_critical_path(pkt.msg.type)) {
      lat_->mark(now, pkt.msg.txn, pkt.src, sim::Phase::kNocIngress, in_start);
    }
  }

  // Hand the packet across the fabric as a keyed egress event. The key —
  // (source node, per-source sequence) — is a pure function of this node's
  // send history, so the destination queue merges same-cycle exits from
  // different sources into one canonical order no matter how the platform
  // is partitioned. Per-source sequences are monotone, which also preserves
  // per-flow FIFO order.
  const std::uint64_t seq = sp.fabric_seq++;
  const sim::NodeId src = pkt.src;
  const sim::NodeId dst = pkt.dst;
  auto arrive = [this, flits, p = std::move(pkt)]() mutable {
    egress(flits, std::move(p));
  };
  if (cross_post_) {
    cross_post_(src, dst, fabric_done, seq, std::move(arrive));
  } else {
    sim_.schedule_keyed(fabric_done, sim::cross_order_key(src, seq),
                        std::move(arrive));
  }
}

void GmnNetwork::egress(sim::Cycle flits, Packet&& pkt) {
  const sim::Cycle now = sim_.now();  // == fabric_done of this packet
  PortState& dp = ports_[pkt.dst];

  // Egress port: serialize behind earlier packets to the same destination.
  const sim::Cycle before = dp.egress_free > now ? dp.egress_free - now : 0;
  const sim::Cycle out_start = std::max(now, dp.egress_free);
  dp.egress_free = out_start + flits;
  const sim::Cycle arrival = out_start + flits;

  if (tracer_->on()) {
    tracer_->add_link_flits(link_out_[pkt.dst], out_start, flits);
  }
  if (profiler_->on()) [[unlikely]] {
    profiler_->link_flits(plink_out_[pkt.dst], flits);
  }

  // FIFO overflow pressure. The busy-until reservation already charges the
  // queueing delay; this statistic surfaces saturation: flit-cycles of
  // egress backlog beyond the FIFO's capacity (the FIFO itself plus the
  // packet currently serializing out). Each packet is charged only the NEW
  // excess it adds — the growth from `before` to `after` past the allowance
  // — never the standing backlog earlier packets were already charged for,
  // so one flit-cycle of congestion is counted exactly once.
  const sim::Cycle after = dp.egress_free - now;
  const sim::Cycle capacity = sim::Cycle(cfg_.fifo_depth) + flits;
  const sim::Cycle base = std::max(before, capacity);
  if (after > base) {
    const sim::Cycle excess = after - base;
    if (stat_shards_on()) {
      dp.overflow += excess;
    } else {
      fifo_overflow_ctr_->inc(excess);
    }
  }

  record_latency(pkt.dst, arrival - pkt.sent_at);
  schedule_delivery(arrival, std::move(pkt));
}

void GmnNetwork::finalize_stats() {
  if (stat_shards_on() && !overflow_finalized_) {
    overflow_finalized_ = true;
    for (const PortState& p : ports_) {
      if (p.overflow != 0) fifo_overflow_ctr_->inc(p.overflow);
    }
  }
  Network::finalize_stats();
}

}  // namespace ccnoc::noc
