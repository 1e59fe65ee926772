#include "noc/network.hpp"

#include <cstdio>

namespace ccnoc::noc {

bool on_txn_critical_path(MsgType t) {
  switch (t) {
    case MsgType::kReadShared:
    case MsgType::kReadExclusive:
    case MsgType::kUpgrade:
    case MsgType::kWriteWord:
    case MsgType::kAtomicSwap:
    case MsgType::kAtomicAdd:
    case MsgType::kWriteBack:
    case MsgType::kReadResponse:
    case MsgType::kWriteAck:
    case MsgType::kSwapResponse:
    case MsgType::kUpgradeAck:
    case MsgType::kWriteBackAck:
      return true;
    default:
      return false;
  }
}

Network::Network(sim::Simulator& s)
    : sim_(s), tracer_(&s.tracer()), profiler_(&s.profiler()), lat_(&s.latency()) {
  auto& st = sim_.stats();
  bytes_ctr_ = &st.counter("noc.bytes");
  packets_ctr_ = &st.counter("noc.packets");
  for (std::size_t t = 0; t < kNumMsgTypes; ++t) {
    pkt_type_ctr_[t] = &st.counter(std::string("noc.pkt.") + to_string(MsgType(t)));
  }
  latency_sample_ = &st.sample("noc.latency");
}

void Network::attach(sim::NodeId id, Endpoint& ep) {
  if (endpoints_.size() <= id) endpoints_.resize(id + 1, nullptr);
  CCNOC_ASSERT(endpoints_[id] == nullptr, "node attached twice");
  endpoints_[id] = &ep;
}

void Network::enable_stat_shards(std::size_t nodes) {
  CCNOC_ASSERT(total_packets_ == 0, "sharded accounting enabled mid-run");
  shards_.assign(nodes, NodeShard{});
  stats_finalized_ = false;
}

void Network::finalize_stats() {
  if (shards_.empty() || stats_finalized_) return;
  stats_finalized_ = true;
  // Node order: the fold is a canonical function of per-node totals, never
  // of the execution interleaving.
  for (const NodeShard& sh : shards_) {
    total_bytes_ += sh.bytes;
    total_packets_ += sh.packets;
    bytes_ctr_->inc(sh.bytes);
    packets_ctr_->inc(sh.packets);
    for (std::size_t t = 0; t < kNumMsgTypes; ++t) {
      if (sh.per_type[t] != 0) pkt_type_ctr_[t]->inc(sh.per_type[t]);
    }
    latency_sample_->merge(sh.latency);
  }
}

void Network::send(sim::NodeId src, sim::NodeId dst, const Message& msg) {
  CCNOC_ASSERT(src < endpoints_.size() && endpoints_[src] != nullptr, "unknown src node");
  CCNOC_ASSERT(dst < endpoints_.size() && endpoints_[dst] != nullptr, "unknown dst node");
  CCNOC_ASSERT(src != dst, "NoC loopback send");
  Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.msg = msg;
  pkt.sent_at = sim_.now();

  if (shards_.empty()) {
    pkt.id = next_pkt_id_++;
    total_bytes_ += wire_bytes(msg);
    ++total_packets_;
    bytes_ctr_->inc(wire_bytes(msg));
    packets_ctr_->inc();
    pkt_type_ctr_[std::size_t(msg.type)]->inc();
  } else {
    // Parallel run: only the sender's shard is touched, which the sender's
    // domain owns. The packet id is composed from (src, per-src count) so
    // it needs no global counter.
    NodeShard& sh = shards_[src];
    pkt.id = (std::uint64_t(src) << 40) | sh.packets;
    sh.bytes += wire_bytes(msg);
    ++sh.packets;
    ++sh.per_type[std::size_t(msg.type)];
  }
  // Every packet is attributed to the cache line its address falls in (the
  // profiler rounds to a block), so per-line traffic sums exactly to
  // total_bytes_ / total_packets_ in both engines — snapshot() asserts the
  // reconciliation. Under the parallel engine the hook records into the
  // sender's domain shard (same single-writer argument as NodeShard above).
  profiler_->traffic(sim_.now(), src, msg.addr, wire_bytes(msg));

  route(std::move(pkt));
}

void Network::record_latency(sim::NodeId dst, sim::Cycle latency) {
  if (shards_.empty()) {
    latency_sample_->add(double(latency));
  } else {
    shards_[dst].latency.add(double(latency));
  }
}

void Network::schedule_delivery(sim::Cycle when, Packet&& pkt) {
  sim_.schedule_at(when, [this, p = std::move(pkt)]() mutable {
    sim_.trace("noc", [&p] {
      char line[96];
      std::snprintf(line, sizeof line, "%s %u->%u addr=0x%llx", to_string(p.msg.type),
                    unsigned(p.src), unsigned(p.dst),
                    static_cast<unsigned long long>(p.msg.addr));
      return std::string(line);
    });
    if (tracer_->full()) {
      // Delivery-time flow note inside the owning transaction's async span:
      // a miss reads request → directory → fan-out → acks in Perfetto.
      // Recorded at the destination: the delivery event executes in the
      // receiving node's domain.
      tracer_->txn_note(sim_.now(), p.msg.txn, p.dst, to_string(p.msg.type),
                        "src", p.src, "dst", p.dst);
    }
    if (lat_->on()) [[unlikely]] {
      // Everything since the last boundary (ingress on the GMN, the send
      // cycle elsewhere) was fabric transit. Recorded at the destination —
      // the delivery event executes in the receiving node's domain.
      if (p.msg.txn != 0 && on_txn_critical_path(p.msg.type)) {
        lat_->mark(sim_.now(), p.msg.txn, p.dst, sim::Phase::kNocTransit,
                   sim_.now());
      }
    }
    endpoints_[p.dst]->deliver(p);
  });
}

void Network::deliver_at(sim::Cycle when, Packet&& pkt) {
  CCNOC_ASSERT(when >= sim_.now(), "delivery in the past");
  record_latency(pkt.dst, when - pkt.sent_at);
  schedule_delivery(when, std::move(pkt));
}

}  // namespace ccnoc::noc
