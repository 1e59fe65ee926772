#include "cache/icache_controller.hpp"

#include <cstring>

namespace ccnoc::cache {

using noc::Message;
using noc::MsgType;

AccessResult ICacheController::access(const MemAccess& a, std::uint64_t* hit_value,
                                      const CompleteFn& on_complete) {
  CCNOC_ASSERT(!a.is_store, "store issued to the instruction cache");
  CCNOC_ASSERT(!pending_, "I-cache already has a pending fetch");
  const sim::Addr block = tags_.block_of(a.addr);
  if (CacheLine* l = tags_.find(block)) {
    hits_->inc();
    tags_.touch(*l);
    *hit_value = read_line(*l, a.addr, a.size);
    return AccessResult::kHit;
  }
  misses_->inc();
  // Code lines are profiled at refill granularity: one access per miss is
  // enough to mark the line as instruction-only for classification.
  pf_->access(sim_.now(), node_, a.addr, a.size, sim::AccessClass::kIfetch);
  pending_ = true;
  pending_access_ = a;
  pending_cb_ = on_complete;
  pending_txn_ = next_txn();
  tr_->txn_begin(sim_.now(), pending_txn_, "ifetch_miss", node_, track_tid(), block);
  lat_->txn_begin(sim_.now(), pending_txn_, "ifetch_miss", node_);
  lat_->mark(sim_.now(), pending_txn_, node_, sim::Phase::kWbufWait, sim_.now());
  Message m;
  m.type = MsgType::kReadShared;
  m.addr = block;
  m.txn = pending_txn_;
  m.track = false;  // read-only code: not registered in the directory
  send_to_bank(block, std::move(m));
  return AccessResult::kPending;
}

void ICacheController::on_packet(const noc::Packet& pkt) {
  CCNOC_ASSERT(pkt.msg.type == MsgType::kReadResponse,
               std::string("I-cache received ") + to_string(pkt.msg.type));
  CCNOC_ASSERT(pending_, "unexpected I-cache refill");
  CacheLine& l = tags_.victim(pkt.msg.addr);
  // The refill is a real protocol transition: evict the victim and fill
  // through the table so coverage and the model checker see the I-cache's
  // line FSM (caught by ccnoc_lint proto-table-discipline).
  if (l.state != LineState::kInvalid) fsm(l, proto::CacheEvent::kEvict);
  l.block = pkt.msg.addr;
  fsm(l, proto::CacheEvent::kFillShared);
  std::memcpy(l.data.data(), pkt.msg.data.data(), cfg_.block_bytes);
  tags_.touch(l);
  hops_fetch_miss_->add(pkt.msg.path_hops);
  tr_->txn_end(sim_.now(), pending_txn_, node_, pkt.msg.path_hops);
  lat_->txn_end(sim_.now(), pending_txn_, node_);

  std::uint64_t v = read_line(l, pending_access_.addr, pending_access_.size);
  pending_ = false;
  auto cb = std::move(pending_cb_);
  pending_cb_ = nullptr;
  cb(v);
}

}  // namespace ccnoc::cache
