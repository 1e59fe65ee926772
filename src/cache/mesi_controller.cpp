#include "cache/mesi_controller.hpp"

#include <cstring>

namespace ccnoc::cache {

using noc::Grant;
using noc::Message;
using noc::MsgType;
using proto::CacheEvent;

namespace {
/// This engine implements the write-back MESI FSM; bind it to that
/// transition table regardless of the tag the caller left in the config.
CacheConfig mesi_cfg(CacheConfig cfg) {
  cfg.protocol = mem::Protocol::kWbMesi;
  return cfg;
}
}  // namespace

MesiController::MesiController(sim::Simulator& sim, noc::Network& net,
                               const mem::AddressMap& map, sim::NodeId node,
                               std::uint8_t port, CacheConfig cfg, std::string name)
    : CacheController(sim, net, map, node, port, mesi_cfg(cfg), std::move(name)) {
  st_.load_hits = stat("load_hits");
  st_.load_misses = stat("load_misses");
  st_.silent_e_to_m = stat("silent_e_to_m");
  st_.store_hits_em = stat("store_hits_em");
  st_.store_hits_s = stat("store_hits_s");
  st_.store_misses = stat("store_misses");
  st_.wb_buffer_stalls = stat("wb_buffer_stalls");
  st_.writebacks = stat("writebacks");
  st_.upgrade_data_refills = stat("upgrade_data_refills");
  st_.direct_ack_upgrades = stat("direct_ack_upgrades");
  st_.invalidations = stat("invalidations");
  st_.fetches = stat("fetches");
  st_.fetch_invs = stat("fetch_invs");
  st_.fetch_misses = stat("fetch_misses");
  st_.hops_read_miss = stat_histogram("hops.read_miss", 16);
  st_.hops_write_miss = stat_histogram("hops.write_miss", 16);
  st_.hops_write_hit_s = stat_histogram("hops.write_hit_s", 16);
}

AccessResult MesiController::access(const MemAccess& a, std::uint64_t* hit_value,
                                    const CompleteFn& on_complete) {
  CCNOC_ASSERT(pending_ == Pending::kNone, "MESI controller already has a pending access");
  const sim::Addr block = tags_.block_of(a.addr);
  CacheLine* l = tags_.find(block);
  pf_->access(sim_.now(), node_, a.addr, a.size,
              !a.is_store        ? sim::AccessClass::kLoad
              : a.is_atomic()    ? sim::AccessClass::kAtomic
                                 : sim::AccessClass::kStore);

  if (!a.is_store) {
    if (l != nullptr) {
      st_.load_hits->inc();
      tags_.touch(*l);
      *hit_value = read_line(*l, a.addr, a.size);
      return AccessResult::kHit;
    }
    st_.load_misses->inc();
    start_miss(a, on_complete);
    return AccessResult::kPending;
  }

  if (l != nullptr) {
    if (l->state == LineState::kModified || l->state == LineState::kExclusive) {
      // Figure 1: store hit in M costs nothing; store hit in E silently
      // transitions to M (the directory already records us as owner).
      if (l->state == LineState::kExclusive) st_.silent_e_to_m->inc();
      st_.store_hits_em->inc();
      fsm(*l, CacheEvent::kStoreHit);
      std::uint64_t old = 0;
      if (a.is_atomic()) {
        old = read_line(*l, a.addr, a.size);
        *hit_value = old;
      }
      std::uint64_t next = a.atomic == AtomicKind::kAdd ? old + a.value : a.value;
      write_line(*l, a.addr, a.size, next);
      tags_.touch(*l);
      return AccessResult::kHit;
    }
    // Store hit in Shared: blocking upgrade (2 or 4 hops).
    st_.store_hits_s->inc();
    pending_ = Pending::kResponse;
    pending_access_ = a;
    pending_cb_ = on_complete;
    pending_line_ = l;
    pending_is_upgrade_ = true;
    pending_txn_ = next_txn();
    tr_->txn_begin(sim_.now(), pending_txn_, "mesi.upgrade", node_, track_tid(), block);
    lat_->txn_begin(sim_.now(), pending_txn_, "mesi.upgrade", node_);
    // Upgrades launch synchronously; the zero-width mark anchors the phase
    // chain at the send cycle.
    lat_->mark(sim_.now(), pending_txn_, node_, sim::Phase::kWbufWait, sim_.now());
    Message m;
    m.type = MsgType::kUpgrade;
    m.addr = block;
    m.txn = pending_txn_;
    send_to_bank(block, std::move(m));
    return AccessResult::kPending;
  }

  // Store miss: write-allocate with ReadExclusive (up to the paper's
  // Figure 2 six-hop sequence).
  st_.store_misses->inc();
  start_miss(a, on_complete);
  return AccessResult::kPending;
}

void MesiController::start_miss(const MemAccess& a, const CompleteFn& cb) {
  pending_access_ = a;
  pending_cb_ = cb;
  pending_is_upgrade_ = false;

  const sim::Addr block = tags_.block_of(a.addr);
  pf_->miss(sim_.now(), node_, block);
  pending_txn_ = next_txn();
  tr_->txn_begin(sim_.now(), pending_txn_,
                 a.is_store ? "mesi.write_miss" : "mesi.read_miss", node_,
                 track_tid(), block);
  lat_->txn_begin(sim_.now(), pending_txn_,
                  a.is_store ? "mesi.write_miss" : "mesi.read_miss", node_);
  CacheLine& victim = tags_.victim(block);
  if (victim.state == LineState::kModified &&
      wb_buffer_.size() >= cfg_.writeback_buffer_entries) {
    // All write-back buffer entries are awaiting acknowledgement; the miss
    // launches once one frees.
    st_.wb_buffer_stalls->inc();
    pf_->wbuf_stall(sim_.now(), node_, victim.block);
    tr_->txn_note(sim_.now(), pending_txn_, node_, "wb_slot_wait", "wb_buffer",
                  wb_buffer_.size());
    pending_ = Pending::kWbSlot;
    pending_line_ = &victim;
    return;
  }
  if (victim.state == LineState::kModified) {
    do_writeback(victim);
  } else if (victim.state != LineState::kInvalid) {
    fsm(victim, CacheEvent::kEvict);  // silent clean eviction
  }
  pending_line_ = &victim;
  pending_ = Pending::kResponse;
  launch_miss();
}

void MesiController::launch_miss() {
  // Time between txn_begin and this send was write-back-slot wait (zero
  // when the miss launched immediately).
  lat_->mark(sim_.now(), pending_txn_, node_, sim::Phase::kWbufWait, sim_.now());
  const sim::Addr block = tags_.block_of(pending_access_.addr);
  Message m;
  m.type = pending_access_.is_store ? MsgType::kReadExclusive : MsgType::kReadShared;
  m.addr = block;
  m.txn = pending_txn_;
  send_to_bank(block, std::move(m));
}

void MesiController::do_writeback(CacheLine& victim) {
  CCNOC_ASSERT(victim.state == LineState::kModified, "write-back of a clean line");
  st_.writebacks->inc();
  WbEntry& e = wb_buffer_[victim.block];
  e.data = victim.data;

  Message m;
  m.type = MsgType::kWriteBack;
  m.addr = victim.block;
  m.txn = next_txn();
  tr_->txn_begin(sim_.now(), m.txn, "mesi.writeback", node_, track_tid(), victim.block);
  lat_->txn_begin(sim_.now(), m.txn, "mesi.writeback", node_);
  lat_->mark(sim_.now(), m.txn, node_, sim::Phase::kWbufWait, sim_.now());
  m.data_len = std::uint8_t(cfg_.block_bytes);
  std::memcpy(m.data.data(), victim.data.data(), cfg_.block_bytes);
  send_to_bank(victim.block, std::move(m));

  fsm(victim, CacheEvent::kEvictDirty);
}

void MesiController::on_packet(const noc::Packet& pkt) {
  switch (pkt.msg.type) {
    case MsgType::kReadResponse: handle_read_response(pkt); break;
    case MsgType::kUpgradeAck: handle_upgrade_ack(pkt); break;
    case MsgType::kInvalidate: handle_invalidate(pkt); break;
    case MsgType::kFetch: handle_fetch(pkt, /*invalidate=*/false); break;
    case MsgType::kFetchInv: handle_fetch(pkt, /*invalidate=*/true); break;
    case MsgType::kWriteBackAck: handle_writeback_ack(pkt); break;
    case MsgType::kInvalidateAck:
      // A sharer's direct acknowledgement for our in-flight upgrade.
      CCNOC_ASSERT(pending_ == Pending::kResponse && pending_is_upgrade_,
                   "direct ack without an outstanding upgrade");
      ++direct_acks_got_;
      maybe_finish_direct_upgrade();
      break;
    default:
      CCNOC_ASSERT(false, std::string("MESI cache received ") + to_string(pkt.msg.type));
  }
}

void MesiController::handle_read_response(const noc::Packet& pkt) {
  CCNOC_ASSERT(pending_ == Pending::kResponse && !pending_is_upgrade_,
               "unexpected read response");
  CCNOC_ASSERT(pkt.msg.data_len == cfg_.block_bytes, "short read response");
  CacheLine& l = *pending_line_;
  l.block = pkt.msg.addr;
  std::memcpy(l.data.data(), pkt.msg.data.data(), cfg_.block_bytes);
  switch (pkt.msg.grant) {
    case Grant::kShared: fsm(l, CacheEvent::kFillShared); break;
    case Grant::kExclusive: fsm(l, CacheEvent::kFillExclusive); break;
    case Grant::kModified: fsm(l, CacheEvent::kFillModified); break;
  }
  (pending_access_.is_store ? st_.hops_write_miss : st_.hops_read_miss)
      ->add(pkt.msg.path_hops);
  tr_->txn_end(sim_.now(), pending_txn_, node_, pkt.msg.path_hops);
  lat_->txn_end(sim_.now(), pending_txn_, node_);
  finish_pending(l);
}

void MesiController::handle_upgrade_ack(const noc::Packet& pkt) {
  CCNOC_ASSERT(pending_ == Pending::kResponse && pending_is_upgrade_,
               "unexpected upgrade ack");
  if (pkt.msg.ack_count > 0) {
    have_upgrade_ack_ = true;
    direct_acks_needed_ = pkt.msg.ack_count;
    saved_upgrade_msg_ = pkt.msg;
    maybe_finish_direct_upgrade();
    return;
  }
  CacheLine& l = *pending_line_;
  if (pkt.msg.carries_data()) {
    // Our Shared copy was invalidated while the upgrade was in flight; the
    // directory re-supplied the block.
    st_.upgrade_data_refills->inc();
    l.block = pkt.msg.addr;
    std::memcpy(l.data.data(), pkt.msg.data.data(), cfg_.block_bytes);
  } else {
    CCNOC_ASSERT(l.state == LineState::kShared && l.block == pkt.msg.addr,
                 "upgrade ack without data for a lost line");
  }
  st_.hops_write_hit_s->add(pkt.msg.path_hops);
  tr_->txn_end(sim_.now(), pending_txn_, node_, pkt.msg.path_hops);
  lat_->txn_end(sim_.now(), pending_txn_, node_);
  finish_pending(l);
}

void MesiController::maybe_finish_direct_upgrade() {
  if (!have_upgrade_ack_ || direct_acks_got_ < direct_acks_needed_) return;
  st_.direct_ack_upgrades->inc();
  const noc::Message msg = saved_upgrade_msg_;
  have_upgrade_ack_ = false;
  direct_acks_needed_ = 0;
  direct_acks_got_ = 0;

  // Release the bank's per-block transaction lock, then complete locally.
  // Carrying the finishing transaction's id lets the trace tie the unlock
  // to its upgrade.
  Message done;
  done.type = MsgType::kTxnDone;
  done.addr = msg.addr;
  done.txn = msg.txn;
  send_to_bank(msg.addr, std::move(done));

  CacheLine& l = *pending_line_;
  if (msg.carries_data()) {
    st_.upgrade_data_refills->inc();
    l.block = msg.addr;
    std::memcpy(l.data.data(), msg.data.data(), cfg_.block_bytes);
  } else {
    CCNOC_ASSERT(l.state == LineState::kShared && l.block == msg.addr,
                 "direct upgrade ack without data for a lost line");
  }
  st_.hops_write_hit_s->add(msg.path_hops);
  tr_->txn_end(sim_.now(), pending_txn_, node_, msg.path_hops);
  // Direct-ack round: the sharers' acks converge here, not at the bank.
  lat_->mark(sim_.now(), pending_txn_, node_, sim::Phase::kFanoutAcks, sim_.now());
  lat_->txn_end(sim_.now(), pending_txn_, node_);
  finish_pending(l);
}

void MesiController::finish_pending(CacheLine& l) {
  std::uint64_t value = 0;
  if (pending_access_.is_store) {
    // MESI atomics are cache-side: exclusivity is held when the local
    // read-modify-write executes, so the operation is globally atomic.
    std::uint64_t old = 0;
    if (pending_access_.is_atomic()) {
      old = read_line(l, pending_access_.addr, pending_access_.size);
      value = old;
    }
    if (l.state == LineState::kInvalid) {
      // The upgrade lost its Shared copy to a race; the ack re-supplied
      // the block, so this is a write-allocate fill.
      fsm(l, CacheEvent::kFillModified);
    } else if (l.state == LineState::kShared) {
      fsm(l, CacheEvent::kStoreUpgrade);
    } else {
      fsm(l, CacheEvent::kStoreHit);  // E/M granted by the response
    }
    std::uint64_t next = pending_access_.atomic == AtomicKind::kAdd
                             ? old + pending_access_.value
                             : pending_access_.value;
    write_line(l, pending_access_.addr, pending_access_.size, next);
  } else {
    value = read_line(l, pending_access_.addr, pending_access_.size);
  }
  tags_.touch(l);
  pending_ = Pending::kNone;
  pending_line_ = nullptr;
  pending_is_upgrade_ = false;
  auto cb = std::move(pending_cb_);
  pending_cb_ = nullptr;
  cb(value);
}

void MesiController::handle_invalidate(const noc::Packet& pkt) {
  st_.invalidations->inc();
  if (tr_->full()) {
    tr_->instant(sim_.now(), node_, "mesi.invalidate_recv", sim::Tracer::kPidCache,
                 track_tid(), "addr", pkt.msg.addr);
    tr_->txn_note(sim_.now(), pkt.msg.txn, node_, "invalidate", "sharer", node_);
  }
  CacheLine* l = tags_.find(pkt.msg.addr);
  pf_->invalidate_recv(sim_.now(), node_, pkt.msg.addr, l != nullptr);
  if (l != nullptr) {
    CCNOC_ASSERT(l->state == LineState::kShared, "invalidate hit a non-Shared line");
    if (!inject_skip_invalidate()) fsm(*l, CacheEvent::kInvalidate);
  }
  Message ack;
  ack.type = MsgType::kInvalidateAck;
  ack.addr = pkt.msg.addr;
  ack.txn = pkt.msg.txn;
  // Direct-ack rounds (paper §4.2) acknowledge straight to the requester.
  send_to_node(pkt.msg.direct_ack ? pkt.msg.requester : pkt.src, std::move(ack));
}

void MesiController::handle_fetch(const noc::Packet& pkt, bool invalidate) {
  (invalidate ? st_.fetch_invs : st_.fetches)->inc();
  if (tr_->full()) {
    tr_->instant(sim_.now(), node_,
                 invalidate ? "mesi.fetchinv_recv" : "mesi.fetch_recv",
                 sim::Tracer::kPidCache, track_tid(), "addr", pkt.msg.addr);
    tr_->txn_note(sim_.now(), pkt.msg.txn, node_, invalidate ? "fetch_inv" : "fetch",
                  "owner", node_);
  }
  Message resp;
  resp.type = MsgType::kFetchResponse;
  resp.addr = pkt.msg.addr;
  resp.txn = pkt.msg.txn;

  CacheLine* l = tags_.find(pkt.msg.addr);
  if (invalidate) {
    // Losing an owned copy to a FetchInv is an invalidation for sharing
    // analysis: the next miss by this CPU closes a ping-pong.
    pf_->invalidate_recv(sim_.now(), node_, pkt.msg.addr, l != nullptr);
  }
  if (l != nullptr) {
    CCNOC_ASSERT(l->state == LineState::kModified || l->state == LineState::kExclusive,
                 "fetch hit a non-owned line");
    resp.data_len = std::uint8_t(cfg_.block_bytes);
    std::memcpy(resp.data.data(), l->data.data(), cfg_.block_bytes);
    fsm(*l, invalidate ? CacheEvent::kFetchInv : CacheEvent::kFetch);
  } else if (auto it = wb_buffer_.find(pkt.msg.addr); it != wb_buffer_.end()) {
    // The block is in flight to memory; serve the fetch from the write-back
    // buffer (the bank reconciles the duplicate data).
    resp.data_len = std::uint8_t(cfg_.block_bytes);
    std::memcpy(resp.data.data(), it->second.data.data(), cfg_.block_bytes);
  } else {
    // Silently evicted clean Exclusive copy: the memory copy is current;
    // an empty response tells the bank to use its own data.
    st_.fetch_misses->inc();
  }
  send_to_node(pkt.src, std::move(resp));
}

void MesiController::handle_writeback_ack(const noc::Packet& pkt) {
  auto erased = wb_buffer_.erase(tags_.block_of(pkt.msg.addr));
  CCNOC_ASSERT(erased == 1, "write-back ack for unknown block");
  if (tr_->on()) tr_->txn_end(sim_.now(), pkt.msg.txn, node_, pkt.msg.path_hops);
  lat_->txn_end(sim_.now(), pkt.msg.txn, node_);
  if (pending_ == Pending::kWbSlot) {
    CacheLine& victim = *pending_line_;
    if (victim.state == LineState::kModified) {
      do_writeback(victim);
    } else if (victim.state != LineState::kInvalid) {
      // A Fetch/FetchInv downgraded the victim while the miss waited for a
      // write-back slot; what remains is a clean eviction.
      fsm(victim, CacheEvent::kEvict);
    }
    pending_ = Pending::kResponse;
    launch_miss();
  }
}

}  // namespace ccnoc::cache
