#include "cache/wti_controller.hpp"

#include <cstring>

namespace ccnoc::cache {

using noc::Message;
using noc::MsgType;
using proto::CacheEvent;

namespace {
/// This engine implements the write-through FSMs; a stray write-back
/// protocol tag would bind it to the wrong transition table.
CacheConfig write_through_cfg(CacheConfig cfg) {
  if (!mem::is_write_through(cfg.protocol)) cfg.protocol = mem::Protocol::kWti;
  return cfg;
}
}  // namespace

WtiController::WtiController(sim::Simulator& sim, noc::Network& net,
                             const mem::AddressMap& map, sim::NodeId node,
                             std::uint8_t port, CacheConfig cfg, std::string name)
    : CacheController(sim, net, map, node, port, write_through_cfg(cfg), std::move(name)) {
  st_.load_hits = stat("load_hits");
  st_.load_misses = stat("load_misses");
  st_.load_drain_waits = stat("load_drain_waits");
  st_.atomic_swaps = stat("atomic_swaps");
  st_.wbuf_full_stalls = stat("wbuf_full_stalls");
  st_.store_hits = stat("store_hits");
  st_.store_misses = stat("store_misses");
  st_.direct_ack_writes = stat("direct_ack_writes");
  st_.explicit_drains = stat("explicit_drains");
  st_.updates = stat("updates");
  st_.invalidations = stat("invalidations");
  st_.wbuf_occupancy = stat_sample("wbuf_occupancy");
  st_.hops_read_miss = stat_histogram("hops.read_miss", 16);
  st_.hops_write_through = stat_histogram("hops.write_through", 16);
  st_.hops_atomic_swap = stat_histogram("hops.atomic_swap", 16);
}

AccessResult WtiController::access(const MemAccess& a, std::uint64_t* hit_value,
                                   const CompleteFn& on_complete) {
  CCNOC_ASSERT(pending_ == Pending::kNone, "WTI controller already has a pending access");
  const sim::Addr block = tags_.block_of(a.addr);
  pf_->access(sim_.now(), node_, a.addr, a.size,
              !a.is_store        ? sim::AccessClass::kLoad
              : a.is_atomic()    ? sim::AccessClass::kAtomic
                                 : sim::AccessClass::kStore);

  if (!a.is_store) {
    if (CacheLine* l = tags_.find(block)) {
      st_.load_hits->inc();
      tags_.touch(*l);
      *hit_value = read_line(*l, a.addr, a.size);
      return AccessResult::kHit;
    }
    st_.load_misses->inc();
    pf_->miss(sim_.now(), node_, block);
    pending_access_ = a;
    pending_cb_ = on_complete;
    pending_txn_ = next_txn();
    tr_->txn_begin(sim_.now(), pending_txn_, "wti.load_miss", node_, track_tid(),
                   block);
    lat_->txn_begin(sim_.now(), pending_txn_, "wti.load_miss", node_);
    if (cfg_.drain_on_load_miss && !wbuf_.empty()) {
      // Sequential consistency: older buffered writes become globally
      // visible before this read is ordered.
      pending_ = Pending::kLoadDrain;
      st_.load_drain_waits->inc();
      pf_->wbuf_stall(sim_.now(), node_, a.addr);
      tr_->txn_note(sim_.now(), pending_txn_, node_, "drain_wait", "wbuf",
                    wbuf_.size());
    } else {
      pending_ = Pending::kLoadResponse;
      issue_read();
    }
    return AccessResult::kPending;
  }

  if (a.is_atomic()) {
    // Atomics execute at the bank (blocking). The local copy is dropped —
    // the bank treats the requester like any other sharer — and ordering
    // with older buffered writes is preserved by draining first.
    st_.atomic_swaps->inc();
    if (CacheLine* l = tags_.find(block)) fsm(*l, CacheEvent::kAtomicIssue);
    pending_access_ = a;
    pending_cb_ = on_complete;
    pending_txn_ = next_txn();
    tr_->txn_begin(sim_.now(), pending_txn_, "wti.atomic", node_, track_tid(), block);
    lat_->txn_begin(sim_.now(), pending_txn_, "wti.atomic", node_);
    if (!wbuf_.empty()) {
      pending_ = Pending::kSwapDrain;
      tr_->txn_note(sim_.now(), pending_txn_, node_, "drain_wait", "wbuf",
                    wbuf_.size());
    } else {
      pending_ = Pending::kSwapResponse;
      issue_swap();
    }
    return AccessResult::kPending;
  }

  // Store: non-blocking through the write buffer unless it is full.
  if (wbuf_.size() >= cfg_.write_buffer_entries) {
    st_.wbuf_full_stalls->inc();
    pf_->wbuf_stall(sim_.now(), node_, a.addr);
    tr_->instant(sim_.now(), node_, "wti.wbuf_full", sim::Tracer::kPidCache,
                 track_tid(), "addr", a.addr);
    pending_ = Pending::kStoreBuffer;
    pending_access_ = a;
    pending_cb_ = on_complete;
    return AccessResult::kPending;
  }
  perform_store(a);
  return AccessResult::kHit;
}

void WtiController::perform_store(const MemAccess& a) {
  const sim::Addr block = tags_.block_of(a.addr);
  if (CacheLine* l = tags_.find(block)) {
    // Write-through with local update on hit: the copy stays Valid and the
    // directory will not invalidate the writer.
    st_.store_hits->inc();
    fsm(*l, CacheEvent::kStoreHit);
    write_line(*l, a.addr, a.size, a.value);
    tags_.touch(*l);
  } else {
    st_.store_misses->inc();  // no-allocate
  }
  wbuf_.push_back(BufEntry{a.addr, a.size, a.value});
  st_.wbuf_occupancy->add(double(wbuf_.size()));
  start_drain();
}

void WtiController::start_drain() {
  if (drain_in_flight_ || wbuf_.empty()) return;
  const BufEntry& e = wbuf_.front();
  Message m;
  m.type = MsgType::kWriteWord;
  m.addr = e.addr;
  m.access_size = e.size;
  m.data_len = e.size;
  m.txn = drain_txn_ = next_txn();
  tr_->txn_begin(sim_.now(), drain_txn_, "wti.write_through", node_, track_tid(),
                 e.addr);
  lat_->txn_begin(sim_.now(), drain_txn_, "wti.write_through", node_);
  // Buffered stores launch the moment the port frees, so their wbuf wait is
  // structurally zero; the mark anchors the phase chain at the send cycle.
  lat_->mark(sim_.now(), drain_txn_, node_, sim::Phase::kWbufWait, sim_.now());
  std::memcpy(m.data.data(), &e.value, e.size);
  drain_in_flight_ = true;
  send_to_bank(e.addr, std::move(m));
}

void WtiController::issue_read() {
  // Everything between txn_begin and this send was write-buffer drain wait
  // (zero when the miss issued immediately).
  lat_->mark(sim_.now(), pending_txn_, node_, sim::Phase::kWbufWait, sim_.now());
  Message m;
  m.type = MsgType::kReadShared;
  m.addr = tags_.block_of(pending_access_.addr);
  m.txn = pending_txn_;
  send_to_bank(m.addr, std::move(m));
}

void WtiController::issue_swap() {
  lat_->mark(sim_.now(), pending_txn_, node_, sim::Phase::kWbufWait, sim_.now());
  Message m;
  m.type = pending_access_.atomic == AtomicKind::kAdd ? MsgType::kAtomicAdd
                                                      : MsgType::kAtomicSwap;
  m.addr = pending_access_.addr;
  m.access_size = pending_access_.size;
  m.data_len = pending_access_.size;
  m.txn = pending_txn_;
  std::memcpy(m.data.data(), &pending_access_.value, pending_access_.size);
  send_to_bank(m.addr, std::move(m));
}

void WtiController::on_packet(const noc::Packet& pkt) {
  switch (pkt.msg.type) {
    case MsgType::kReadResponse: handle_read_response(pkt); break;
    case MsgType::kWriteAck: handle_write_ack(pkt); break;
    case MsgType::kSwapResponse: handle_swap_response(pkt); break;
    case MsgType::kInvalidate: handle_invalidate(pkt); break;
    case MsgType::kUpdateWord: handle_update(pkt); break;
    case MsgType::kInvalidateAck:
      // A sharer's direct acknowledgement for our in-flight write.
      CCNOC_ASSERT(drain_in_flight_, "direct ack without an outstanding write");
      ++direct_acks_got_;
      maybe_finish_direct_write();
      break;
    default:
      CCNOC_ASSERT(false, std::string("WTI cache received ") + to_string(pkt.msg.type));
  }
}

void WtiController::handle_read_response(const noc::Packet& pkt) {
  CCNOC_ASSERT(pending_ == Pending::kLoadResponse, "unexpected read response");
  CCNOC_ASSERT(pkt.msg.data_len == cfg_.block_bytes, "short read response");
  CacheLine& l = tags_.victim(pkt.msg.addr);
  if (l.state != LineState::kInvalid) fsm(l, CacheEvent::kEvict);
  l.block = pkt.msg.addr;
  fsm(l, CacheEvent::kFillShared);  // "Valid"
  std::memcpy(l.data.data(), pkt.msg.data.data(), cfg_.block_bytes);
  tags_.touch(l);

  st_.hops_read_miss->add(pkt.msg.path_hops);
  tr_->txn_end(sim_.now(), pending_txn_, node_, pkt.msg.path_hops);
  lat_->txn_end(sim_.now(), pending_txn_, node_);
  std::uint64_t v = read_line(l, pending_access_.addr, pending_access_.size);
  pending_ = Pending::kNone;
  auto cb = std::move(pending_cb_);
  pending_cb_ = nullptr;
  cb(v);
}

void WtiController::handle_write_ack(const noc::Packet& pkt) {
  CCNOC_ASSERT(drain_in_flight_ && !wbuf_.empty(), "stray write ack");
  if (pkt.msg.ack_count > 0) {
    // Direct-ack round: sharers acknowledge straight to us; the write is
    // performed once response + all acks have arrived.
    have_write_ack_ = true;
    direct_acks_needed_ = pkt.msg.ack_count;
    saved_ack_hops_ = pkt.msg.path_hops;
    maybe_finish_direct_write();
    return;
  }
  st_.hops_write_through->add(pkt.msg.path_hops);
  tr_->txn_end(sim_.now(), pkt.msg.txn, node_, pkt.msg.path_hops);
  lat_->txn_end(sim_.now(), pkt.msg.txn, node_);
  wbuf_.pop_front();
  drain_in_flight_ = false;
  start_drain();

  if (pending_ == Pending::kStoreBuffer) {
    // A slot is free: the stalled store executes now.
    MemAccess a = pending_access_;
    pending_ = Pending::kNone;
    auto cb = std::move(pending_cb_);
    pending_cb_ = nullptr;
    perform_store(a);
    cb(0);
  } else if (pending_ == Pending::kLoadDrain && wbuf_.empty()) {
    pending_ = Pending::kLoadResponse;
    issue_read();
  } else if (pending_ == Pending::kSwapDrain && wbuf_.empty()) {
    pending_ = Pending::kSwapResponse;
    issue_swap();
  } else if (pending_ == Pending::kDrainWait && wbuf_.empty()) {
    pending_ = Pending::kNone;
    auto cb = std::move(pending_cb_);
    pending_cb_ = nullptr;
    cb(0);
  }
}

void WtiController::maybe_finish_direct_write() {
  if (!have_write_ack_ || direct_acks_got_ < direct_acks_needed_) return;
  st_.direct_ack_writes->inc();
  st_.hops_write_through->add(saved_ack_hops_);
  tr_->txn_end(sim_.now(), drain_txn_, node_, saved_ack_hops_);
  // Direct-ack round: the sharers' acks converge here, not at the bank, so
  // the fan-out phase is attributed requester-side.
  lat_->mark(sim_.now(), drain_txn_, node_, sim::Phase::kFanoutAcks, sim_.now());
  lat_->txn_end(sim_.now(), drain_txn_, node_);
  // Release the bank's per-block transaction lock. Carrying the finishing
  // transaction's id lets the trace tie the unlock to its write.
  Message done;
  done.type = MsgType::kTxnDone;
  done.addr = wbuf_.front().addr;
  done.txn = drain_txn_;
  send_to_bank(done.addr, std::move(done));

  have_write_ack_ = false;
  direct_acks_needed_ = 0;
  direct_acks_got_ = 0;
  wbuf_.pop_front();
  drain_in_flight_ = false;
  start_drain();

  if (pending_ == Pending::kStoreBuffer) {
    MemAccess a = pending_access_;
    pending_ = Pending::kNone;
    auto cb = std::move(pending_cb_);
    pending_cb_ = nullptr;
    perform_store(a);
    cb(0);
  } else if (pending_ == Pending::kLoadDrain && wbuf_.empty()) {
    pending_ = Pending::kLoadResponse;
    issue_read();
  } else if (pending_ == Pending::kSwapDrain && wbuf_.empty()) {
    pending_ = Pending::kSwapResponse;
    issue_swap();
  } else if (pending_ == Pending::kDrainWait && wbuf_.empty()) {
    pending_ = Pending::kNone;
    auto cb = std::move(pending_cb_);
    pending_cb_ = nullptr;
    cb(0);
  }
}

AccessResult WtiController::drain(const CompleteFn& on_drained) {
  CCNOC_ASSERT(pending_ == Pending::kNone, "drain during a pending access");
  if (wbuf_.empty()) return AccessResult::kHit;
  st_.explicit_drains->inc();
  pending_ = Pending::kDrainWait;
  pending_cb_ = on_drained;
  return AccessResult::kPending;
}

void WtiController::handle_swap_response(const noc::Packet& pkt) {
  CCNOC_ASSERT(pending_ == Pending::kSwapResponse, "unexpected swap response");
  st_.hops_atomic_swap->add(pkt.msg.path_hops);
  tr_->txn_end(sim_.now(), pending_txn_, node_, pkt.msg.path_hops);
  lat_->txn_end(sim_.now(), pending_txn_, node_);
  std::uint64_t old = 0;
  std::memcpy(&old, pkt.msg.data.data(), pkt.msg.data_len);
  pending_ = Pending::kNone;
  auto cb = std::move(pending_cb_);
  pending_cb_ = nullptr;
  cb(old);
}

void WtiController::handle_update(const noc::Packet& pkt) {
  // Write-update flavour: a foreign store patches our copy in place. A
  // stale-sharer ack tells the directory to stop updating us.
  st_.updates->inc();
  pf_->update_recv(sim_.now(), node_, pkt.msg.addr);
  tr_->instant(sim_.now(), node_, "wti.update_recv", sim::Tracer::kPidCache,
               track_tid(), "addr", pkt.msg.addr);
  Message ack;
  ack.type = MsgType::kUpdateAck;
  ack.addr = pkt.msg.addr;
  ack.txn = pkt.msg.txn;
  if (CacheLine* l = tags_.find(tags_.block_of(pkt.msg.addr))) {
    // Apply byte-wise, skipping bytes covered by our own still-buffered
    // stores. Our store hit already patched those bytes locally, and the
    // bank serializes our buffered store AFTER the foreign write that
    // produced this update: if ours had serialized first, its WriteAck
    // would precede this update in the (FIFO) bank->cache channel and the
    // buffer entry would already be gone. Clobbering them would leave this
    // copy permanently stale once our own write lands in memory.
    for (unsigned i = 0; i < pkt.msg.access_size; ++i) {
      const sim::Addr byte = pkt.msg.addr + i;
      bool ours = false;
      for (const BufEntry& e : wbuf_) {
        if (byte >= e.addr && byte < e.addr + e.size) {
          ours = true;
          break;
        }
      }
      if (!ours) {
        l->data[unsigned(byte - l->block)] = pkt.msg.data[i];
      }
    }
    fsm(*l, CacheEvent::kUpdate);
    tags_.touch(*l);
    ack.had_copy = true;
  } else {
    ack.had_copy = false;
  }
  send_to_node(pkt.src, std::move(ack));
}

void WtiController::handle_invalidate(const noc::Packet& pkt) {
  st_.invalidations->inc();
  tr_->instant(sim_.now(), node_, "wti.invalidate_recv", sim::Tracer::kPidCache,
               track_tid(), "addr", pkt.msg.addr);
  CacheLine* l = tags_.find(pkt.msg.addr);
  pf_->invalidate_recv(sim_.now(), node_, pkt.msg.addr, l != nullptr);
  if (l) {
    if (!inject_skip_invalidate()) fsm(*l, CacheEvent::kInvalidate);
  }
  // Always acknowledge: the directory may hold a stale presence bit. In a
  // direct-ack round the acknowledgement goes straight to the requesting
  // cache (paper §4.2), otherwise to the memory node.
  Message ack;
  ack.type = MsgType::kInvalidateAck;
  ack.addr = pkt.msg.addr;
  ack.txn = pkt.msg.txn;
  send_to_node(pkt.msg.direct_ack ? pkt.msg.requester : pkt.src, std::move(ack));
}

}  // namespace ccnoc::cache
