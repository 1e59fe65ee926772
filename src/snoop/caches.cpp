#include "snoop/caches.hpp"

#include <cstring>

namespace ccnoc::snoop {

using cache::AccessResult;
using cache::AtomicKind;
using cache::CacheLine;
using cache::LineState;
using cache::MemAccess;

std::uint64_t SnoopCacheBase::read_line(const CacheLine& l, sim::Addr a,
                                        unsigned size) const {
  unsigned off = unsigned(a & (cfg_.block_bytes - 1));
  CCNOC_ASSERT(off + size <= cfg_.block_bytes, "access crosses a block boundary");
  std::uint64_t v = 0;
  std::memcpy(&v, l.data.data() + off, size);
  return v;
}

void SnoopCacheBase::write_line(CacheLine& l, sim::Addr a, unsigned size,
                                std::uint64_t v) {
  unsigned off = unsigned(a & (cfg_.block_bytes - 1));
  CCNOC_ASSERT(off + size <= cfg_.block_bytes, "access crosses a block boundary");
  std::memcpy(l.data.data() + off, &v, size);
}

// ------------------------------------------------------------ SnoopWtiCache

AccessResult SnoopWtiCache::access(const MemAccess& a, std::uint64_t* hit_value,
                                   const CompleteFn& on_complete) {
  CCNOC_ASSERT(pending_ == Pending::kNone, "snoop-WTI cache already busy");
  const sim::Addr block = tags_.block_of(a.addr);

  if (!a.is_store) {
    if (CacheLine* l = tags_.find(block)) {
      st_.load_hits->inc();
      tags_.touch(*l);
      *hit_value = read_line(*l, a.addr, a.size);
      return AccessResult::kHit;
    }
    st_.load_misses->inc();
    pending_access_ = a;
    pending_cb_ = on_complete;
    if (cfg_.drain_on_load_miss && !wbuf_.empty()) {
      pending_ = Pending::kLoadDrain;
    } else {
      pending_ = Pending::kLoadBus;
      issue_read();
    }
    return AccessResult::kPending;
  }

  if (a.is_atomic()) {
    st_.atomics->inc();
    if (CacheLine* l = tags_.find(block)) l->state = LineState::kInvalid;
    pending_access_ = a;
    pending_cb_ = on_complete;
    if (!wbuf_.empty()) {
      pending_ = Pending::kSwapDrain;
    } else {
      pending_ = Pending::kSwapBus;
      issue_atomic();
    }
    return AccessResult::kPending;
  }

  if (wbuf_.size() >= cfg_.write_buffer_entries) {
    st_.wbuf_full_stalls->inc();
    pending_ = Pending::kStoreBuffer;
    pending_access_ = a;
    pending_cb_ = on_complete;
    return AccessResult::kPending;
  }
  perform_store(a);
  return AccessResult::kHit;
}

void SnoopWtiCache::perform_store(const MemAccess& a) {
  if (CacheLine* l = tags_.find(tags_.block_of(a.addr))) {
    st_.store_hits->inc();
    write_line(*l, a.addr, a.size, a.value);
    tags_.touch(*l);
  } else {
    st_.store_misses->inc();
  }
  wbuf_.push_back(BufEntry{a.addr, a.size, a.value});
  start_drain();
}

void SnoopWtiCache::start_drain() {
  if (drain_in_flight_ || wbuf_.empty()) return;
  drain_in_flight_ = true;
  const BufEntry& e = wbuf_.front();
  BusTxn t;
  t.op = BusOp::kBusWriteWord;
  t.addr = e.addr;
  t.initiator = my_id_;
  t.size = e.size;
  t.data_len = e.size;
  std::memcpy(t.data.data(), &e.value, e.size);
  bus_.request(std::move(t), [this](const SnoopReply&) { on_write_done(); });
}

void SnoopWtiCache::on_write_done() {
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
    pending_ = Pending::kLoadBus;
    issue_read();
  } else if (pending_ == Pending::kSwapDrain && wbuf_.empty()) {
    pending_ = Pending::kSwapBus;
    issue_atomic();
  } else if (pending_ == Pending::kDrainWait && wbuf_.empty()) {
    pending_ = Pending::kNone;
    auto cb = std::move(pending_cb_);
    pending_cb_ = nullptr;
    cb(0);
  }
}

void SnoopWtiCache::issue_read() {
  BusTxn t;
  t.op = BusOp::kBusRead;
  t.addr = tags_.block_of(pending_access_.addr);
  t.initiator = my_id_;
  bus_.request(std::move(t), [this](const SnoopReply& r) {
    CCNOC_ASSERT(pending_ == Pending::kLoadBus, "unexpected bus read completion");
    CacheLine& l = tags_.victim(tags_.block_of(pending_access_.addr));
    l.block = tags_.block_of(pending_access_.addr);
    l.state = LineState::kShared;  // "Valid"
    std::memcpy(l.data.data(), r.data.data(), cfg_.block_bytes);
    tags_.touch(l);
    std::uint64_t v = read_line(l, pending_access_.addr, pending_access_.size);
    pending_ = Pending::kNone;
    auto cb = std::move(pending_cb_);
    pending_cb_ = nullptr;
    cb(v);
  });
}

void SnoopWtiCache::issue_atomic() {
  BusTxn t;
  t.op = pending_access_.atomic == AtomicKind::kAdd ? BusOp::kBusAdd : BusOp::kBusSwap;
  t.addr = pending_access_.addr;
  t.initiator = my_id_;
  t.size = pending_access_.size;
  t.data_len = pending_access_.size;
  std::memcpy(t.data.data(), &pending_access_.value, pending_access_.size);
  bus_.request(std::move(t), [this](const SnoopReply& r) {
    CCNOC_ASSERT(pending_ == Pending::kSwapBus, "unexpected bus atomic completion");
    std::uint64_t old = 0;
    std::memcpy(&old, r.data.data(), r.data_len);
    pending_ = Pending::kNone;
    auto cb = std::move(pending_cb_);
    pending_cb_ = nullptr;
    cb(old);
  });
}

AccessResult SnoopWtiCache::drain(const CompleteFn& on_drained) {
  CCNOC_ASSERT(pending_ == Pending::kNone, "drain during a pending access");
  if (wbuf_.empty()) return AccessResult::kHit;
  pending_ = Pending::kDrainWait;
  pending_cb_ = on_drained;
  return AccessResult::kPending;
}

SnoopReply SnoopWtiCache::snoop(const BusTxn& txn) {
  SnoopReply r;
  CacheLine* l = tags_.find(txn.addr & ~sim::Addr(cfg_.block_bytes - 1));
  if (l == nullptr) return r;
  r.has_copy = true;
  switch (txn.op) {
    case BusOp::kBusRead:
      break;  // read-sharing is free
    case BusOp::kBusWriteWord:
    case BusOp::kBusSwap:
    case BusOp::kBusAdd:
    case BusOp::kBusReadX:
    case BusOp::kBusUpgr:
      // Write-invalidate: any observed write kills the local copy.
      st_.snoop_invalidations->inc();
      l->state = LineState::kInvalid;
      break;
    case BusOp::kBusWriteBack:
      CCNOC_ASSERT(false, "write-back observed on a write-through bus");
  }
  return r;
}

// ----------------------------------------------------------- SnoopMesiCache

AccessResult SnoopMesiCache::access(const MemAccess& a, std::uint64_t* hit_value,
                                    const CompleteFn& on_complete) {
  CCNOC_ASSERT(pending_ == Pending::kNone, "snoop-MESI cache already busy");
  const sim::Addr block = tags_.block_of(a.addr);
  CacheLine* l = tags_.find(block);

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
      // The historic write-back advantage: zero bus transactions.
      st_.store_hits_em->inc();
      l->state = LineState::kModified;
      std::uint64_t old = 0;
      if (a.is_atomic()) {
        old = read_line(*l, a.addr, a.size);
        *hit_value = old;
      }
      write_line(*l, a.addr, a.size,
                 a.atomic == AtomicKind::kAdd ? old + a.value : a.value);
      tags_.touch(*l);
      return AccessResult::kHit;
    }
    // Shared: an upgrade transaction (may retry as BusReadX if a racing
    // writer invalidates us before our grant).
    st_.store_hits_s->inc();
    pending_ = Pending::kUpgrade;
    pending_access_ = a;
    pending_cb_ = on_complete;
    pending_line_ = l;
    BusTxn t;
    t.op = BusOp::kBusUpgr;
    t.addr = block;
    t.initiator = my_id_;
    bus_.request(std::move(t), [this, block](const SnoopReply&) {
      CCNOC_ASSERT(pending_ == Pending::kUpgrade, "unexpected upgrade completion");
      CacheLine& line = *pending_line_;
      if (line.state == LineState::kShared && line.block == block) {
        finish(line);
        return;
      }
      // Lost the race: fall back to a full exclusive fill.
      st_.upgrade_retries->inc();
      pending_ = Pending::kMiss;
      issue_fill();
    });
    return AccessResult::kPending;
  }

  st_.store_misses->inc();
  start_miss(a, on_complete);
  return AccessResult::kPending;
}

void SnoopMesiCache::start_miss(const MemAccess& a, const CompleteFn& cb) {
  pending_access_ = a;
  pending_cb_ = cb;
  pending_ = Pending::kMiss;

  const sim::Addr block = tags_.block_of(a.addr);
  CacheLine& victim = tags_.victim(block);
  pending_line_ = &victim;
  if (victim.state == LineState::kModified) {
    // Queue the write-back ahead of the fill (FIFO bus: it lands first).
    // The line stays Modified until the write-back is granted, so snoops
    // in between still find the owner.
    st_.writebacks->inc();
    BusTxn wb;
    wb.op = BusOp::kBusWriteBack;
    wb.addr = victim.block;
    wb.initiator = my_id_;
    wb.data_len = std::uint8_t(cfg_.block_bytes);
    std::memcpy(wb.data.data(), victim.data.data(), cfg_.block_bytes);
    CacheLine* vp = &victim;
    bus_.request(std::move(wb), [vp](const SnoopReply&) {
      vp->state = LineState::kInvalid;
    });
  } else {
    victim.state = LineState::kInvalid;
  }
  issue_fill();
}

void SnoopMesiCache::issue_fill() {
  const sim::Addr block = tags_.block_of(pending_access_.addr);
  BusTxn t;
  t.op = pending_access_.is_store ? BusOp::kBusReadX : BusOp::kBusRead;
  t.addr = block;
  t.initiator = my_id_;
  bus_.request(std::move(t), [this, block](const SnoopReply& r) {
    CCNOC_ASSERT(pending_ == Pending::kMiss, "unexpected fill completion");
    CacheLine& l = *pending_line_;
    l.block = block;
    std::memcpy(l.data.data(), r.data.data(), cfg_.block_bytes);
    if (pending_access_.is_store) {
      l.state = LineState::kModified;
    } else {
      l.state = r.has_copy ? LineState::kShared : LineState::kExclusive;
    }
    finish(l);
  });
}

void SnoopMesiCache::finish(CacheLine& l) {
  std::uint64_t value = 0;
  if (pending_access_.is_store) {
    std::uint64_t old = 0;
    if (pending_access_.is_atomic()) {
      old = read_line(l, pending_access_.addr, pending_access_.size);
      value = old;
    }
    l.state = LineState::kModified;
    write_line(l, pending_access_.addr, pending_access_.size,
               pending_access_.atomic == AtomicKind::kAdd ? old + pending_access_.value
                                                          : pending_access_.value);
  } else {
    value = read_line(l, pending_access_.addr, pending_access_.size);
  }
  tags_.touch(l);
  pending_ = Pending::kNone;
  pending_line_ = nullptr;
  auto cb = std::move(pending_cb_);
  pending_cb_ = nullptr;
  cb(value);
}

SnoopReply SnoopMesiCache::snoop(const BusTxn& txn) {
  SnoopReply r;
  CacheLine* l = tags_.find(txn.addr & ~sim::Addr(cfg_.block_bytes - 1));
  if (l == nullptr) return r;
  r.has_copy = true;
  switch (txn.op) {
    case BusOp::kBusRead:
      if (l->state == LineState::kModified) {
        // Dirty owner flushes (to requester and memory) and downgrades.
        st_.snoop_flushes->inc();
        r.supplies_data = true;
        r.data_len = std::uint8_t(cfg_.block_bytes);
        std::memcpy(r.data.data(), l->data.data(), cfg_.block_bytes);
      }
      if (l->state != LineState::kInvalid) l->state = LineState::kShared;
      break;
    case BusOp::kBusReadX:
    case BusOp::kBusUpgr:
      if (l->state == LineState::kModified) {
        st_.snoop_flushes->inc();
        r.supplies_data = true;
        r.data_len = std::uint8_t(cfg_.block_bytes);
        std::memcpy(r.data.data(), l->data.data(), cfg_.block_bytes);
      }
      st_.snoop_invalidations->inc();
      l->state = LineState::kInvalid;
      break;
    case BusOp::kBusWriteBack:
      break;  // another cache's eviction: nothing to do
    case BusOp::kBusWriteWord:
    case BusOp::kBusSwap:
    case BusOp::kBusAdd:
      CCNOC_ASSERT(false, "write-through transaction on a write-back bus");
  }
  return r;
}

}  // namespace ccnoc::snoop
