#include "mem/bank.hpp"

#include <algorithm>
#include <cstring>

namespace ccnoc::mem {

using noc::Grant;
using noc::Message;
using noc::MsgType;

Bank::Bank(sim::Simulator& sim, noc::Network& net, const AddressMap& map,
           unsigned bank_index, Protocol proto, BankConfig cfg)
    : Bank(sim, net, map, map.bank_node(bank_index),
           "bank" + std::to_string(bank_index), bank_index, proto, cfg) {}

Bank::Bank(sim::Simulator& sim, noc::Network& net, const AddressMap& map,
           sim::NodeId node, const std::string& name, std::uint32_t tid,
           Protocol proto, BankConfig cfg)
    : sim_(sim),
      net_(net),
      map_(map),
      proto_(proto),
      cfg_(cfg),
      node_(node),
      dir_(cfg.dir_clients != 0 ? cfg.dir_clients : map.num_cpus(),
           cfg.dir_client_base),
      ptbl_(proto::table_for(proto)),
      cov_(&sim.proto_coverage_shard(node_)),
      tr_(&sim.tracer()),
      probe_(sim.probe()),
      pf_(&sim.profiler()),
      lat_(&sim.latency()),
      bank_tid_(tid) {
  CCNOC_ASSERT((cfg_.block_bytes & (cfg_.block_bytes - 1)) == 0,
               "block size must be a power of two");
  CCNOC_ASSERT(cfg_.block_bytes <= noc::kMaxBlockBytes, "block too large for messages");
  net_.attach(node_, *this);

  const std::string prefix = name + ".";
  auto& reg = sim_.stats();
  st_.requests = &reg.counter(prefix + "requests");
  st_.block_conflicts = &reg.counter(prefix + "block_conflicts");
  st_.busy_cycles = &reg.counter(prefix + "busy_cycles");
  st_.upgrade_races = &reg.counter(prefix + "upgrade_races");
  st_.updates_sent = &reg.counter(prefix + "updates_sent");
  st_.stale_update_targets = &reg.counter(prefix + "stale_update_targets");
  st_.invalidations_sent = &reg.counter(prefix + "invalidations_sent");
  st_.fetches_sent = &reg.counter(prefix + "fetches_sent");
  st_.stale_fetch_responses = &reg.counter(prefix + "stale_fetch_responses");
  st_.writebacks = &reg.counter(prefix + "writebacks");
  st_.queue_delay = &reg.sample(prefix + "queue_delay");

  std::string bank_name = name;
  trace_bank_id_ = tr_->register_bank(bank_name, node_);
  profile_bank_id_ =
      pf_->register_bank(bank_name, node_, map_.is_l2_node(node_) ? 1u : 0u);
  if (pf_->on()) dir_.set_profiler(pf_, node_);
  tr_->set_track_name(sim::Tracer::kPidBank, bank_tid_, std::move(bank_name));
}

void Bank::deliver(const noc::Packet& pkt) {
  switch (pkt.msg.type) {
    case MsgType::kReadShared:
    case MsgType::kReadExclusive:
    case MsgType::kUpgrade:
    case MsgType::kWriteWord:
    case MsgType::kAtomicSwap:
    case MsgType::kAtomicAdd:
      enqueue_request(pkt);
      break;
    case MsgType::kWriteBack:
      handle_write_back(pkt);
      break;
    case MsgType::kInvalidateAck:
      handle_invalidate_ack(pkt);
      break;
    case MsgType::kUpdateAck:
      handle_update_ack(pkt);
      break;
    case MsgType::kFetchResponse:
      handle_fetch_response(pkt);
      break;
    case MsgType::kTxnDone:
      handle_txn_done(pkt);
      break;
    default:
      CCNOC_ASSERT(false, std::string("bank received unexpected message ") +
                              to_string(pkt.msg.type));
  }
}

void Bank::enqueue_request(const noc::Packet& pkt) {
  st_.requests->inc();
  const sim::Addr block = block_of(pkt.msg.addr);
  if (txns_.count(block) != 0) {
    // Block busy: serialize behind the active transaction.
    waiting_[block].push_back(pkt);
    st_.block_conflicts->inc();
    ++waiting_count_;
    pf_->bank_enqueue(sim_.now(), profile_bank_id_, block, waiting_count_);
    if (tr_->on()) {
      tr_->bank_queue_depth(trace_bank_id_, sim_.now(), waiting_count_);
      tr_->txn_note(sim_.now(), pkt.msg.txn, node_, "bank_queued", "block", block);
    }
    return;
  }
  start_service(pkt.msg, pkt.src);
}

void Bank::start_service(Message req, sim::NodeId src) {
  const sim::Addr block = block_of(req.addr);
  auto [it, fresh] = txns_.emplace(block, Txn{});
  CCNOC_ASSERT(fresh, "transaction already active on block");
  it->second.req = std::move(req);
  it->second.src = src;

  const MsgType rt = it->second.req.type;
  sim::Cycle service = (rt == MsgType::kWriteWord || rt == MsgType::kAtomicSwap ||
                        rt == MsgType::kAtomicAdd || rt == MsgType::kUpgrade)
                           ? cfg_.word_service
                           : cfg_.block_service;
  // The bank pipeline accepts a request every initiation_interval cycles;
  // each request completes after its full service latency.
  sim::Cycle start = std::max(sim_.now(), port_free_);
  port_free_ = start + cfg_.initiation_interval;
  st_.busy_cycles->inc(cfg_.initiation_interval);
  st_.queue_delay->add(double(start - sim_.now()));
  // Phase attribution: arrival→start is pipeline-port queueing, then the
  // directory/storage access itself. Both boundaries are known now.
  lat_->mark(sim_.now(), it->second.req.txn, node_, sim::Phase::kBankQueue, start);
  lat_->mark(sim_.now(), it->second.req.txn, node_, sim::Phase::kDirService,
             start + service);
  // Service occupancy on the bank's trace track, one slice per request.
  tr_->complete(start, start + service, node_, to_string(rt),
                sim::Tracer::kPidBank, bank_tid_);
  sim_.schedule_at(start + service, &Bank::on_service_done, this, block);
}

void Bank::on_service_done(void* self, std::uint64_t block) {
  static_cast<Bank*>(self)->process_request(block);
}

void Bank::process_request(sim::Addr block) {
  auto it = txns_.find(block);
  CCNOC_ASSERT(it != txns_.end(), "service completed for vanished transaction");
  Txn& t = it->second;
  switch (t.req.type) {
    case MsgType::kReadShared: process_read_shared(t); break;
    case MsgType::kReadExclusive: process_read_exclusive(t); break;
    case MsgType::kUpgrade: process_upgrade(t); break;
    case MsgType::kWriteWord:
    case MsgType::kAtomicSwap:
    case MsgType::kAtomicAdd: process_write_word(t); break;
    default: CCNOC_ASSERT(false, "bad transaction kind");
  }
}

void Bank::read_block(sim::Addr block, Message& m) const {
  m.data_len = std::uint8_t(cfg_.block_bytes);
  storage_.read(block, m.data.data(), cfg_.block_bytes);
}

void Bank::process_read_shared(Txn& t) {
  const sim::Addr block = block_of(t.req.addr);
  DirEntry e = dir_.lookup(block);

  if (t.req.track && e.dirty && e.owner == t.src) {
    // The requester is the recorded owner yet misses: it silently evicted a
    // clean Exclusive copy (a Modified one would have written back first,
    // and per-flow FIFO order delivers that write-back before this read).
    // Untracked reads must NOT take this shortcut: an instruction fetch
    // from the owner's node says nothing about the dcache's copy, which may
    // still be live (or still in flight to the node) — fetch from it instead.
    proto::DirState before = dstate(block);
    dir_.remove_sharer(block, t.src);
    dir_event(block, before, proto::DirEvent::kSharerDrop);
    e = dir_.lookup(block);
  }
  if (e.dirty) {
    // Foreign cache holds E/M: 4-hop path through the memory node (paper
    // §4.2 read-request decomposition).
    request_fetch(block, t, MsgType::kFetch);
    return;
  }

  Message resp;
  resp.type = MsgType::kReadResponse;
  resp.addr = block;
  resp.txn = t.req.txn;
  read_block(block, resp);

  proto::DirState before = dstate(block);
  if (!t.req.track) {
    // Instruction fetch: read-only code, not tracked by the directory.
    resp.grant = Grant::kShared;
  } else if (proto_ == Protocol::kWbMesi && !e.has_sharer()) {
    // Sole reader: grant Exclusive. The cache may silently modify, so the
    // directory conservatively records an owner.
    resp.grant = Grant::kExclusive;
    dir_set_exclusive(block, t.src);
  } else {
    resp.grant = Grant::kShared;
    dir_.add_sharer(block, t.src);
  }
  dir_event(block, before,
            t.req.track ? proto::DirEvent::kReadShared : proto::DirEvent::kReadUntracked);
  respond(t, std::move(resp), 2);
  complete_txn(block);
}

void Bank::process_read_exclusive(Txn& t) {
  CCNOC_ASSERT(proto_ == Protocol::kWbMesi, "ReadExclusive in a WTI platform");
  const sim::Addr block = block_of(t.req.addr);
  DirEntry e = dir_.lookup(block);

  if (e.dirty && e.owner != t.src) {
    request_fetch(block, t, MsgType::kFetchInv);
    return;
  }
  // A stale presence bit for the requester (silent clean eviction followed
  // by a miss) must not trigger a self-invalidation.
  auto targets = dir_.sharers(block, t.src);
  if (!targets.empty()) {
    send_invalidations(block, t, t.src);
    return;
  }
  on_acks_complete(block, t);
}

void Bank::process_upgrade(Txn& t) {
  CCNOC_ASSERT(proto_ == Protocol::kWbMesi, "Upgrade in a WTI platform");
  const sim::Addr block = block_of(t.req.addr);
  DirEntry e = dir_.lookup(block);

  if (!e.is_sharer(t.src)) {
    // The requester lost its copy to a racing invalidation while the
    // upgrade was in flight: fall back to a full write-allocate (the
    // acknowledgement will carry data).
    st_.upgrade_races->inc();
    if (e.dirty && e.owner != t.src) {
      request_fetch(block, t, MsgType::kFetchInv);
      return;
    }
  }
  auto targets = dir_.sharers(block, t.src);
  if (!targets.empty()) {
    send_invalidations(block, t, t.src);
    return;
  }
  on_acks_complete(block, t);
}

void Bank::process_write_word(Txn& t) {
  CCNOC_ASSERT(is_write_through(proto_), "WriteWord in a MESI platform");
  const sim::Addr block = block_of(t.req.addr);
  // An atomic invalidates the requester's own copy too (the cache dropped
  // it locally when issuing the operation).
  sim::NodeId except = t.req.type == MsgType::kWriteWord ? t.src : sim::kInvalidNode;
  auto targets = dir_.sharers(block, except);
  if (!targets.empty()) {
    if (proto_ == Protocol::kWtu) {
      // Write-update: patch every foreign copy in place (paper §2's other
      // protocol category) instead of destroying it.
      send_updates(block, t, except);
    } else {
      // Invalidate every foreign copy before the write becomes visible
      // (write-invalidate, paper §2).
      send_invalidations(block, t, except);
    }
    return;
  }
  on_acks_complete(block, t);
}

void Bank::send_updates(sim::Addr block, Txn& t, sim::NodeId except) {
  auto targets = dir_.sharers(block, except);
  CCNOC_ASSERT(!targets.empty(), "update round with no targets");
  pf_->fanout(sim_.now(), node_, block, unsigned(targets.size()));
  t.pending_acks = unsigned(targets.size());
  t.had_inval_round = true;  // same critical-path hop accounting as invalidations

  // The value every copy must end up with: the written word, or the
  // post-RMW result for atomics. The block is transaction-locked, so the
  // storage word cannot change before the acknowledgements return.
  std::uint64_t final = 0;
  std::memcpy(&final, t.req.data.data(), t.req.access_size);
  if (t.req.type == MsgType::kAtomicAdd) {
    final += storage_.read_uint(t.req.addr, t.req.access_size);
  }

  tr_->txn_note(sim_.now(), t.req.txn, node_, "update_fanout", "targets",
                targets.size());
  for (sim::NodeId c : targets) {
    Message u;
    u.type = MsgType::kUpdateWord;
    u.addr = t.req.addr;
    u.access_size = t.req.access_size;
    u.data_len = t.req.access_size;
    std::memcpy(u.data.data(), &final, t.req.access_size);
    u.txn = t.req.txn;
    u.requester = t.src;
    net_.send(node_, c, u);
  }
  st_.updates_sent->inc(targets.size());
}

void Bank::handle_update_ack(const noc::Packet& pkt) {
  const sim::Addr block = block_of(pkt.msg.addr);
  auto it = txns_.find(block);
  CCNOC_ASSERT(it != txns_.end(), "stray UpdateAck");
  Txn& t = it->second;
  CCNOC_ASSERT(t.pending_acks > 0, "unexpected UpdateAck");
  if (!pkt.msg.had_copy) {
    // Stale presence bit (the sharer silently evicted): stop updating it.
    proto::DirState before = dstate(block);
    dir_.remove_sharer(block, pkt.src);
    dir_event(block, before, proto::DirEvent::kSharerDrop);
    st_.stale_update_targets->inc();
  }
  if (--t.pending_acks == 0) on_acks_complete(block, t);
}

void Bank::send_invalidations(sim::Addr block, Txn& t, sim::NodeId except) {
  auto targets = dir_.sharers(block, except);
  CCNOC_ASSERT(!targets.empty(), "invalidation round with no targets");
  pf_->fanout(sim_.now(), node_, block, unsigned(targets.size()));
  // Direct-ack mode applies to rounds the requester itself triggered (its
  // own writes/upgrades); data-bearing allocations keep the memory-collected
  // flow.
  const bool direct =
      cfg_.direct_inval_ack && (t.req.type == MsgType::kWriteWord ||
                                t.req.type == MsgType::kUpgrade);
  t.had_inval_round = true;
  if (direct) {
    t.direct_mode = true;
    t.direct_acks = unsigned(targets.size());
  } else {
    t.pending_acks = unsigned(targets.size());
  }
  tr_->txn_note(sim_.now(), t.req.txn, node_, "inval_fanout", "targets",
                targets.size(), "direct", direct ? 1 : 0);
  for (sim::NodeId c : targets) {
    Message inv;
    inv.type = MsgType::kInvalidate;
    inv.addr = block;
    inv.txn = t.req.txn;
    inv.requester = t.src;
    inv.direct_ack = direct;
    net_.send(node_, c, inv);
    if (direct) {
      // Direct-ack mode removes the sharer at send time: the ack will go to
      // the requester, so the bank will not hear it.
      proto::DirState before = dstate(block);
      dir_.remove_sharer(block, c);
      dir_event(block, before, proto::DirEvent::kSharerDrop);
    }
  }
  st_.invalidations_sent->inc(targets.size());
  if (direct) {
    // Respond now (the requester completes once the acks reach *it*) and
    // hold the block until its TxnDone releases it.
    on_acks_complete(block, t);
  }
}

void Bank::request_fetch(sim::Addr block, Txn& t, MsgType fetch_type) {
  DirEntry e = dir_.lookup(block);
  CCNOC_ASSERT(e.dirty && e.owner != sim::kInvalidNode, "fetch without dirty owner");
  t.waiting_data = true;
  t.data_from = e.owner;
  t.had_fetch_round = true;
  tr_->txn_note(sim_.now(), t.req.txn, node_, "fetch_owner", "owner", e.owner);
  Message f;
  f.type = fetch_type;
  f.addr = block;
  f.txn = t.req.txn;
  f.requester = t.src;
  net_.send(node_, e.owner, f);
  st_.fetches_sent->inc();
}

void Bank::handle_invalidate_ack(const noc::Packet& pkt) {
  const sim::Addr block = block_of(pkt.msg.addr);
  auto it = txns_.find(block);
  CCNOC_ASSERT(it != txns_.end(), "stray InvalidateAck");
  Txn& t = it->second;
  CCNOC_ASSERT(t.pending_acks > 0, "unexpected InvalidateAck");
  proto::DirState before = dstate(block);
  dir_.remove_sharer(block, pkt.src);
  dir_event(block, before, proto::DirEvent::kSharerDrop);
  if (--t.pending_acks == 0) on_acks_complete(block, t);
}

void Bank::handle_fetch_response(const noc::Packet& pkt) {
  const sim::Addr block = block_of(pkt.msg.addr);
  auto it = txns_.find(block);
  if (it == txns_.end() || !it->second.waiting_data || it->second.data_from != pkt.src ||
      it->second.req.txn != pkt.msg.txn) {
    // The owner's WriteBack raced ahead of the Fetch and already satisfied
    // this transaction; the duplicate data is dropped. The txn check guards
    // the subtler race where that dangling response only arrives after a
    // NEWER transaction has started fetching from the same cache — without
    // it, the stale data would be accepted as current (found by ccnoc_model).
    st_.stale_fetch_responses->inc();
    return;
  }
  on_data_arrived(block, it->second, pkt.msg);
}

void Bank::handle_write_back(const noc::Packet& pkt) {
  CCNOC_ASSERT(proto_ == Protocol::kWbMesi, "WriteBack in a WTI platform");
  const sim::Addr block = block_of(pkt.msg.addr);
  st_.writebacks->inc();

  // The write-back occupies one pipeline slot like any block write.
  sim::Cycle start = std::max(sim_.now(), port_free_);
  port_free_ = start + cfg_.initiation_interval;
  st_.busy_cycles->inc(cfg_.initiation_interval);

  auto it = txns_.find(block);
  if (it != txns_.end() && it->second.waiting_data && it->second.data_from == pkt.src) {
    // The fetch we sent (or are about to send) crossed this write-back in
    // flight: accept the write-back as the fetch data.
    Message ack;
    ack.type = MsgType::kWriteBackAck;
    ack.addr = block;
    ack.txn = pkt.msg.txn;
    ack.port = pkt.msg.port;
    net_.send(node_, pkt.src, ack);
    proto::DirState before = dstate(block);
    dir_.remove_sharer(block, pkt.src);
    dir_event(block, before, proto::DirEvent::kWriteBack);
    on_data_arrived(block, it->second, pkt.msg);
    return;
  }

  CCNOC_ASSERT(pkt.msg.data_len == cfg_.block_bytes, "short write-back");
  storage_.write(block, pkt.msg.data.data(), cfg_.block_bytes);
  on_storage_write(block);
  proto::DirState before = dstate(block);
  dir_.remove_sharer(block, pkt.src);
  dir_event(block, before, proto::DirEvent::kWriteBack);
  Message ack;
  ack.type = MsgType::kWriteBackAck;
  ack.addr = block;
  ack.txn = pkt.msg.txn;
  ack.port = pkt.msg.port;
  ack.path_hops = 2;
  net_.send(node_, pkt.src, ack);
}

void Bank::on_data_arrived(sim::Addr block, Txn& t, const Message& data_msg) {
  // Time since the last boundary (end of directory service) was spent
  // fetching the block from its dirty owner.
  lat_->mark(sim_.now(), t.req.txn, node_, sim::Phase::kOwnerFetch, sim_.now());
  if (data_msg.data_len != 0) {
    CCNOC_ASSERT(data_msg.data_len == cfg_.block_bytes, "short fetch data");
    storage_.write(block, data_msg.data.data(), cfg_.block_bytes);
    on_storage_write(block);
  }
  // data_len == 0: the owner had silently evicted a clean Exclusive copy,
  // so the memory copy is already current.
  t.waiting_data = false;

  proto::DirState before = dstate(block);
  proto::DirEvent ev = proto::DirEvent::kReadShared;
  switch (t.req.type) {
    case MsgType::kReadShared: {
      // Owner downgraded M→S; memory clean again; requester becomes sharer.
      dir_clear_dirty(block);
      if (t.req.track) dir_.add_sharer(block, t.src);
      if (!t.req.track) ev = proto::DirEvent::kReadUntracked;
      Message resp;
      resp.type = MsgType::kReadResponse;
      resp.addr = block;
      resp.txn = t.req.txn;
      resp.grant = Grant::kShared;
      read_block(block, resp);
      respond(t, std::move(resp), 4);
      break;
    }
    case MsgType::kReadExclusive:
    case MsgType::kUpgrade: {
      // Former owner invalidated; requester takes exclusive ownership.
      dir_.clear_all_except(block);
      dir_set_exclusive(block, t.src);
      ev = t.req.type == MsgType::kReadExclusive ? proto::DirEvent::kReadExclusive
                                                 : proto::DirEvent::kUpgrade;
      Message resp;
      resp.type = t.req.type == MsgType::kReadExclusive ? MsgType::kReadResponse
                                                        : MsgType::kUpgradeAck;
      resp.addr = block;
      resp.txn = t.req.txn;
      resp.grant = Grant::kModified;
      read_block(block, resp);
      respond(t, std::move(resp), 4);
      break;
    }
    default:
      CCNOC_ASSERT(false, "data arrived for a non-fetching transaction");
  }
  dir_event(block, before, ev);
  complete_txn(block);
}

void Bank::on_acks_complete(sim::Addr block, Txn& t) {
  // Bank-collected rounds converge here; direct-ack rounds converge at the
  // requester, which attributes the fan-out phase itself.
  if (t.had_inval_round && !t.direct_mode) {
    lat_->mark(sim_.now(), t.req.txn, node_, sim::Phase::kFanoutAcks, sim_.now());
  }
  // Direct-ack rounds shorten the critical path to 3 hops: request,
  // invalidate, ack-to-requester (the response overlaps the invalidations).
  unsigned hops = t.had_inval_round ? (t.direct_mode ? 3 : 4) : 2;
  if (t.had_inval_round) {
    tr_->txn_note(sim_.now(), t.req.txn, node_, "acks_complete", "hops", hops);
  }
  proto::DirState before = dstate(block);
  proto::DirEvent ev = proto::DirEvent::kReadExclusive;
  switch (t.req.type) {
    case MsgType::kWriteWord: {
      storage_.write(t.req.addr, t.req.data.data(), t.req.access_size);
      on_storage_write(block);
      if (probe_ != nullptr) [[unlikely]] probe_global_store(t);
      // Invalidate flavour: foreign copies are gone; the writer keeps its
      // (updated) copy if it had one. Update flavour: every copy was
      // patched in place and stays registered.
      if (proto_ != Protocol::kWtu) dir_.clear_all_except(block, t.src);
      ev = proto_ == Protocol::kWtu ? proto::DirEvent::kWriteUpdate
                                    : proto::DirEvent::kWriteThrough;
      Message ack;
      ack.type = MsgType::kWriteAck;
      ack.addr = t.req.addr;
      ack.txn = t.req.txn;
      respond(t, std::move(ack), hops);
      break;
    }
    case MsgType::kAtomicSwap:
    case MsgType::kAtomicAdd: {
      // Read-modify-write performed atomically at the bank (the WTI
      // equivalent of SPARC ldstub/swap, plus fetch-and-add).
      if (probe_ != nullptr) [[unlikely]] probe_global_atomic(t);
      Message resp;
      resp.type = MsgType::kSwapResponse;
      resp.addr = t.req.addr;
      resp.txn = t.req.txn;
      resp.data_len = t.req.access_size;
      storage_.read(t.req.addr, resp.data.data(), t.req.access_size);
      if (t.req.type == MsgType::kAtomicAdd) {
        std::uint64_t old = storage_.read_uint(t.req.addr, t.req.access_size);
        std::uint64_t operand = 0;
        std::memcpy(&operand, t.req.data.data(), t.req.access_size);
        storage_.write_uint(t.req.addr, old + operand, t.req.access_size);
      } else {
        storage_.write(t.req.addr, t.req.data.data(), t.req.access_size);
      }
      on_storage_write(block);
      if (proto_ == Protocol::kWtu) {
        // Sharers were patched with the post-RMW value; only the requester
        // dropped its copy when issuing the atomic.
        dir_.remove_sharer(block, t.src);
      } else {
        dir_.clear_all_except(block);
      }
      ev = proto::DirEvent::kAtomic;
      respond(t, std::move(resp), hops);
      break;
    }
    case MsgType::kReadExclusive: {
      dir_.clear_all_except(block);
      dir_set_exclusive(block, t.src);
      Message resp;
      resp.type = MsgType::kReadResponse;
      resp.addr = block;
      resp.txn = t.req.txn;
      resp.grant = Grant::kModified;
      read_block(block, resp);
      respond(t, std::move(resp), hops);
      break;
    }
    case MsgType::kUpgrade: {
      bool lost_copy = !dir_.lookup(block).is_sharer(t.src);
      dir_.clear_all_except(block);
      dir_set_exclusive(block, t.src);
      ev = proto::DirEvent::kUpgrade;
      Message resp;
      resp.type = MsgType::kUpgradeAck;
      resp.addr = block;
      resp.txn = t.req.txn;
      resp.grant = Grant::kModified;
      if (lost_copy) read_block(block, resp);  // re-supply the lost data
      respond(t, std::move(resp), hops);
      break;
    }
    default:
      CCNOC_ASSERT(false, "acks completed for a non-invalidating transaction");
  }
  dir_event(block, before, ev);
  if (t.direct_mode) return;  // block stays serialized until TxnDone
  complete_txn(block);
}

void Bank::handle_txn_done(const noc::Packet& pkt) {
  const sim::Addr block = block_of(pkt.msg.addr);
  auto it = txns_.find(block);
  CCNOC_ASSERT(it != txns_.end() && it->second.direct_mode, "stray TxnDone");
  CCNOC_ASSERT(it->second.src == pkt.src, "TxnDone from a non-requester");
  if (probe_ != nullptr) [[unlikely]] probe_->txn_released(unsigned(pkt.src), block);
  complete_txn(block);
}

void Bank::probe_global_store(const Txn& t) {
  std::uint64_t v = 0;
  std::memcpy(&v, t.req.data.data(), t.req.access_size);
  // In a §4.2 direct-ack round the block stays locked until the requester's
  // TxnDone; the oracle defers the write's visibility to that release.
  probe_->global_store(unsigned(t.src), t.req.addr, t.req.access_size, v,
                       t.direct_mode);
}

void Bank::probe_global_atomic(const Txn& t) {
  std::uint64_t operand = 0;
  std::memcpy(&operand, t.req.data.data(), t.req.access_size);
  probe_->global_atomic(unsigned(t.src), t.req.addr, t.req.access_size,
                        t.req.type == MsgType::kAtomicAdd, operand);
}

void Bank::respond(const Txn& t, Message&& m, unsigned path_hops) {
  m.requester = t.src;
  m.port = t.req.port;
  m.path_hops = std::uint8_t(path_hops);
  m.ack_count = std::uint8_t(t.direct_acks);
  net_.send(node_, t.src, m);
}

void Bank::complete_txn(sim::Addr block) {
  txns_.erase(block);
  auto wit = waiting_.find(block);
  if (wit == waiting_.end()) return;
  noc::Packet next = wit->second.front();
  wit->second.pop_front();
  if (wit->second.empty()) waiting_.erase(wit);
  --waiting_count_;
  pf_->bank_dequeue(sim_.now(), profile_bank_id_, block, waiting_count_);
  if (tr_->on()) tr_->bank_queue_depth(trace_bank_id_, sim_.now(), waiting_count_);
  start_service(next.msg, next.src);
}

void Bank::dir_set_exclusive(sim::Addr block, sim::NodeId owner) {
  dir_.set_exclusive(block, owner);
  tr_->instant(sim_.now(), node_, "dir.set_exclusive", sim::Tracer::kPidBank,
               bank_tid_, "owner", owner);
}

void Bank::dir_clear_dirty(sim::Addr block) {
  dir_.clear_dirty(block);
  tr_->instant(sim_.now(), node_, "dir.clear_dirty", sim::Tracer::kPidBank,
               bank_tid_, "addr", block);
}

}  // namespace ccnoc::mem
