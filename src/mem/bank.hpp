#pragma once

#include <deque>
#include <unordered_map>

#include "mem/address_map.hpp"
#include "mem/directory.hpp"
#include "mem/protocol.hpp"
#include "mem/storage.hpp"
#include "noc/network.hpp"
#include "proto/tables.hpp"
#include "sim/simulator.hpp"

/// \file bank.hpp
/// A main-memory bank node: byte storage + Censier–Feautrier directory +
/// the memory-side half of the coherence protocol (paper §4.2). Matching
/// the paper's implementation, every coherence transfer is routed through
/// the memory node — there are no cache-to-cache shortcuts — and requests
/// to the same block are serialized by a per-block transaction table.
///
/// Timing: every request passes through the bank's single service port
/// (busy-until reservation), which is what creates the memory-bank
/// contention the paper studies on architecture 1.
///
/// The same engine serves both tiers of a two-level platform: the shared
/// L2 banks (L2Bank, l2_bank.hpp) subclass it — directory clients are the
/// private L1s — and the memory banks keep using it directly with their
/// directory re-pointed at the L2 bank nodes (dir_clients/dir_client_base
/// below). The protected surface is exactly what the L2 subclass layers
/// its fill/recall machinery on.

namespace ccnoc::mem {

struct BankConfig {
  sim::Cycle block_service = 8;  ///< latency of a block read/write + directory
  sim::Cycle word_service = 2;   ///< latency of a word write + directory
  /// Pipelining: a new request may start this many cycles after the
  /// previous one (VCI memories accept back-to-back cells); bank
  /// *throughput* is 1/initiation_interval while each request still takes
  /// its full service latency.
  sim::Cycle initiation_interval = 2;
  unsigned block_bytes = 32;

  /// Paper §4.2's suggested optimization: sharers acknowledge
  /// invalidations directly to the requesting cache ("leveraging the
  /// memory node and saving one hop transfer"). The requester collects
  /// the acks and releases the block with a TxnDone, so per-block
  /// serialization — and with it sequential consistency — is preserved.
  /// Applies to WTI write-through rounds and MESI upgrades.
  bool direct_inval_ack = false;

  /// Directory client set. 0 clients = the platform's CPUs starting at node
  /// 0 (the flat default). The memory tier of a two-level platform instead
  /// tracks the L2 bank nodes: num_l2_banks clients based at the first L2
  /// node id.
  unsigned dir_clients = 0;
  sim::NodeId dir_client_base = 0;
};

class Bank : public noc::Endpoint {
 public:
  Bank(sim::Simulator& sim, noc::Network& net, const AddressMap& map,
       unsigned bank_index, Protocol proto, BankConfig cfg = {});
  ~Bank() override = default;

  void deliver(const noc::Packet& pkt) override;

  /// Direct storage access for program loading and result verification
  /// (zero simulated cost; never used during timed execution by the CPUs).
  PagedStorage& storage() { return storage_; }
  const PagedStorage& storage() const { return storage_; }

  [[nodiscard]] const Directory& directory() const { return dir_; }
  [[nodiscard]] sim::NodeId node_id() const { return node_; }
  [[nodiscard]] const BankConfig& config() const { return cfg_; }

  /// True when no transaction is in flight and nothing is queued — used by
  /// tests to check quiescence.
  [[nodiscard]] bool idle() const { return txns_.empty() && waiting_.empty(); }

  /// True while a coherence transaction is open on \p block (including a
  /// direct-ack round held until its TxnDone). The invariant walker uses
  /// this to exempt blocks in legal transient states from its point-in-time
  /// directory/data cross-checks.
  [[nodiscard]] bool has_open_txn(sim::Addr block) const {
    return txns_.count(block_of(block)) != 0;
  }

 protected:
  /// Role constructor shared by the memory tier and the L2 subclass:
  /// \p node and \p name identify the endpoint explicitly instead of being
  /// derived from a memory-bank index, \p tid is the slot on the tracer's
  /// "bank" track (memory banks use their bank index; L2 banks follow).
  Bank(sim::Simulator& sim, noc::Network& net, const AddressMap& map,
       sim::NodeId node, const std::string& name, std::uint32_t tid,
       Protocol proto, BankConfig cfg);

  struct Txn {
    noc::Message req;
    sim::NodeId src = sim::kInvalidNode;
    unsigned pending_acks = 0;
    bool waiting_data = false;
    sim::NodeId data_from = sim::kInvalidNode;
    bool had_inval_round = false;
    bool had_fetch_round = false;
    bool direct_mode = false;   ///< acks flow to the requester; block frees
                                ///< on its TxnDone
    unsigned direct_acks = 0;   ///< ack count reported to the requester
  };

  void enqueue_request(const noc::Packet& pkt);
  void start_service(noc::Message req, sim::NodeId src);
  static void on_service_done(void* self, std::uint64_t block);
  void process_request(sim::Addr block);

  void process_read_shared(Txn& t);
  void process_read_exclusive(Txn& t);
  void process_upgrade(Txn& t);
  void process_write_word(Txn& t);

  void handle_write_back(const noc::Packet& pkt);
  void handle_invalidate_ack(const noc::Packet& pkt);
  void handle_update_ack(const noc::Packet& pkt);
  void handle_fetch_response(const noc::Packet& pkt);
  void handle_txn_done(const noc::Packet& pkt);

  void on_acks_complete(sim::Addr block, Txn& t);
  void on_data_arrived(sim::Addr block, Txn& t, const noc::Message& data_msg);

  void send_invalidations(sim::Addr block, Txn& t, sim::NodeId except);
  void send_updates(sim::Addr block, Txn& t, sim::NodeId except);
  void request_fetch(sim::Addr block, Txn& t, noc::MsgType fetch_type);

  void respond(const Txn& t, noc::Message&& m, unsigned path_hops);
  /// Virtual so the L2 bank can intercept the moment a block unlocks: a
  /// freed block whose waiters target a no-longer-resident line must refill
  /// before the base implementation may start the next request.
  virtual void complete_txn(sim::Addr block);

  /// Called after every transaction-path write to \p block's bytes in
  /// storage_ (write-through words, atomics, absorbed write-backs and fetch
  /// data). The L2 bank overrides it to dirty its own line state; the
  /// memory tier's DRAM has no line state, so the default is a no-op.
  virtual void on_storage_write(sim::Addr block) { (void)block; }

  [[nodiscard]] sim::Addr block_of(sim::Addr a) const {
    return a & ~sim::Addr(cfg_.block_bytes - 1);
  }
  void read_block(sim::Addr block, noc::Message& m) const;

  // Directory mutations that change a block's ownership class, wrapped so
  // the trace shows the directory state machine alongside the messages.
  void dir_set_exclusive(sim::Addr block, sim::NodeId owner);
  void dir_clear_dirty(sim::Addr block);

  /// Abstract directory state of \p block (proto/tables.hpp vocabulary).
  [[nodiscard]] proto::DirState dstate(sim::Addr block) const {
    DirEntry e = dir_.lookup(block);
    return proto::dir_state(e.has_sharer(), e.dirty);
  }
  /// Validate a directory mutation cluster against the protocol's
  /// declarative table: (before, ev, current state) must be a declared row.
  /// The L2 bank installs its hierarchy extension table as xtbl_, so recall
  /// rows resolve; flat banks leave it null and behave exactly as before.
  void dir_event(sim::Addr block, proto::DirState before, proto::DirEvent ev) {
    proto::apply_dir(ptbl_, xtbl_, *cov_, before, ev, dstate(block));
  }

  sim::Simulator& sim_;
  noc::Network& net_;
  const AddressMap& map_;
  Protocol proto_;
  BankConfig cfg_;
  sim::NodeId node_;

  PagedStorage storage_;
  Directory dir_;
  sim::Cycle port_free_ = 0;

  std::unordered_map<sim::Addr, Txn> txns_;  // key: block address
  std::unordered_map<sim::Addr, std::deque<noc::Packet>> waiting_;
  std::size_t waiting_count_ = 0;  ///< total queued packets across blocks

  // Cold: only reached when a coherence checker is attached.
  __attribute__((cold)) void probe_global_store(const Txn& t);
  __attribute__((cold)) void probe_global_atomic(const Txn& t);

  const proto::ProtocolTable& ptbl_;  ///< this protocol's transition table
  const proto::ProtocolTable* xtbl_ = nullptr;  ///< hierarchy extension (L2)
  proto::CoverageSet* cov_;           ///< the platform's coverage bitmap
  sim::Tracer* tr_;            ///< cached; guarded on tr_->on() / tr_->full()
  sim::CoherenceProbe* probe_; ///< cached; null unless checking is on
  sim::Profiler* pf_;          ///< cached; one predicted branch per hook when off
  sim::LatencyObservatory* lat_;  ///< cached; same one-branch-when-off discipline
  unsigned trace_bank_id_ = 0;  ///< tracer telemetry slot for this bank
  unsigned profile_bank_id_ = 0;  ///< profiler queue slot for this bank
  std::uint32_t bank_tid_ = 0;  ///< thread id on the "bank" trace track

  /// Typed stat handles ("bank<i>.*"), resolved once at construction so the
  /// per-request paths never rebuild the prefixed name or search the
  /// registry (registry references are stable for its lifetime).
  struct Stats {
    sim::Counter* requests;
    sim::Counter* block_conflicts;
    sim::Counter* busy_cycles;
    sim::Counter* upgrade_races;
    sim::Counter* updates_sent;
    sim::Counter* stale_update_targets;
    sim::Counter* invalidations_sent;
    sim::Counter* fetches_sent;
    sim::Counter* stale_fetch_responses;
    sim::Counter* writebacks;
    sim::Sample* queue_delay;
  };
  Stats st_;
};

}  // namespace ccnoc::mem
