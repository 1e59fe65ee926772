#pragma once

#include <unordered_map>

#include "cache/controller.hpp"

/// \file mesi_controller.hpp
/// Write-back MESI data cache (paper §4.1, Figure 1 right; Illinois [13]).
/// Stores require exclusivity: a hit in Shared issues an Upgrade (blocking,
/// 2 or 4 hops), a miss write-allocates with ReadExclusive (blocking, up to
/// 4 hops plus a non-blocking 2-hop victim write-back — the paper's Figure 2
/// six-hop sequence). Dirty blocks are written back on eviction through a
/// write-back buffer held until the bank acknowledges, which also serves
/// crossing Fetch requests.

namespace ccnoc::cache {

class MesiController final : public CacheController {
 public:
  MesiController(sim::Simulator& sim, noc::Network& net, const mem::AddressMap& map,
                 sim::NodeId node, std::uint8_t port, CacheConfig cfg, std::string name);

  AccessResult access(const MemAccess& a, std::uint64_t* hit_value,
                      const CompleteFn& on_complete) override;
  void on_packet(const noc::Packet& pkt) override;

  [[nodiscard]] bool idle() const override {
    return pending_ == Pending::kNone && wb_buffer_.empty();
  }

  /// State of the line holding \p addr's block (kInvalid if absent); for
  /// tests asserting Figure 1 transitions.
  [[nodiscard]] LineState line_state(sim::Addr addr) {
    CacheLine* l = tags_.find(tags_.block_of(addr));
    return l ? l->state : LineState::kInvalid;
  }

  /// Visit each block sitting in the write-back buffer (evicted dirty data
  /// in flight to its bank). The invariant walker exempts such blocks from
  /// its memory-vs-cache data comparison: bank storage is stale until the
  /// write-back lands.
  template <typename Fn>
  void for_each_writeback(Fn&& fn) const {
    for (const auto& [block, e] : wb_buffer_) fn(block);
  }

 private:
  enum class Pending {
    kNone,
    kWbSlot,    ///< miss deferred until a write-back buffer entry frees
    kResponse,  ///< waiting for ReadResponse / UpgradeAck
  };

  struct WbEntry {
    std::array<std::uint8_t, noc::kMaxBlockBytes> data{};
  };

  void start_miss(const MemAccess& a, const CompleteFn& cb);
  void launch_miss();
  void do_writeback(CacheLine& victim);

  void handle_read_response(const noc::Packet& pkt);
  void handle_upgrade_ack(const noc::Packet& pkt);
  void handle_invalidate(const noc::Packet& pkt);
  void handle_fetch(const noc::Packet& pkt, bool invalidate);
  void handle_writeback_ack(const noc::Packet& pkt);

  void finish_pending(CacheLine& l);

  std::unordered_map<sim::Addr, WbEntry> wb_buffer_;

  Pending pending_ = Pending::kNone;
  MemAccess pending_access_{};
  CompleteFn pending_cb_;
  CacheLine* pending_line_ = nullptr;  ///< victim (miss) or held S line (upgrade)
  bool pending_is_upgrade_ = false;

  // Direct-ack upgrades (paper §4.2 optimization): the upgrade is granted
  // once the memory response AND all sharers' direct acks have arrived.
  bool have_upgrade_ack_ = false;
  unsigned direct_acks_needed_ = 0;
  unsigned direct_acks_got_ = 0;
  noc::Message saved_upgrade_msg_{};
  void maybe_finish_direct_upgrade();

  /// Tracer transaction id of the pending miss/upgrade. The span opens when
  /// the access starts waiting, so write-back-slot waits are inside the
  /// measured latency. Write-backs carry their own id in the message.
  std::uint64_t pending_txn_ = 0;

  /// Typed stat handles, resolved once at construction (see CacheController).
  struct Stats {
    sim::Counter* load_hits;
    sim::Counter* load_misses;
    sim::Counter* silent_e_to_m;
    sim::Counter* store_hits_em;
    sim::Counter* store_hits_s;
    sim::Counter* store_misses;
    sim::Counter* wb_buffer_stalls;
    sim::Counter* writebacks;
    sim::Counter* upgrade_data_refills;
    sim::Counter* direct_ack_upgrades;
    sim::Counter* invalidations;
    sim::Counter* fetches;
    sim::Counter* fetch_invs;
    sim::Counter* fetch_misses;
    sim::Histogram* hops_read_miss;
    sim::Histogram* hops_write_miss;
    sim::Histogram* hops_write_hit_s;
  };
  Stats st_;
};

}  // namespace ccnoc::cache
