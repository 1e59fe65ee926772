#pragma once

#include <deque>
#include <optional>

#include "cache/controller.hpp"

/// \file wti_controller.hpp
/// Write-through invalidate data cache (paper §4.1, Figure 1 left): lines
/// are Valid or Invalid and always clean. Stores go to the memory bank
/// through an 8-word write buffer and are non-blocking until the buffer
/// fills; the bank's directory invalidates all foreign copies before the
/// write acknowledgement. Store hits also update the local copy. Loads that
/// miss drain the write buffer first, preserving sequential consistency.

namespace ccnoc::cache {

class WtiController final : public CacheController {
 public:
  WtiController(sim::Simulator& sim, noc::Network& net, const mem::AddressMap& map,
                sim::NodeId node, std::uint8_t port, CacheConfig cfg, std::string name);

  AccessResult access(const MemAccess& a, std::uint64_t* hit_value,
                      const CompleteFn& on_complete) override;
  void on_packet(const noc::Packet& pkt) override;
  AccessResult drain(const CompleteFn& on_drained) override;

  [[nodiscard]] bool idle() const override {
    return pending_ == Pending::kNone && wbuf_.empty() && !drain_in_flight_;
  }

  [[nodiscard]] std::size_t write_buffer_occupancy() const { return wbuf_.size(); }

  /// Visit each buffered (not yet acknowledged) store as (addr, size,
  /// value), oldest first. The invariant walker exempts these bytes from
  /// its cache-vs-memory data comparison: a store hit patched the local
  /// line immediately while the bank copy updates at the write-through.
  template <typename Fn>
  void for_each_buffered_store(Fn&& fn) const {
    for (const auto& e : wbuf_) fn(e.addr, unsigned(e.size), e.value);
  }

 private:
  enum class Pending {
    kNone,
    kLoadDrain,     ///< load miss waiting for the write buffer to empty
    kLoadResponse,  ///< load miss waiting for the block
    kStoreBuffer,   ///< store waiting for a write-buffer slot
    kSwapDrain,     ///< atomic swap waiting for the write buffer to empty
    kSwapResponse,  ///< atomic swap in flight to the bank
    kDrainWait,     ///< explicit drain (context-switch barrier)
  };

  struct BufEntry {
    sim::Addr addr = 0;
    std::uint8_t size = 0;
    std::uint64_t value = 0;
  };

  void perform_store(const MemAccess& a);
  void start_drain();
  void issue_read();
  void issue_swap();

  void handle_read_response(const noc::Packet& pkt);
  void handle_write_ack(const noc::Packet& pkt);
  void handle_swap_response(const noc::Packet& pkt);
  void handle_invalidate(const noc::Packet& pkt);
  void handle_update(const noc::Packet& pkt);

  std::deque<BufEntry> wbuf_;
  bool drain_in_flight_ = false;

  Pending pending_ = Pending::kNone;
  MemAccess pending_access_{};
  CompleteFn pending_cb_;

  // Direct-ack mode (paper §4.2 optimization): the in-flight write-through
  // completes when the memory response AND all sharers' direct acks have
  // arrived; the bank's block lock is then released with a TxnDone.
  bool have_write_ack_ = false;
  unsigned direct_acks_needed_ = 0;
  unsigned direct_acks_got_ = 0;
  std::uint8_t saved_ack_hops_ = 0;
  void maybe_finish_direct_write();

  // Tracer transaction ids: the pending CPU access (load miss / atomic) and
  // the in-flight write-through drain. Spans open when the access starts
  // waiting, so drain/buffer waits are inside the measured latency.
  std::uint64_t pending_txn_ = 0;
  std::uint64_t drain_txn_ = 0;

  /// Typed stat handles, resolved once at construction (see CacheController).
  struct Stats {
    sim::Counter* load_hits;
    sim::Counter* load_misses;
    sim::Counter* load_drain_waits;
    sim::Counter* atomic_swaps;
    sim::Counter* wbuf_full_stalls;
    sim::Counter* store_hits;
    sim::Counter* store_misses;
    sim::Counter* direct_ack_writes;
    sim::Counter* explicit_drains;
    sim::Counter* updates;
    sim::Counter* invalidations;
    sim::Sample* wbuf_occupancy;
    sim::Histogram* hops_read_miss;
    sim::Histogram* hops_write_through;
    sim::Histogram* hops_atomic_swap;
  };
  Stats st_;
};

}  // namespace ccnoc::cache
