#pragma once

#include "cache/controller.hpp"

/// \file icache_controller.hpp
/// Instruction cache: read-only, protocol-independent. Code is never
/// written (no self-modifying code in the modelled software stack), so
/// instruction fetches are served as untracked reads — the directory does
/// not record the I-cache as a sharer and never invalidates it. The I-cache
/// shares its node's single NoC port with the D-cache (paper §5.1), so
/// heavy data traffic delays instruction miss refills through port
/// serialization in the interconnect model.

namespace ccnoc::cache {

class ICacheController final : public CacheController {
 public:
  ICacheController(sim::Simulator& sim, noc::Network& net, const mem::AddressMap& map,
                   sim::NodeId node, CacheConfig cfg, std::string name)
      : CacheController(sim, net, map, node, /*port=*/1, cfg, std::move(name)),
        hits_(stat("hits")),
        misses_(stat("misses")),
        hops_fetch_miss_(stat_histogram("hops.fetch_miss", 16)) {}

  AccessResult access(const MemAccess& a, std::uint64_t* hit_value,
                      const CompleteFn& on_complete) override;
  void on_packet(const noc::Packet& pkt) override;

  [[nodiscard]] bool idle() const override { return !pending_; }

 private:
  bool pending_ = false;
  MemAccess pending_access_{};
  CompleteFn pending_cb_;
  std::uint64_t pending_txn_ = 0;  ///< tracer id of the in-flight fetch miss

  // Typed stat handles, resolved once at construction (see CacheController).
  sim::Counter* hits_;
  sim::Counter* misses_;
  sim::Histogram* hops_fetch_miss_;
};

}  // namespace ccnoc::cache
