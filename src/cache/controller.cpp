#include "cache/controller.hpp"

namespace ccnoc::cache {

CacheController::CacheController(sim::Simulator& sim, noc::Network& net,
                                 const mem::AddressMap& map, sim::NodeId node,
                                 std::uint8_t port, CacheConfig cfg, std::string name)
    : sim_(sim),
      net_(net),
      map_(map),
      node_(node),
      port_(port),
      cfg_(cfg),
      name_(std::move(name)),
      tags_(cfg),
      tr_(&sim.tracer()),
      pf_(&sim.profiler()),
      lat_(&sim.latency()),
      tbl_(proto::table_for(cfg.protocol)),
      tbl2_(cfg.hierarchy ? &proto::l2_table_for(cfg.protocol) : nullptr),
      cov_(&sim.proto_coverage_shard(node)) {
  // Controller spans land on the "cache" process track, one thread per
  // (node, sub-port) so a node's dcache and icache stay distinct.
  tr_->set_track_name(sim::Tracer::kPidCache, track_tid(), name_);
}

void CacheController::send_to_bank(sim::Addr addr, noc::Message m) {
  m.requester = node_;
  m.port = port_;
  // The home node serializes this block: its memory bank on a flat
  // platform, its address-interleaved shared L2 bank on a two-level one.
  net_.send(node_, map_.home_node_of(addr), m);
}

void CacheController::send_to_node(sim::NodeId dst, noc::Message m) {
  m.port = port_;
  net_.send(node_, dst, m);
}

}  // namespace ccnoc::cache
