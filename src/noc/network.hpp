#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "noc/message.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

/// \file network.hpp
/// Abstract interconnect. Both implementations (GMN crossbar and 2-D mesh)
/// guarantee per-(source, destination) FIFO delivery order — the property
/// deterministic XY routing gives a real mesh — which the coherence
/// protocols rely on (e.g. WriteBack before FetchResponse from one cache).

namespace ccnoc::noc {

/// A message in flight, with routing and accounting metadata.
struct Packet {
  sim::NodeId src = sim::kInvalidNode;
  sim::NodeId dst = sim::kInvalidNode;
  Message msg;
  sim::Cycle sent_at = 0;
  std::uint64_t id = 0;
};

/// Something attached to a NoC port (a cache node or a memory bank node).
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void deliver(const Packet& pkt) = 0;
};

class Network {
 public:
  explicit Network(sim::Simulator& s);
  virtual ~Network() = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Register \p ep as the receiver for node \p id. Must be called for every
  /// node before the first send.
  void attach(sim::NodeId id, Endpoint& ep);

  /// Inject a message. Delivery is scheduled through the concrete
  /// interconnect model; per-flow FIFO order is preserved.
  void send(sim::NodeId src, sim::NodeId dst, const Message& msg);

  /// Switch traffic accounting to per-node shards (parallel runs): send()
  /// then writes only state owned by the source node's domain, and arrivals
  /// only state owned by the destination's, so concurrent domains never
  /// share a counter. Call before the first send; fold with
  /// finalize_stats() after the run. Totals and registry statistics come
  /// out byte-identical to the serial direct path — counters are exact and
  /// the latency sample adds whole cycles (sim::Sample::merge).
  void enable_stat_shards(std::size_t nodes);

  /// Fold the per-node shards (node order, so the fold is canonical) into
  /// the registry and the run totals. Idempotent; a no-op when sharding was
  /// never enabled.
  virtual void finalize_stats();

  [[nodiscard]] bool stat_shards_on() const { return !shards_.empty(); }

  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }
  [[nodiscard]] std::uint64_t total_packets() const { return total_packets_; }

  [[nodiscard]] std::size_t num_nodes() const { return endpoints_.size(); }

 protected:
  /// Concrete model: compute the delivery cycle for \p pkt (reserving
  /// whatever shared resources it occupies) and schedule delivery.
  virtual void route(Packet&& pkt) = 0;

  /// One-shot delivery path for the serial interconnects (mesh, bus):
  /// latency accounting plus the delivery event.
  void deliver_at(sim::Cycle when, Packet&& pkt);

  /// Record an arrival latency for \p dst — into its shard when sharded,
  /// the registry sample otherwise. Runs in the destination's domain.
  void record_latency(sim::NodeId dst, sim::Cycle latency);

  /// Schedule the endpoint delivery event for \p pkt at \p when in the
  /// active (destination) domain. Latency must already be recorded.
  void schedule_delivery(sim::Cycle when, Packet&& pkt);

  sim::Simulator& sim_;
  sim::Tracer* tracer_;    ///< cached; route() implementations report per-link
                           ///< flit telemetry through it
  sim::Profiler* profiler_;  ///< cached; per-line traffic attribution
  sim::LatencyObservatory* lat_;  ///< cached; per-phase transit attribution

 private:
  /// Per-node traffic shard. The send-side fields are written only by the
  /// node's own domain (a node sends from its own events); the latency
  /// sample only by arrivals, which also execute in the node's domain.
  /// Cache-line alignment keeps neighbouring nodes' shards from false
  /// sharing under round-robin node-to-domain assignment.
  struct alignas(64) NodeShard {
    std::uint64_t bytes = 0;
    std::uint64_t packets = 0;
    std::array<std::uint64_t, kNumMsgTypes> per_type{};
    sim::Sample latency;
  };

  std::vector<Endpoint*> endpoints_;
  std::vector<NodeShard> shards_;  ///< empty = serial direct accounting
  bool stats_finalized_ = false;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_packets_ = 0;
  std::uint64_t next_pkt_id_ = 0;
  // Typed stat handles, resolved once at construction: send() runs once per
  // simulated packet and must not pay a string concat + map lookup each time.
  sim::Counter* bytes_ctr_ = nullptr;
  sim::Counter* packets_ctr_ = nullptr;
  std::array<sim::Counter*, kNumMsgTypes> pkt_type_ctr_{};
  sim::Sample* latency_sample_ = nullptr;
};

/// True for message types that lie on their transaction's critical path:
/// requests, data responses and completion acks. Fan-out legs (invalidates,
/// updates, fetches and their acks) run concurrently with each other and
/// are attributed as one collective phase at the convergence point instead
/// — marking each would double-count overlapping wire time.
[[nodiscard]] bool on_txn_critical_path(MsgType t);

/// Flit payload width. A 32-byte block plus header is ~10 flits.
inline constexpr unsigned kFlitBytes = 4;

[[nodiscard]] inline sim::Cycle flits_of(const Packet& pkt) {
  return (wire_bytes(pkt.msg) + kFlitBytes - 1) / kFlitBytes;
}

}  // namespace ccnoc::noc
