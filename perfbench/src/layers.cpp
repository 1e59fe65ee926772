#include "layers.hpp"

#include <array>
#include <memory>
#include <vector>

#include "cache/cache_node.hpp"
#include "mem/bank.hpp"
#include "mem/directory.hpp"
#include "noc/gmn.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

using namespace ccnoc;

constexpr std::uint64_t kQueueEvents = 1'000'000;
constexpr std::uint64_t kPackets = 200'000;
constexpr std::uint64_t kDirOps = 1'000'000;
constexpr std::uint64_t kHits = 2'000'000;
constexpr std::uint64_t kMisses = 50'000;

/// Self-rescheduling events keep `depth` pending at once, each re-armed
/// with a 1–20-cycle delay: the shape of the simulator's own traffic.
double queue_ns_per_event(unsigned depth, SpanLog* log) {
  struct Chain {
    sim::EventQueue q;
    std::array<sim::Cycle, 1024> delays{};
    std::size_t next = 0;
    std::uint64_t left = kQueueEvents;
    void arm() { q.schedule_in(delays[next++ % delays.size()], [this] { fire(); }); }
    void fire() {
      if (left == 0) return;
      --left;
      arm();
    }
  };
  auto d = std::make_unique<Chain>();
  sim::Rng rng(depth);
  for (sim::Cycle& c : d->delays) c = 1 + rng.next_below(20);
  for (unsigned i = 0; i < depth; ++i) d->arm();
  Scope s(log, "sim::EventQueue");
  d->q.run();
  return s.stop() * 1e9 / double(d->q.executed());
}

struct NullEndpoint final : noc::Endpoint {
  void deliver(const noc::Packet&) override {}
};

/// Request/response pairs between CPU nodes and bank nodes, drained every
/// 256 packets so the ports see bursts like a barrier release.
void gmn_cost(const Shape& shape, SpanLog* log, LayerCosts& out) {
  sim::Simulator sim;
  const unsigned nodes = shape.cpus + shape.banks;
  noc::GmnNetwork net(sim, nodes);
  std::vector<NullEndpoint> eps(nodes);
  for (unsigned i = 0; i < nodes; ++i) net.attach(sim::NodeId(i), eps[i]);
  noc::Message req;
  req.type = noc::MsgType::kReadShared;
  noc::Message resp;
  resp.type = noc::MsgType::kReadResponse;
  resp.data_len = 32;
  Scope s(log, "noc::GmnNetwork");
  for (std::uint64_t i = 0; i < kPackets; i += 2) {
    const auto cpu = sim::NodeId(i / 2 % shape.cpus);
    const auto bank = sim::NodeId(shape.cpus + i / 2 % shape.banks);
    net.send(cpu, bank, req);
    net.send(bank, cpu, resp);
    if (i % 256 == 254) sim.run_to_completion();
  }
  sim.run_to_completion();
  out.gmn_ns_per_packet = s.stop() * 1e9 / double(kPackets);
  out.gmn_events_per_packet = double(sim.queue().executed()) / double(kPackets);
}

double dir_ns_per_op(unsigned cpus, SpanLog* log) {
  mem::Directory dir(cpus);
  std::uint64_t ops = 0, sink = 0;
  Scope s(log, "mem::Directory");
  for (std::uint64_t i = 0; i < kDirOps; ++i) {
    const sim::Addr block = (i % 4096) * 32;
    dir.add_sharer(block, sim::NodeId(i % cpus));
    sink += dir.lookup(block).sharer_count();
    ops += 2;
    if (i % 7 == 0) {
      dir.clear_all_except(block);
      ++ops;
    }
  }
  const double secs = s.stop();
  return sink == 0 ? 0.0 : secs * 1e9 / double(ops);
}

/// CPU 0's cache node alone on the workload's fabric and banks.
struct CacheRig {
  sim::Simulator sim;
  mem::AddressMap map;
  noc::GmnNetwork net;
  std::vector<std::unique_ptr<mem::Bank>> banks;
  cache::CacheNode node;

  explicit CacheRig(const Shape& shape)
      : map(shape.cpus, shape.banks),
        net(sim, map.num_nodes()),
        node(sim, net, map, 0, shape.protocol, shape.dcache, cache::CacheConfig{}) {
    for (unsigned b = 0; b < shape.banks; ++b)
      banks.push_back(std::make_unique<mem::Bank>(sim, net, map, b, shape.protocol,
                                                   shape.bank));
  }

  /// Issues one access and runs the fabric until every transaction is done.
  void access(const cache::MemAccess& a) {
    std::uint64_t v = 0;
    node.dcache().access(a, &v, [](std::uint64_t) {});
    sim.run_to_completion();
  }
};

void cache_costs(const Shape& shape, SpanLog* log, LayerCosts& out) {
  {
    CacheRig rig(shape);
    cache::MemAccess a;
    a.addr = 0x100;
    rig.access(a);  // warm the block
    std::uint64_t v = 0, sink = 0;
    Scope s(log, "cache::CacheNode.hit");
    for (std::uint64_t i = 0; i < kHits; ++i) {
      if (rig.node.dcache().access(a, &v, [](std::uint64_t) {}) ==
          cache::AccessResult::kHit)
        ++sink;
    }
    const double secs = s.stop();
    out.hit_ns = sink == kHits ? secs * 1e9 / double(kHits) : 0.0;
  }
  // Each access touches a new block, so every one misses (the cache holds a
  // few KB; the stride walks a MB before wrapping).
  for (const bool store : {false, true}) {
    CacheRig rig(shape);
    cache::MemAccess a;
    a.is_store = store;
    Scope s(log, store ? "cache::CacheNode.store_drain" : "cache::CacheNode.miss");
    for (std::uint64_t i = 0; i < kMisses; ++i) {
      a.addr = rig.map.bank_base(unsigned(i % shape.banks)) + (i * 32) % (1u << 20);
      a.value = i;
      rig.access(a);
    }
    (store ? out.store_drain_ns : out.miss_roundtrip_ns) =
        s.stop() * 1e9 / double(kMisses);
  }
}

}  // namespace

LayerCosts measure_layers(const Shape& shape, SpanLog* log) {
  LayerCosts c;
  Scope round(log, "layer_loops");
  c.queue_ns_per_event = queue_ns_per_event(shape.cpus + shape.banks, log);
  gmn_cost(shape, log, c);
  c.dir_ns_per_op = dir_ns_per_op(shape.cpus, log);
  cache_costs(shape, log, c);
  return c;
}

}  // namespace perfbench
