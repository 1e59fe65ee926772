// Protocol trace: a two-processor platform with full tracing enabled,
// replaying the paper's protocol walkthroughs transaction by transaction:
//
//   1. WTI write with a foreign sharer (4-hop invalidate round, §4.2),
//   2. the MESI Figure 2 six-hop write-allocate with victim write-back.
//
// Events come from the sim::Tracer (the same structured log the Perfetto
// export uses): BEGIN/END bracket a coherence transaction, indented lines
// are NoC deliveries and bank/directory activity inside it.

#include <cstdio>
#include <string>

#include "cache/cache_node.hpp"
#include "mem/bank.hpp"
#include "noc/gmn.hpp"

using namespace ccnoc;

namespace {

struct Rig {
  explicit Rig(mem::Protocol proto)
      : map(2, 1),
        net(make_net(sim, map)),
        bank(sim, net, map, 0, proto) {
    for (unsigned c = 0; c < 2; ++c) {
      nodes.push_back(std::make_unique<cache::CacheNode>(
          sim, net, map, c, proto, cache::CacheConfig{}, cache::CacheConfig{}));
    }
  }

  // Trace mode must be on before the components build so their telemetry
  // registration happens against an enabled tracer; sneak it in before the
  // network member initializes.
  static noc::GmnNetwork make_net(sim::Simulator& s, const mem::AddressMap& m) {
    s.tracer().set_mode(sim::TraceMode::kFull);
    return noc::GmnNetwork(s, m.num_nodes(),
                           noc::GmnConfig{.min_latency = 4, .fifo_depth = 16});
  }

  void access(unsigned c, bool is_store, sim::Addr a, std::uint64_t v = 0) {
    cache::MemAccess m;
    m.is_store = is_store;
    m.addr = a;
    m.size = 4;
    m.value = v;
    std::uint64_t hv = 0;
    nodes[c]->dcache().access(m, &hv, [](std::uint64_t) {});
    sim.run_to_completion();
  }

  /// Print every trace event recorded since \p from (an index into the
  /// tracer's event log), one line per event, nested inside its span.
  void print_flow(std::size_t from) const {
    const sim::Tracer& tr = sim.tracer();
    for (std::size_t i = from; i < tr.event_count(); ++i) {
      const sim::Tracer::Event e = tr.event(i);
      switch (e.ph) {
        case 'b':
          std::printf("    [%4llu] txn %llu BEGIN %s addr=0x%llx\n",
                      static_cast<unsigned long long>(e.ts),
                      static_cast<unsigned long long>(e.id), e.name,
                      static_cast<unsigned long long>(e.args[0]));
          break;
        case 'e':
          std::printf("    [%4llu] txn %llu END   %s (%llu hops)\n",
                      static_cast<unsigned long long>(e.ts),
                      static_cast<unsigned long long>(e.id), e.name,
                      static_cast<unsigned long long>(e.args[0]));
          break;
        case 'n':
          if (e.arg_names[0] != nullptr && std::string(e.arg_names[0]) == "src") {
            std::printf("    [%4llu] txn %llu   | %s %llu->%llu\n",
                        static_cast<unsigned long long>(e.ts),
                        static_cast<unsigned long long>(e.id), e.name,
                        static_cast<unsigned long long>(e.args[0]),
                        static_cast<unsigned long long>(e.args[1]));
          } else {
            std::printf("    [%4llu] txn %llu   | %s", static_cast<unsigned long long>(e.ts),
                        static_cast<unsigned long long>(e.id), e.name);
            for (int a = 0; a < 2; ++a) {
              if (e.arg_names[a] != nullptr) {
                std::printf(" %s=%llu", e.arg_names[a],
                            static_cast<unsigned long long>(e.args[a]));
              }
            }
            std::printf("\n");
          }
          break;
        case 'X':
          std::printf("    [%4llu] bank      | service %s (%llu cycles)\n",
                      static_cast<unsigned long long>(e.ts), e.name,
                      static_cast<unsigned long long>(e.dur));
          break;
        case 'i':
          std::printf("    [%4llu]           | %s\n",
                      static_cast<unsigned long long>(e.ts), e.name);
          break;
        default:
          break;  // counter samples are uninteresting here
      }
    }
  }

  [[nodiscard]] std::size_t mark() const { return sim.tracer().event_count(); }

  sim::Simulator sim;
  mem::AddressMap map;
  noc::GmnNetwork net;
  mem::Bank bank;
  std::vector<std::unique_ptr<cache::CacheNode>> nodes;
};

}  // namespace

int main() {
  std::printf("Node map: 0, 1 = processor caches; 2 = memory bank + directory.\n");

  {
    std::printf("\n=== WTI: store hitting a block another cache shares ===\n");
    Rig rig(mem::Protocol::kWti);
    rig.access(0, false, 0x100);  // cache 0 reads (Valid copy)
    rig.access(1, false, 0x100);  // cache 1 reads (Valid copy)
    std::size_t mark = rig.mark();
    std::printf("  cache 0 stores to 0x100 — watch the 4-hop invalidate round:\n");
    rig.access(0, true, 0x100, 42);
    rig.print_flow(mark);
  }

  {
    std::printf("\n=== WB-MESI: the Figure 2 six-hop write-allocate ===\n");
    Rig rig(mem::Protocol::kWbMesi);
    rig.access(1, true, 0x100, 0xaa);   // cache 1 holds 0x100 Modified
    rig.access(0, true, 0x1100, 0xbb);  // cache 0's victim line is Modified
    std::size_t mark = rig.mark();
    std::printf("  cache 0 stores to 0x100 — write-back (5,6) + allocate (1-4):\n");
    rig.access(0, true, 0x100, 0xcc);
    rig.print_flow(mark);
  }

  std::printf("\nDone. Compare the message sequences with the paper's §4.2.\n");
  return 0;
}
