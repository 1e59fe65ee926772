#include "core/system.hpp"

#include <algorithm>
#include <sstream>

#include "sim/heartbeat.hpp"
#include "sim/parallel.hpp"

namespace ccnoc::core {

SystemConfig SystemConfig::architecture1(unsigned n, mem::Protocol p) {
  SystemConfig c;
  c.num_cpus = n;
  c.num_banks = 2;
  c.arch = os::ArchKind::kCentralized;
  c.protocol = p;
  c.kernel.policy = os::SchedPolicy::kSmp;
  return c;
}

SystemConfig SystemConfig::architecture2(unsigned n, mem::Protocol p) {
  SystemConfig c;
  c.num_cpus = n;
  c.num_banks = n + 3;
  c.arch = os::ArchKind::kDistributed;
  c.protocol = p;
  c.kernel.policy = os::SchedPolicy::kDs;
  return c;
}

std::string SystemConfig::describe() const {
  std::ostringstream os;
  os << to_string(protocol) << " " << to_string(arch) << " n=" << num_cpus
     << " m=" << num_banks;
  if (two_level()) os << " l2=" << num_l2_banks;
  os << " " << to_string(kernel.policy)
     << (network == NetworkKind::kGmn    ? " GMN"
         : network == NetworkKind::kMesh ? " mesh"
                                         : " bus");
  return os.str();
}

namespace {
unsigned log2u(unsigned v) {
  unsigned s = 0;
  while ((1u << s) < v) ++s;
  return s;
}
}  // namespace

System::System(SystemConfig cfg)
    : cfg_(cfg),
      sim_(cfg.seed),
      // Block-granularity L2 interleave (l2_shift = log2 block size): each
      // memory-tier block then has exactly one L2 client, which is what lets
      // the memory banks keep the unmodified flat engine.
      map_(cfg.num_cpus, cfg.num_banks, 24,
           cfg.two_level() ? cfg.num_l2_banks : 0, log2u(cfg.dcache.block_bytes)) {
  // One platform-wide block size: caches and banks must agree on the
  // coherence granule.
  CCNOC_ASSERT(cfg_.dcache.block_bytes == cfg_.icache.block_bytes,
               "I/D caches must share one block size");
  CCNOC_ASSERT(cfg_.hierarchy_levels >= 1 && cfg_.hierarchy_levels <= 2,
               "hierarchy_levels must be 1 (flat) or 2 (shared L2)");
  cfg_.bank.block_bytes = cfg_.dcache.block_bytes;
  if (cfg_.two_level()) {
    CCNOC_ASSERT(cfg_.num_l2_banks >= 1 && cfg_.num_l2_banks <= 64,
                 "memory directories track L2 banks in a 64-bit presence word");
    cfg_.l2.bank.block_bytes = cfg_.dcache.block_bytes;
    // The direct-ack optimization is an L1-facing policy; it rides on the
    // platform knob so a two-level run of an optimized config stays
    // comparable to its flat counterpart.
    cfg_.l2.bank.direct_inval_ack = cfg_.bank.direct_inval_ack;
    // L1 controllers resolve hierarchy-only transitions (e.g. a WTU L1
    // acknowledging a back-invalidation) through the extension tables.
    cfg_.dcache.hierarchy = true;
    cfg_.icache.hierarchy = true;
  }

  // Tracer mode before any component is built: constructors register their
  // tracks, link slots and bank slots with it.
  sim_.tracer().set_mode(cfg_.trace);
  sim_.tracer().set_epoch_cycles(cfg_.trace_epoch);

  // Profiler too: caches, banks and the network cache `&sim.profiler()` and
  // register their bank/link slots during construction.
  sim_.profiler().set_mode(cfg_.profile);
  sim_.profiler().set_epoch_cycles(cfg_.profile_epoch);
  sim_.profiler().set_block_bytes(cfg_.dcache.block_bytes);

  // Latency observatory likewise: controllers, banks and the network cache
  // `&sim.latency()` at construction.
  sim_.latency().set_mode(cfg_.latency);
  sim_.latency().set_top_k(cfg_.latency_top_k);

  // Domain partition before any component: controllers and banks cache
  // their coverage shard (and the node-to-domain map is fixed) at
  // construction. Serial configs (0/1) leave the classic single-queue
  // layout untouched.
  if (cfg_.parallel_domains > 1) {
    CCNOC_ASSERT(cfg_.network == NetworkKind::kGmn,
                 "the parallel core requires the GMN fabric (its min_latency "
                 "is the lookahead)");
    sim_.configure_domains(
        std::min(cfg_.parallel_domains, unsigned(map_.num_nodes())));
  }

  // Checker likewise before any component: processors and banks cache the
  // probe pointer in their constructors.
  if (cfg_.check.enabled) {
    checker_ = std::make_unique<check::Checker>(sim_, map_, cfg_.protocol,
                                                cfg_.dcache, cfg_.check);
    if (checker_->wants_probe()) sim_.set_probe(checker_.get());
  }

  const std::size_t nodes = map_.num_nodes();
  switch (cfg_.network) {
    case NetworkKind::kGmn: {
      // Explicit config wins; otherwise derive from the node count. The
      // GmnNetwork constructor rejects min_latency == 0 (an explicit zero
      // was historically a derive-me sentinel; now it is just invalid).
      const noc::GmnConfig g = cfg_.gmn ? *cfg_.gmn : noc::GmnConfig::for_nodes(nodes);
      net_ = std::make_unique<noc::GmnNetwork>(sim_, nodes, g);
      break;
    }
    case NetworkKind::kMesh:
      net_ = std::make_unique<noc::MeshNetwork>(sim_, nodes, cfg_.mesh);
      break;
    case NetworkKind::kBus:
      net_ = std::make_unique<noc::BusNetwork>(sim_, nodes);
      break;
  }

  // Memory tier. On a two-level platform its clients are the L2 banks, not
  // the CPUs: the directory is re-pointed at the L2 node-id range, and the
  // engine always runs flat write-back MESI — the block interleave gives
  // memory one client per block, so fills are granted Exclusive and the L1
  // protocol choice is entirely an upper-tier affair.
  mem::BankConfig mem_cfg = cfg_.bank;
  mem::Protocol mem_proto = cfg_.protocol;
  if (cfg_.two_level()) {
    mem_cfg.dir_clients = cfg_.num_l2_banks;
    mem_cfg.dir_client_base = map_.l2_node(0);
    mem_cfg.direct_inval_ack = false;  // L1-facing policy; meaningless here
    mem_proto = mem::Protocol::kWbMesi;
  }
  std::vector<mem::Bank*> bank_ptrs;
  for (unsigned b = 0; b < cfg_.num_banks; ++b) {
    banks_.push_back(
        std::make_unique<mem::Bank>(sim_, *net_, map_, b, mem_proto, mem_cfg));
    bank_ptrs.push_back(banks_.back().get());
  }
  dmem_ = std::make_unique<mem::BankedDirectMemory>(map_, std::move(bank_ptrs));

  if (cfg_.two_level()) {
    for (unsigned i = 0; i < cfg_.num_l2_banks; ++i) {
      l2_banks_.push_back(std::make_unique<mem::L2Bank>(sim_, *net_, map_, i,
                                                        cfg_.protocol, cfg_.l2));
    }
  }

  for (unsigned c = 0; c < cfg_.num_cpus; ++c) {
    nodes_.push_back(std::make_unique<cache::CacheNode>(
        sim_, *net_, map_, c, cfg_.protocol, cfg_.dcache, cfg_.icache));
    cpus_.push_back(std::make_unique<cpu::Processor>(sim_, *nodes_.back(), c, cfg_.cpu));
  }

  if (checker_) {
    for (auto& b : banks_) checker_->register_bank(*b);
    for (auto& l2 : l2_banks_) checker_->register_l2(*l2);
    for (unsigned c = 0; c < cfg_.num_cpus; ++c) {
      checker_->register_node(c, nodes_[c]->dcache(), nodes_[c]->icache());
    }
  }

  // The kernel loads programs and initializes locks/barriers through the
  // mirror, so the oracle's reference image includes the initial data.
  mirror_ = std::make_unique<check::MirroredMemory>(*dmem_, checker_.get());
  kernel_ = std::make_unique<os::Kernel>(map_, *mirror_, cfg_.arch, cfg_.kernel);
}

RunResult System::run(apps::Workload& workload, unsigned nthreads,
                      sim::Cycle max_cycles) {
  if (nthreads == 0) nthreads = cfg_.num_cpus;

  for (unsigned t = 0; t < nthreads; ++t) {
    kernel_->create_thread(/*home_cpu=*/t % cfg_.num_cpus);
  }
  workload.setup(*kernel_, nthreads);
  for (const auto& tptr : kernel_->threads()) {
    kernel_->set_program(*tptr, workload.make_program(*tptr));
  }

  std::vector<cpu::Processor*> cpu_ptrs;
  for (auto& p : cpus_) cpu_ptrs.push_back(p.get());
  // Engine choice must precede launch: Processor::start seeds each CPU's
  // first event, and it must land in the queue the chosen engine will run.
  const bool partitioned = sim_.num_domains() > 1;
  const char* block = partitioned ? parallel_block_reason(nthreads) : nullptr;
  const bool use_parallel = partitioned && block == nullptr;
  sim_.set_domain_seeding(use_parallel);
  kernel_->launch(cpu_ptrs);

  RunResult r;
  r.observers = observer_set();
  if (use_parallel) {
    r.engine = "parallel";
    r.engine_domains = sim_.num_domains();
  } else if (partitioned) {
    r.engine_fallback = block;
  }
  if (sim_.tracer().on()) {
    sim_.tracer().set_run_context(r.engine, r.engine_domains, r.engine_fallback,
                                  r.observers);
  }
  if (use_parallel) {
    r.events = run_parallel(max_cycles);
  } else if (checker_) {
    r.events = run_with_checker(max_cycles);
  } else {
    r.events = sim_.run_to_completion(max_cycles);
  }
  r.completed = kernel_->all_finished();

  // Execution time = last cycle a processor retired work (the event queue
  // drain point also includes trailing protocol settle traffic).
  sim::Cycle end = 0;
  for (auto& p : cpus_) {
    end = std::max(end, p->last_active_cycle());
    r.d_stall_cycles += p->d_stall_cycles();
    r.i_stall_cycles += p->i_stall_cycles();
    r.instructions += p->instructions();
  }
  r.exec_cycles = end;
  r.noc_bytes = net_->total_bytes();
  r.noc_packets = net_->total_packets();
  if (sim_.tracer().on()) {
    r.stall_attr = sim_.tracer().stall_attr();
    r.stall_attr.resize(cfg_.num_cpus);  // CPUs that never stalled stay zero
  }
  // Embed the latency breakdown into the tracer's run report, so one
  // report_json() carries both views. latency_json is deterministic (no
  // run/engine metadata), so only the report's "run" object names the
  // engine.
  if (sim_.tracer().on() && sim_.latency().on()) {
    sim_.tracer().set_report_extra(",\"latency\":" +
                                   sim::latency_json(sim_.latency()));
  }

  // The strict end-of-run audit needs the caches intact (pre-flush) and a
  // quiescent platform; the image check runs post-flush, which deliberately
  // bypasses the oracle mirror so the comparison stays meaningful.
  if (checker_ && r.completed && quiescent()) checker_->final_audit();
  flush_caches();
  if (checker_ && r.completed) checker_->final_image_check();
  if (checker_) {
    r.check_ok = checker_->ok();
    r.check_violations = checker_->violation_count();
    r.check_loads_verified = checker_->loads_checked();
    if (!r.check_ok) r.check_report = checker_->report();
  }
  r.verified = r.completed && workload.verify(*dmem_);
  return r;
}

bool System::parallel_eligible(unsigned nthreads) const {
  return sim_.num_domains() > 1 && parallel_block_reason(nthreads) == nullptr;
}

const char* System::parallel_block_reason(unsigned nthreads) const {
  // Serial-only runs:
  //
  //  - any observer on (tracer, profiler, latency, checker, trace-level
  //    logging): observed runs are slower on the parallel engine than on
  //    the serial one (EXPERIMENTS.md, "Parallel observability"), so the
  //    observers record in event order on the serial core only;
  //  - oversubscription migrates threads through the shared scheduler
  //    queues mid-run and couples domains. With at most one thread per CPU
  //    those queues stay empty.
  if (observer_set() != "none") return "observers";
  if (nthreads > cfg_.num_cpus) return "oversubscribed";
  return nullptr;
}

std::string System::observer_set() const {
  std::string s;
  auto add = [&s](const char* name) {
    if (!s.empty()) s += ',';
    s += name;
  };
  if (sim_.tracer().on()) add(sim_.tracer().full() ? "trace" : "metrics");
  if (sim_.profiler().on()) add("profile");
  if (sim_.latency().on()) add("latency");
  if (checker_ != nullptr) add("check");
  if (sim_.logger().level() != sim::LogLevel::None) add("log");
  return s.empty() ? std::string("none") : s;
}

std::uint64_t System::run_parallel(sim::Cycle max_cycles) {
  auto* gmn = static_cast<noc::GmnNetwork*>(net_.get());

  // Everything scheduled so far went through Processor::start, which seeds
  // each CPU's first step directly into its own domain queue; the global
  // queue must be empty or those events would never execute.
  CCNOC_ASSERT(sim_.queue().empty(), "parallel run with events in the serial queue");

  sim::ParallelConfig pc;
  pc.domains = sim_.num_domains();
  pc.lookahead = gmn->config().min_latency;
  pc.workers = cfg_.parallel_workers;
  sim::ParallelEngine engine(sim_, pc);

  net_->enable_stat_shards(map_.num_nodes());
  gmn->set_cross_post([&engine](sim::NodeId src, sim::NodeId dst, sim::Cycle when,
                                std::uint64_t seq, sim::EventQueue::Callback cb) {
    engine.post(src, dst, when, seq, std::move(cb));
  });

  // Live telemetry: a wall-clock sampler thread off the workers reads the
  // engine's relaxed progress counters. Barrier-wait timing costs two clock
  // reads per worker per barrier, so it is only armed when someone listens.
  sim::HeartbeatConfig hc;
  hc.interval_ms = cfg_.heartbeat_ms;
  hc.json_path = cfg_.heartbeat_json;
  sim::Heartbeat hb(hc, [&engine] {
    sim::Heartbeat::Sample s;
    s.engine = "parallel";
    const sim::ParallelEngine::ProgressSnapshot p = engine.progress();
    s.epochs = p.epochs;
    s.domains.reserve(p.domains.size());
    for (std::size_t d = 0; d < p.domains.size(); ++d) {
      s.domains.push_back({unsigned(d), p.domains[d].cycle, p.domains[d].events,
                           p.domains[d].mailbox});
    }
    s.workers.reserve(p.worker_barrier_wait_ns.size());
    for (std::size_t w = 0; w < p.worker_barrier_wait_ns.size(); ++w) {
      s.workers.push_back({unsigned(w), p.worker_barrier_wait_ns[w]});
    }
    return s;
  });
  if (hb.enabled()) engine.enable_progress_timing();
  hb.start();

  const sim::Cycle limit = max_cycles;  // all domain clocks start at zero
  const std::uint64_t events = engine.run(limit);

  hb.stop();
  gmn->set_cross_post({});
  net_->finalize_stats();
  return events;
}

std::uint64_t System::run_with_checker(sim::Cycle max_cycles) {
  // Same event sequence as run_to_completion — the walker only *reads*
  // platform state between events — chunked so invariants are audited every
  // walk_interval cycles. EventQueue::run advances now to the chunk limit
  // even when idle, so the loop always makes progress.
  const sim::Cycle limit =
      max_cycles == ~sim::Cycle{0} ? max_cycles : sim_.now() + max_cycles;
  const sim::Cycle interval = std::max<sim::Cycle>(cfg_.check.walk_interval, 1);
  std::uint64_t events = 0;
  while (true) {
    events += sim_.queue().run(std::min(limit, sim_.now() + interval));
    checker_->walk();
    if (checker_->should_stop()) break;
    if (sim_.queue().empty() || sim_.now() >= limit) break;
  }
  return events;
}

void System::flush_caches() {
  if (l2_banks_.empty()) {
    for (auto& n : nodes_) {
      n->dcache().flush_dirty([this](sim::Addr a, const void* data, unsigned len) {
        dmem_->write(a, data, len);
      });
    }
    return;
  }
  // Two-level: dirty L1 lines collapse into their home L2 bank first
  // (inclusion guarantees the line is resident there), then dirty L2 lines
  // land in DRAM — the same path a timed write-back would take.
  for (auto& n : nodes_) {
    n->dcache().flush_dirty([this](sim::Addr a, const void* data, unsigned len) {
      l2_banks_[map_.l2_index_of(a)]->absorb_l1_flush(
          a, static_cast<const std::uint8_t*>(data), len);
    });
  }
  for (auto& l2 : l2_banks_) {
    l2->flush_dirty([this](sim::Addr a, const void* data, unsigned len) {
      dmem_->write(a, data, len);
    });
  }
}

bool System::quiescent() const {
  for (const auto& n : nodes_) {
    if (!n->idle()) return false;
  }
  for (const auto& b : banks_) {
    if (!b->idle()) return false;
  }
  for (const auto& l2 : l2_banks_) {
    if (!l2->idle()) return false;
  }
  return true;
}

RunResult run_paper_config(unsigned arch, mem::Protocol proto, unsigned n,
                           apps::Workload& workload, sim::Cycle max_cycles) {
  CCNOC_ASSERT(arch == 1 || arch == 2, "paper defines architectures 1 and 2");
  SystemConfig cfg = arch == 1 ? SystemConfig::architecture1(n, proto)
                               : SystemConfig::architecture2(n, proto);
  System sys(cfg);
  return sys.run(workload, 0, max_cycles);
}

}  // namespace ccnoc::core
