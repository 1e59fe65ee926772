#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "proto/coverage.hpp"
#include "sim/event_queue.hpp"
#include "sim/latency.hpp"
#include "sim/log.hpp"
#include "sim/probe.hpp"
#include "sim/profile.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/tracer.hpp"
#include "sim/types.hpp"

/// \file simulator.hpp
/// The shared simulation context handed to every component: the event queue,
/// the statistics registry, the logger, the tracer and the platform RNG.
/// Owning all five in one object makes a platform instance fully
/// self-contained, so several platforms (e.g. a WTI run and a MESI run) can
/// coexist in one process.
///
/// Domains: the conservative parallel core (sim/parallel.hpp) partitions a
/// platform into independently steppable domains, each with its own
/// EventQueue, mapped from NoC node ids round-robin. Components never name a
/// queue — they call schedule_in()/schedule_at()/now(), which route to the
/// queue of the domain currently executing (a thread-local execution scope
/// the engine establishes around each domain's event batch). Outside any
/// scope — the single-threaded reference path, unit tests, the checker's
/// chunked pump — the calls fall through to the classic global queue, so
/// serial code needs no guards.

namespace ccnoc::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  EventQueue& queue() { return queue_; }
  StatsRegistry& stats() { return stats_; }
  Logger& logger() { return logger_; }
  [[nodiscard]] const Logger& logger() const { return logger_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  Profiler& profiler() { return profiler_; }
  const Profiler& profiler() const { return profiler_; }
  LatencyObservatory& latency() { return latency_; }
  const LatencyObservatory& latency() const { return latency_; }
  Rng& rng() { return rng_; }

  // --- domain partition (parallel core) ------------------------------------

  /// Split the platform into \p n independently steppable domains. Must be
  /// called before components are built (they cache their coverage shard at
  /// construction) and at most once. n <= 1 keeps the serial layout: one
  /// global queue, one coverage bitmap, nothing else changes.
  void configure_domains(unsigned n) {
    CCNOC_ASSERT(domain_queues_.empty(), "domains configured twice");
    if (n <= 1) return;
    domain_queues_.reserve(n);
    for (unsigned i = 0; i < n; ++i) domain_queues_.push_back(std::make_unique<EventQueue>());
    coverage_shards_.resize(n);
  }

  [[nodiscard]] unsigned num_domains() const {
    return domain_queues_.empty() ? 1 : unsigned(domain_queues_.size());
  }
  /// Domain owning NoC node \p node (round-robin over cache and bank nodes).
  [[nodiscard]] unsigned domain_of(NodeId node) const {
    return domain_queues_.empty() ? 0 : node % unsigned(domain_queues_.size());
  }
  /// Queue of domain \p d; d == 0 aliases the global/serial queue only when
  /// no domains were configured.
  EventQueue& domain_queue(unsigned d) {
    if (domain_queues_.empty()) return queue_;
    return *domain_queues_.at(d);
  }

  /// Pre-run seeding switch. A parallel run wants each component's initial
  /// event in its own domain queue; a serial run (including the sequenced
  /// fallback of a domain-partitioned platform, e.g. when tracing is on)
  /// needs everything in the global queue or it would never execute. The
  /// runner flips this right before launching the workload, once it knows
  /// which engine the run will use.
  void set_domain_seeding(bool on) { seed_domains_ = on; }
  /// Queue that pre-run seed events for \p node belong in under the current
  /// seeding switch.
  EventQueue& seed_queue(NodeId node) {
    return seed_domains_ ? domain_queue(domain_of(node)) : queue_;
  }

  /// RAII execution scope: while alive on this thread, now()/schedule_*()
  /// on \p sim route to \p q. The parallel engine wraps each domain's event
  /// batch in one; nothing else ever creates these.
  class ExecScope {
   public:
    ExecScope(Simulator& sim, EventQueue& q) : prev_(tls()) { tls() = {&sim, &q}; }
    ~ExecScope() { tls() = prev_; }
    ExecScope(const ExecScope&) = delete;
    ExecScope& operator=(const ExecScope&) = delete;

   private:
    friend class Simulator;
    struct Binding {
      Simulator* sim = nullptr;
      EventQueue* q = nullptr;
    };
    static Binding& tls() {
      static thread_local Binding b;
      return b;
    }
    Binding prev_;
  };

  /// The queue events on this thread are currently executing from: the
  /// active domain's inside an ExecScope, the global queue otherwise.
  EventQueue& active_queue() {
    const ExecScope::Binding& b = ExecScope::tls();
    return b.sim == this ? *b.q : queue_;
  }
  [[nodiscard]] const EventQueue& active_queue() const {
    const ExecScope::Binding& b = ExecScope::tls();
    return b.sim == this ? *b.q : queue_;
  }

  // --- protocol coverage ----------------------------------------------------

  /// Transition-coverage shard for components on NoC node \p node. With no
  /// domain partition this is the platform bitmap itself; with one, each
  /// domain records into its own shard so concurrent domains never share a
  /// cache line, and proto_coverage() folds them on demand.
  proto::CoverageSet& proto_coverage_shard(NodeId node) {
    if (coverage_shards_.empty()) return coverage_;
    return coverage_shards_[domain_of(node)];
  }

  /// Transition-coverage bitmap over the declarative protocol tables
  /// (proto/tables.hpp), folded over all domain shards. Per-platform, so
  /// parallel sweeps never share it.
  [[nodiscard]] proto::CoverageSet proto_coverage() const {
    proto::CoverageSet merged = coverage_;
    for (const auto& s : coverage_shards_) merged.merge(s);
    return merged;
  }

  /// Coherence-checking probe (null when checking is off). Components cache
  /// this pointer at construction, so it must be set before the platform is
  /// built — the same contract as the tracer mode.
  void set_probe(CoherenceProbe* p) { probe_ = p; }
  [[nodiscard]] CoherenceProbe* probe() const { return probe_; }

  [[nodiscard]] Cycle now() const { return active_queue().now(); }

  /// Typed scheduling (see EventQueue::Fn): no callable is built or stored,
  /// which is what the per-step hot paths (processor, bank) use.
  void schedule_in(Cycle delay, EventQueue::Fn fn, void* ctx, std::uint64_t arg = 0) {
    active_queue().schedule_in(delay, fn, ctx, arg);
  }
  void schedule_at(Cycle when, EventQueue::Fn fn, void* ctx, std::uint64_t arg = 0) {
    active_queue().schedule_at(when, fn, ctx, arg);
  }
  void schedule_in(Cycle delay, EventQueue::Callback cb) {
    active_queue().schedule_in(delay, std::move(cb));
  }
  void schedule_at(Cycle when, EventQueue::Callback cb) {
    active_queue().schedule_at(when, std::move(cb));
  }
  /// Canonically keyed insert into the active queue (see
  /// EventQueue::schedule_keyed) — the NoC fabric-arrival path.
  void schedule_keyed(Cycle when, std::uint64_t key, EventQueue::Callback cb) {
    active_queue().schedule_keyed(when, key, std::move(cb));
  }

  /// Drain the event queue, stopping after \p max_cycles as a hang guard.
  /// Returns the number of events executed.
  std::uint64_t run_to_completion(Cycle max_cycles = ~Cycle{0}) {
    return queue_.run(max_cycles == ~Cycle{0} ? max_cycles : queue_.now() + max_cycles);
  }

  /// Leveled logging with lazy message construction: the factory callable
  /// is only invoked when the level is enabled, so a LogLevel::None run
  /// pays one branch per call site and performs no string work. Call as
  ///   sim.trace("noc", [&] { return format_something(); });
  template <typename F>
  void trace(const char* component, F&& make_msg) {
    if (logger_.enabled(LogLevel::Trace)) logger_.emit(now(), component, make_msg());
  }
  template <typename F>
  void debug(const char* component, F&& make_msg) {
    if (logger_.enabled(LogLevel::Debug)) logger_.emit(now(), component, make_msg());
  }

 private:
  EventQueue queue_;
  // unique_ptr elements keep queue addresses stable and give each domain's
  // heap its own allocation (no false sharing between domain headers).
  std::vector<std::unique_ptr<EventQueue>> domain_queues_;
  StatsRegistry stats_;
  Logger logger_;
  Tracer tracer_;
  Profiler profiler_;
  LatencyObservatory latency_;
  Rng rng_;
  proto::CoverageSet coverage_;
  std::vector<proto::CoverageSet> coverage_shards_;
  CoherenceProbe* probe_ = nullptr;
  bool seed_domains_ = false;
};

}  // namespace ccnoc::sim
