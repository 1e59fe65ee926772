#pragma once

#include <functional>
#include <string>

#include "cache/config.hpp"
#include "cache/tag_array.hpp"
#include "mem/address_map.hpp"
#include "noc/network.hpp"
#include "proto/tables.hpp"
#include "sim/simulator.hpp"

/// \file controller.hpp
/// Common machinery of the cache-side protocol engines. A controller
/// serves one in-order processor port (at most one outstanding CPU access,
/// as the paper requires: "uniform access and in-order request issues") and
/// reacts to directory commands arriving from the NoC at any time.

namespace ccnoc::cache {

/// Atomic read-modify-write flavour of a store-class access.
enum class AtomicKind : std::uint8_t {
  kNone,  ///< plain store
  kSwap,  ///< write \p value, return the old value
  kAdd,   ///< add \p value, return the old value (fetch-and-add)
};

/// One processor memory access.
struct MemAccess {
  bool is_store = false;
  AtomicKind atomic = AtomicKind::kNone;
  sim::Addr addr = 0;
  std::uint8_t size = sim::kWordBytes;  ///< 1, 2, 4 or 8 bytes
  std::uint64_t value = 0;              ///< store data / atomic operand

  [[nodiscard]] bool is_atomic() const { return atomic != AtomicKind::kNone; }
};

enum class AccessResult {
  kHit,      ///< completed synchronously; load value returned via out-param
  kPending,  ///< completion callback will fire later
};

/// The processor-facing cache interface: what `cpu::Processor` needs from
/// a data or instruction cache, independent of the coherence organization
/// (directory controllers here; the snoopy-bus controllers in
/// `ccnoc::snoop` implement the same contract).
class CacheIface {
 public:
  /// Completion callback: receives the load value (0 for stores). Taken by
  /// reference: a controller copies it only when the access goes pending,
  /// so a hit builds no std::function.
  using CompleteFn = std::function<void(std::uint64_t)>;

  virtual ~CacheIface() = default;

  /// Issue a processor access. The caller must not issue another access for
  /// this cache until a kHit return or the completion callback. A data cache
  /// stores a hit's load value to \p hit_value; an instruction cache may
  /// leave it untouched, as no fetched word is ever consumed.
  virtual AccessResult access(const MemAccess& a, std::uint64_t* hit_value,
                              const CompleteFn& on_complete) = 0;

  /// Context-switch memory barrier (see CacheController::drain).
  virtual AccessResult drain(const CompleteFn& on_drained) {
    (void)on_drained;
    return AccessResult::kHit;
  }

  [[nodiscard]] virtual const CacheConfig& config() const = 0;
  [[nodiscard]] virtual bool idle() const = 0;
};

class CacheController : public CacheIface {
 public:
  CacheController(sim::Simulator& sim, noc::Network& net, const mem::AddressMap& map,
                  sim::NodeId node, std::uint8_t port, CacheConfig cfg, std::string name);
  CacheController(const CacheController&) = delete;
  CacheController& operator=(const CacheController&) = delete;

  /// A NoC packet addressed to this controller's port.
  virtual void on_packet(const noc::Packet& pkt) = 0;

  // `drain` (the context-switch memory barrier: a migrating thread's
  // buffered stores must complete in program order before it resumes
  // elsewhere) keeps CacheIface's immediate default; the write-through
  // controller overrides it.

  [[nodiscard]] const CacheConfig& config() const override { return cfg_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] TagArray& tags() { return tags_; }

  /// Untimed post-run flush: copy Modified lines back into \p write so the
  /// final memory image is complete for verification. Write-back caches may
  /// legitimately end a run with dirty lines; write-through caches never do.
  template <typename WriteFn>
  void flush_dirty(WriteFn&& write) const {
    tags_.for_each_line([&](const CacheLine& l) {
      if (l.state == LineState::kModified) {
        write(l.block, l.data.data(), cfg_.block_bytes);
      }
    });
  }

 protected:
  void send_to_bank(sim::Addr addr, noc::Message m);
  void send_to_node(sim::NodeId dst, noc::Message m);

  [[nodiscard]] std::uint64_t read_line(const CacheLine& l, sim::Addr a,
                                        unsigned size) const {
    return tags_.read(l, a, size);
  }
  void write_line(CacheLine& l, sim::Addr a, unsigned size, std::uint64_t v) {
    tags_.write(l, a, size, v);
  }

  // Construction-time resolvers for "<name>.<suffix>" statistics. Registry
  // references are stable for its lifetime, so derived controllers resolve
  // their handles once in their constructor and bump raw pointers on the
  // per-access paths instead of re-concatenating names and searching maps.
  [[nodiscard]] sim::Counter* stat(const std::string& suffix) {
    return &sim_.stats().counter(name_ + "." + suffix);
  }
  [[nodiscard]] sim::Sample* stat_sample(const std::string& suffix) {
    return &sim_.stats().sample(name_ + "." + suffix);
  }
  [[nodiscard]] sim::Histogram* stat_histogram(const std::string& suffix,
                                               std::size_t buckets) {
    return &sim_.stats().histogram(name_ + "." + suffix, buckets);
  }

  /// Transaction id for following a miss end-to-end across components.
  /// Composed from (node, port, local sequence) rather than drawn from a
  /// global counter, so ids are unique across the platform yet allocation
  /// touches only this controller's state — the order controllers start
  /// transactions in (which varies with the domain partition mid-cycle)
  /// can't leak into the ids. Consumers treat ids as opaque.
  [[nodiscard]] std::uint64_t next_txn() {
    return (std::uint64_t(node_) * 2 + port_ + 1) << 40 | ++txn_seq_;
  }

  /// Tracer thread id on the "cache" track. A node hosts two sub-ports
  /// (0 = dcache, 1 = icache) that must not share a track.
  [[nodiscard]] std::uint32_t track_tid() const {
    return std::uint32_t(node_) * 2 + port_;
  }

  /// Route a line-state change through the protocol's declarative
  /// transition table (proto/tables.hpp): the table dictates the successor
  /// state and the transition is recorded in the platform's coverage
  /// bitmap. An undeclared (state, event) pair aborts — the table is the
  /// single source of truth shared with the exhaustive model checker.
  void fsm(CacheLine& l, proto::CacheEvent ev) {
    l.state = proto::apply_cache(tbl_, tbl2_, *cov_, l.state, ev);
  }

  /// Fault injection (CacheConfig::fault): true when the current incoming
  /// invalidation must be acknowledged but NOT applied. One-shot.
  [[nodiscard]] bool inject_skip_invalidate() {
    if (cfg_.fault != CacheConfig::FaultKind::kSkipInvalidate || fault_fired_) {
      return false;
    }
    if (fault_seen_++ < cfg_.fault_after) return false;
    fault_fired_ = true;
    return true;
  }

  sim::Simulator& sim_;
  noc::Network& net_;
  const mem::AddressMap& map_;
  sim::NodeId node_;
  std::uint8_t port_;
  CacheConfig cfg_;
  std::string name_;
  TagArray tags_;
  sim::Tracer* tr_;    ///< cached; hot paths guard on tr_->on() / tr_->full()
  sim::Profiler* pf_;  ///< cached; every hook is one predicted branch when off
  sim::LatencyObservatory* lat_;  ///< cached; same one-branch-when-off discipline
  const proto::ProtocolTable& tbl_;  ///< this protocol's transition table
  /// Hierarchy extension table, installed only when this L1 fronts a shared
  /// L2 (CacheConfig::hierarchy): a WTU L1's back-invalidation row exists
  /// only there. Null on flat platforms — fsm() behaves exactly as before.
  const proto::ProtocolTable* tbl2_ = nullptr;
  proto::CoverageSet* cov_;          ///< this node's domain coverage shard

 private:
  std::uint64_t txn_seq_ = 0;
  bool fault_fired_ = false;
  unsigned fault_seen_ = 0;
};

}  // namespace ccnoc::cache
