#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cache/config.hpp"
#include "check/oracle.hpp"
#include "mem/direct_memory.hpp"
#include "mem/protocol.hpp"
#include "sim/probe.hpp"
#include "sim/simulator.hpp"

/// \file checker.hpp
/// Runtime coherence checker: the golden-model oracle (oracle.hpp) plus an
/// invariant walker that audits the platform's protocol state every N
/// cycles. The checker implements `sim::CoherenceProbe`, so when enabled it
/// is installed on the Simulator before the platform is built and receives
/// every commit / global-visibility event; when disabled nothing is
/// installed and the hot paths pay one null-pointer branch per hook (the
/// tracer cost model).
///
/// The walker audits, at every walk point (and strictly at end of run):
///  * SWMR — at most one Exclusive/Modified copy of a block exists, and it
///    never coexists with any other valid copy (MESI; strict at all times,
///    because grants are only issued after every stale copy has acked).
///    Reported in block-address order, naming the lowest-numbered owner.
///  * Write-through cleanliness — WTI/WTU caches hold lines only in I or S,
///    and their directory entries are never dirty (memory is always clean).
///  * Directory/tag cross-check — a valid cached copy implies its presence
///    bit (full-map directory is an over-approximation: bits without copies
///    are legal after silent evictions, copies without bits are not); a
///    cached E/M line implies a dirty directory entry owned by that cache;
///    a dirty entry names exactly one sharer, its owner.
///  * Data integrity — clean lines (WTI/WTU S, MESI S/E, I-cache) hold the
///    same bytes as their bank's storage. Point-in-time escapes: blocks
///    with an open bank transaction, bytes covered by the CPU's own write
///    buffer (WTI store hits patch the local line before the bank write
///    retires), and blocks sitting in a write-back buffer.
///
/// Escapes apply only to the periodic walk; `final_audit()` re-runs the
/// walk with no escapes (callers must ensure quiescence first), and
/// `final_image_check()` compares the oracle's reference image against bank
/// storage page-by-page after the post-run cache flush.
namespace ccnoc::cache {
class CacheController;
class WtiController;
class MesiController;
}  // namespace ccnoc::cache

namespace ccnoc::mem {
class L2Bank;
}  // namespace ccnoc::mem

namespace ccnoc::check {

struct CheckConfig {
  bool enabled = false;      ///< master switch; off = no probe, no walker
  bool oracle = true;        ///< golden-model load/store cross-checking
  bool invariants = true;    ///< periodic invariant walker
  sim::Cycle walk_interval = 1024;  ///< cycles between invariant walks
  bool stop_on_violation = true;    ///< stop the run at the first violation
  bool abort_on_violation = false;  ///< abort() instead (for debugger runs)
  unsigned max_violations = 64;     ///< messages kept (total count unbounded)
  /// Byte-version history kept for the oracle's reads-from window check;
  /// must exceed the worst-case load latency (issue→commit) by a margin.
  sim::Cycle history_horizon = 1 << 16;
};

/// One detected violation (a property that can never hold on a correct run).
struct Violation {
  sim::Cycle cycle = 0;
  std::string rule;    ///< short rule id, e.g. "swmr", "oracle-load"
  std::string detail;  ///< human-readable diagnosis
};

class Checker final : public sim::CoherenceProbe {
 public:
  /// Must be constructed (and installed via Simulator::set_probe when
  /// `wants_probe()`) BEFORE any platform component: processors and banks
  /// cache the probe pointer in their constructors.
  ///
  /// The oracle is self-gating: it models sequential consistency, so it
  /// activates only for configurations that promise SC — kWbMesi, and kWti
  /// with drain_on_load_miss. For kWtu and relaxed kWti only the invariant
  /// walker runs.
  Checker(sim::Simulator& sim, const mem::AddressMap& map, mem::Protocol proto,
          const cache::CacheConfig& dcache_cfg, CheckConfig cfg);
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  /// Registration, after the platform is built (walker introspection).
  void register_node(unsigned cpu, cache::CacheController& dcache,
                     cache::CacheController& icache);
  void register_bank(mem::Bank& bank);
  /// Two-level platforms also register their shared L2 banks: the walker
  /// then retargets every L1-facing cross-check at the block's home L2 bank
  /// (that is where the L1 directory lives), audits inclusion in both
  /// directions, and audits the memory tier as a MESI directory over the L2
  /// banks.
  void register_l2(mem::L2Bank& l2);

  [[nodiscard]] bool oracle_enabled() const { return oracle_ != nullptr; }
  /// True when the probe must be installed on the Simulator (oracle on);
  /// the walker alone needs no hooks.
  [[nodiscard]] bool wants_probe() const { return oracle_ != nullptr; }

  // --- sim::CoherenceProbe -------------------------------------------------
  void load_commit(unsigned cpu, sim::Addr a, unsigned size, std::uint64_t v,
                   sim::Cycle issued) override;
  void store_commit(unsigned cpu, sim::Addr a, unsigned size, std::uint64_t v) override;
  void atomic_commit(unsigned cpu, sim::Addr a, unsigned size,
                     std::uint64_t returned_old, std::uint64_t operand,
                     bool is_add) override;
  void global_store(unsigned cpu, sim::Addr a, unsigned size, std::uint64_t v,
                    bool deferred) override;
  void global_atomic(unsigned cpu, sim::Addr a, unsigned size, bool is_add,
                     std::uint64_t operand) override;
  void txn_released(unsigned cpu, sim::Addr block) override;
  void backdoor_write(sim::Addr a, const void* data, unsigned len) override;

  // --- invariant walker ----------------------------------------------------
  /// Periodic audit (point-in-time escapes for legal transients) + oracle
  /// history GC. Called from the run loop every `walk_interval` cycles.
  void walk();
  /// End-of-run strict audit (no escapes). The caller must ensure the
  /// platform is quiescent; also verifies every committed store retired.
  void final_audit();
  /// After flush_caches(): the oracle's reference image and the banks'
  /// storage must be byte-identical, page by page, in both directions.
  void final_image_check();

  // --- results -------------------------------------------------------------
  [[nodiscard]] bool ok() const { return total_violations_ == 0; }
  [[nodiscard]] bool should_stop() const {
    return cfg_.stop_on_violation && total_violations_ != 0;
  }
  [[nodiscard]] std::uint64_t violation_count() const { return total_violations_; }
  [[nodiscard]] const std::vector<Violation>& violations() const { return violations_; }
  /// Multi-line human-readable summary of the kept violations.
  [[nodiscard]] std::string report() const;

  [[nodiscard]] std::uint64_t walks() const { return walks_; }
  [[nodiscard]] std::uint64_t loads_checked() const;
  [[nodiscard]] std::uint64_t stores_applied() const;
  [[nodiscard]] const CheckConfig& config() const { return cfg_; }

 private:
  /// Walker view of one processor node. Exactly one of wti/mesi is non-null
  /// for the data cache (kWtu runs the WTI controller).
  struct NodeRec {
    cache::CacheController* d = nullptr;
    cache::CacheController* i = nullptr;
    const cache::WtiController* wti = nullptr;
    const cache::MesiController* mesi = nullptr;
  };

  void violation(const char* rule, std::string detail);
  void walk_impl(bool strict);
  [[nodiscard]] mem::Bank& bank_of(sim::Addr a) const {
    return *banks_[map_.bank_index_of(a)];
  }
  [[nodiscard]] sim::Addr block_of(sim::Addr a) const {
    return a & ~sim::Addr(block_bytes_ - 1);
  }

  sim::Simulator& sim_;
  const mem::AddressMap& map_;
  mem::Protocol proto_;
  CheckConfig cfg_;
  unsigned block_bytes_;
  bool write_through_;

  std::unique_ptr<Oracle> oracle_;  ///< null when gated off (see ctor)
  std::vector<NodeRec> nodes_;      ///< indexed by cpu
  std::vector<mem::Bank*> banks_;   ///< indexed by bank
  std::vector<mem::L2Bank*> l2_banks_;  ///< indexed by l2 bank; empty = flat

  // Walker scratch (invariants.cpp), cleared at every walk and kept between
  // walks so a walk allocates nothing once the vectors have grown.
  /// Bytes of one block covered by a CPU's own buffered stores, bit i =
  /// byte i of the block.
  struct OwnBytes {
    sim::Addr block;
    std::uint64_t mask;
  };
  /// An Exclusive/Modified data-cache copy, for the SWMR audit.
  struct OwnedCopy {
    sim::Addr block;
    unsigned cpu;
    friend bool operator<(const OwnedCopy& a, const OwnedCopy& b) {
      return a.block != b.block ? a.block < b.block : a.cpu < b.cpu;
    }
  };
  std::vector<sim::Addr> wb_blocks_;     ///< in a write-back buffer; sorted
  std::vector<OwnBytes> own_bytes_;      ///< the walked CPU's buffered stores
  std::vector<sim::Addr> valid_blocks_;  ///< one entry per valid data-cache copy
  std::vector<OwnedCopy> owned_;         ///< E/M data-cache copies

  std::vector<Violation> violations_;  ///< first `max_violations` kept
  std::uint64_t total_violations_ = 0;
  std::uint64_t walks_ = 0;
};

/// Untimed-memory wrapper that mirrors every backdoor write into the
/// checker's golden model, so program loading and lock/barrier
/// initialization are part of the reference image. Reads pass through.
/// With a null checker it degrades to plain forwarding.
class MirroredMemory final : public mem::DirectMemoryIf {
 public:
  MirroredMemory(mem::DirectMemoryIf& base, Checker* checker)
      : base_(base), checker_(checker) {}

  void write(sim::Addr a, const void* data, unsigned len) override {
    base_.write(a, data, len);
    if (checker_ != nullptr) checker_->backdoor_write(a, data, len);
  }
  void read(sim::Addr a, void* out, unsigned len) const override {
    base_.read(a, out, len);
  }

 private:
  mem::DirectMemoryIf& base_;
  Checker* checker_;
};

}  // namespace ccnoc::check
