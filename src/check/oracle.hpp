#pragma once

#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/protocol.hpp"
#include "mem/storage.hpp"
#include "sim/types.hpp"

/// \file oracle.hpp
/// Golden-model reference memory for the coherence checker: a sequentially
/// consistent last-writer image of the whole address space, fed from the
/// probe hooks (see sim/probe.hpp) and cross-checked against every
/// committed load.
///
/// The model tracks, per byte, the full value timeline within a GC horizon.
/// A committed load is legal iff there exists a single instant t inside its
/// lifetime [issue, commit] at which the reference memory held exactly the
/// loaded bytes — the standard reads-from check for SC, which accommodates
/// values picked up at the bank while the response was still in flight.
///
/// Protocol-specific visibility rules (argued in EXPERIMENTS.md):
///  * WB-MESI: a store/atomic commit at the CPU happens with exclusivity
///    held, so commit IS the global-visibility point — applied immediately.
///  * WTI: a committed store is only buffered. It is applied when its home
///    bank retires it (`global_store`), or — for §4.2 direct-ack rounds,
///    where the bank writes storage while invalidations are still in
///    flight — at the requester's TxnDone (`txn_released`). Until then the
///    writer's own loads see it via a per-CPU pending-store overlay
///    (store→load forwarding through its patched local line).
///  * WTI atomics execute at the bank: the expected old value is
///    snapshotted there and checked against what the CPU later commits.
///
/// The oracle supports kWti (with drain_on_load_miss, i.e. the SC
/// configuration) and kWbMesi. kWtu patches sharer copies before the bank
/// write retires, and relaxed WTI is intentionally not SC — for those only
/// the invariant walker runs (see checker.hpp).
namespace ccnoc::check {

class Oracle {
 public:
  Oracle(mem::Protocol proto, unsigned num_cpus, unsigned block_bytes);

  // Mutators / checks. A populated return value is a violation message.
  void backdoor_write(sim::Addr a, const void* data, unsigned len, sim::Cycle now);
  std::optional<std::string> store_commit(unsigned cpu, sim::Addr a, unsigned size,
                                          std::uint64_t v, sim::Cycle now);
  std::optional<std::string> load_commit(unsigned cpu, sim::Addr a, unsigned size,
                                         std::uint64_t v, sim::Cycle issued,
                                         sim::Cycle now);
  std::optional<std::string> atomic_commit(unsigned cpu, sim::Addr a, unsigned size,
                                           std::uint64_t returned_old,
                                           std::uint64_t operand, bool is_add,
                                           sim::Cycle now);
  std::optional<std::string> global_store(unsigned cpu, sim::Addr a, unsigned size,
                                          std::uint64_t v, bool deferred,
                                          sim::Cycle now);
  void global_atomic(unsigned cpu, sim::Addr a, unsigned size, bool is_add,
                     std::uint64_t operand, sim::Cycle now);
  std::optional<std::string> txn_released(unsigned cpu, sim::Addr block,
                                          sim::Cycle now);

  /// End-of-run check: every committed store must have retired (the
  /// platform claims quiescence, so no write may still be "in flight").
  [[nodiscard]] std::optional<std::string> final_drain_check() const;

  /// The reference image (compared against bank storage after the run).
  [[nodiscard]] const mem::PagedStorage& ref() const { return ref_; }

  /// Drop byte-version history that ended before now - horizon. Every load
  /// window starts at its issue cycle, so a horizon far above the worst
  /// transaction latency loses nothing.
  void gc(sim::Cycle now, sim::Cycle horizon);

  [[nodiscard]] std::uint64_t loads_checked() const { return loads_checked_; }
  [[nodiscard]] std::uint64_t stores_applied() const { return stores_applied_; }
  [[nodiscard]] std::uint64_t atomics_checked() const { return atomics_checked_; }

 private:
  /// One value a byte held, starting at `since` (until the next version).
  struct Version {
    sim::Cycle since = 0;
    std::uint8_t value = 0;
  };

  /// A store committed by a CPU but not yet retired by its home bank.
  struct PendingStore {
    sim::Addr addr = 0;
    std::uint8_t size = 0;
    bool deferred = false;  ///< direct-ack round: retires at txn_released
    std::uint64_t value = 0;
  };

  void apply(sim::Addr a, const std::uint8_t* bytes, unsigned len, sim::Cycle now);
  [[nodiscard]] std::uint8_t value_at(sim::Addr byte_addr, sim::Cycle t) const;
  [[nodiscard]] sim::Addr block_of(sim::Addr a) const {
    return a & ~sim::Addr(block_bytes_ - 1);
  }

  mem::Protocol proto_;
  unsigned block_bytes_;
  bool write_through_;

  mem::PagedStorage ref_;  ///< current SC image
  std::unordered_map<sim::Addr, std::vector<Version>> hist_;  ///< per byte
  /// The histories in hist_ holding two or more versions: the only ones gc
  /// can trim (map nodes never move, and no history is ever erased).
  std::vector<std::vector<Version>*> trimmable_;
  std::vector<std::deque<PendingStore>> pending_;             ///< per CPU (WTI)
  std::vector<std::optional<std::uint64_t>> atomic_expected_;  ///< per CPU (WTI)

  std::uint64_t loads_checked_ = 0;
  std::uint64_t stores_applied_ = 0;
  std::uint64_t atomics_checked_ = 0;
};

}  // namespace ccnoc::check
