#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hpp"

namespace ccnoc::sim {

// Line-granularity sharing & contention profiler.
//
// The profiler attributes coherence traffic, invalidations, stalls and bank
// queueing to individual cache lines, classifies each line's access pattern
// (private, read-shared, migratory, producer/consumer, true vs. false
// sharing) from per-CPU and per-word access masks, and snapshots the result
// into a deterministic schema-v1 profile (see profile_report.cpp for the
// JSON/HTML emitters).
//
// Cost discipline mirrors sim::Tracer exactly: every hook is an inline
// mode check — one predicted branch when off — in front of a cold,
// out-of-line slow path. Components cache `&sim.profiler()` at construction
// and never re-check availability. The mode must be set before components
// are built (System does this) so registration hooks see the final mode.
//
// Every hook names (directly or via a registered bank/link) the NoC node
// whose event is executing. Runs with the profiler on take the serial
// engine (core::System falls back whenever an observer is on), so hooks
// update the accounting directly, in event order.
enum class ProfileMode : std::uint8_t {
  kOff = 0,  // hooks compile to a single predicted branch; zero allocations
  kOn = 1,   // full per-line accounting
};

// What kind of access a hook is reporting. Atomics count as both a read and
// a write for sharing classification.
enum class AccessClass : std::uint8_t {
  kLoad = 0,
  kStore = 1,
  kAtomic = 2,
  kIfetch = 3,
};

// Classification of a line's lifetime access pattern, decided at snapshot
// time from the accumulated masks. Ordering is stable: it is the emission
// order in profile.json and must not be reshuffled (schema v1).
enum class SharingPattern : std::uint8_t {
  kUntouched = 0,        // line seen only via coherence side effects
  kCode = 1,             // instruction fetches only
  kPrivate = 2,          // one CPU ever touched it
  kReadShared = 3,       // multiple CPUs, no writer
  kFalseShared = 4,      // multiple CPUs, no word touched by >1 CPU
  kMigratory = 5,        // every sharer both reads and writes (token-style)
  kProducerConsumer = 6, // writers and readers are disjoint CPU sets
  kReadWriteShared = 7,  // genuinely contended read/write sharing
};
inline constexpr unsigned kNumSharingPatterns = 8;
const char* to_string(SharingPattern p);
const char* to_string(AccessClass c);

// Immutable copy of the profiler state, safe to keep after the System dies.
// `lines` is sorted by block address; banks/links are in registration order;
// all of this makes profile_json() byte-deterministic.
struct ProfileSnapshot {
  struct Line {
    Addr block = 0;
    SharingPattern pattern = SharingPattern::kUntouched;
    std::uint64_t reads = 0, writes = 0, atomics = 0, ifetches = 0;
    std::uint64_t readers_mask = 0, writers_mask = 0;
    std::uint64_t misses = 0;
    std::uint64_t invalidations = 0, updates = 0, ping_pongs = 0;
    std::uint64_t fanout_rounds = 0, fanout_total = 0, fanout_max = 0;
    std::uint64_t wbuf_stalls = 0;
    std::uint64_t stall_cycles = 0;
    std::uint64_t traffic_bytes = 0, packets = 0;
    std::uint64_t bank_waits = 0, bank_wait_cycles = 0;
    std::uint64_t epochs_active = 0, epochs_shared = 0, epochs_rw_shared = 0;
    unsigned dir_max_sharers = 0;

    [[nodiscard]] unsigned num_readers() const;
    [[nodiscard]] unsigned num_writers() const;
  };
  struct Bank {
    std::string name;
    unsigned level = 0;  // 0 = memory tier, 1 = shared L2 tier (two-level)
    std::uint64_t conflicts = 0;       // requests that had to queue
    std::uint64_t wait_cycles = 0;     // sum of per-request queue waits
    std::uint64_t occupancy_integral = 0;  // cycle-weighted queue depth
    std::uint64_t max_depth = 0;
    std::vector<std::uint64_t> max_depth_per_epoch;
  };
  struct Link {
    std::string name;
    std::uint64_t flits = 0;
  };
  struct PatternTotal {
    std::uint64_t lines = 0;
    std::uint64_t accesses = 0;
    std::uint64_t traffic_bytes = 0;
    std::uint64_t stall_cycles = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t ping_pongs = 0;
  };

  std::string label;
  unsigned block_bytes = 32;
  Cycle epoch_cycles = 1024;
  std::vector<Line> lines;
  std::vector<Bank> banks;
  std::vector<Link> links;
  std::array<PatternTotal, kNumSharingPatterns> patterns{};
  std::uint64_t total_traffic_bytes = 0, total_packets = 0;
  std::uint64_t total_stall_cycles = 0;
  std::array<std::uint64_t, 4> stalls_by_class{};  // indexed by AccessClass

  // Lines ranked by traffic (ties broken by address), capped at n.
  [[nodiscard]] std::vector<const Line*> hottest(std::size_t n) const;
  // Falsely-shared lines ranked the same way.
  [[nodiscard]] std::vector<const Line*> top_false_shared(std::size_t n) const;
  [[nodiscard]] const Line* find(Addr block) const;
};

class Profiler {
 public:
  static constexpr unsigned kInvalidId = ~0u;
  // Enough word slots for the largest block any config uses (64 B / 4 B).
  static constexpr unsigned kMaxWordSlots = 16;

  void set_mode(ProfileMode m) { mode_ = m; }
  [[nodiscard]] ProfileMode mode() const { return mode_; }
  [[nodiscard]] bool on() const { return mode_ != ProfileMode::kOff; }

  // Both must be set before the first hook fires; System wires them from
  // the config before any component is constructed.
  void set_epoch_cycles(Cycle epoch) { epoch_ = epoch ? epoch : 1; }
  [[nodiscard]] Cycle epoch_cycles() const { return epoch_; }
  void set_block_bytes(unsigned bb);
  [[nodiscard]] unsigned block_bytes() const { return block_bytes_; }

  [[nodiscard]] Addr block_of(Addr a) const { return a & ~Addr(block_bytes_ - 1); }

  // --- cache-side hooks -----------------------------------------------
  // `cpu` doubles as the recording NoC node: CPU i's cache controllers live
  // on NoC node i, and every one of these hooks executes in that node's
  // event.
  // Demand access as seen at the L1 (hit or miss), before any state change.
  void access(Cycle now, unsigned cpu, Addr addr, unsigned size,
              AccessClass cls) {
    if (on()) [[unlikely]] access_slow(now, cpu, addr, size, cls);
  }
  // Demand miss that starts a bank transaction (closes a ping-pong if this
  // CPU was invalidated off the line earlier).
  void miss(Cycle now, unsigned cpu, Addr addr) {
    if (on()) [[unlikely]] miss_slow(now, cpu, addr);
  }
  void invalidate_recv(Cycle now, unsigned cpu, Addr addr, bool had_copy) {
    if (on()) [[unlikely]] invalidate_recv_slow(now, cpu, addr, had_copy);
  }
  void update_recv(Cycle now, unsigned cpu, Addr addr) {
    if (on()) [[unlikely]] update_recv_slow(now, cpu, addr);
  }
  // Write-buffer retire pressure: a request stalled on buffer capacity or
  // on a drain.
  void wbuf_stall(Cycle now, unsigned cpu, Addr addr) {
    if (on()) [[unlikely]] wbuf_stall_slow(now, cpu, addr);
  }

  // --- directory / bank hooks -----------------------------------------
  // One invalidation/update round sent to `targets` sharers by the bank on
  // NoC node `node`.
  void fanout(Cycle now, NodeId node, Addr addr, unsigned targets) {
    if (on()) [[unlikely]] fanout_slow(now, node, addr, targets);
  }
  // Sharer-set width observed by the directory after an insert; `node` is
  // the directory's bank node. The directory has no clock; the only state
  // this touches is a maximum, so no cycle is needed.
  void dir_width(NodeId node, Addr addr, unsigned sharers) {
    if (on()) [[unlikely]] dir_width_slow(node, addr, sharers);
  }
  // `node` is the bank's NoC node.
  // `level` attributes the queue to a hierarchy tier in the report
  // (0 = memory, 1 = shared L2), so two-level runs can tell which tier a
  // hot queue belongs to.
  unsigned register_bank(std::string name, NodeId node, unsigned level = 0);
  void bank_enqueue(Cycle now, unsigned bank, Addr addr, std::size_t depth) {
    if (on()) [[unlikely]] bank_enqueue_slow(now, bank, addr, depth);
  }
  void bank_dequeue(Cycle now, unsigned bank, Addr addr, std::size_t depth) {
    if (on()) [[unlikely]] bank_dequeue_slow(now, bank, addr, depth);
  }

  // --- CPU / NoC hooks -------------------------------------------------
  // Stall attribution: `cycles` is the exact delta the processor adds to
  // d_stall_/i_stall_, so per-line stalls reconcile with the run report.
  void stall(Cycle now, unsigned cpu, Addr addr, Cycle cycles,
             AccessClass cls) {
    if (on()) [[unlikely]] stall_slow(now, cpu, addr, cycles, cls);
  }
  // Every packet the network accepts, recorded in the source node's event;
  // `bytes` is the wire size, `addr` is rounded to a block internally so
  // totals reconcile with noc.bytes.
  void traffic(Cycle now, NodeId src, Addr addr, unsigned bytes) {
    if (on()) [[unlikely]] traffic_slow(now, src, addr, bytes);
  }
  unsigned register_link(std::string name);
  void link_flits(unsigned link, std::uint64_t flits) {
    if (on()) [[unlikely]] link_flits_slow(link, flits);
  }

  // --- inspection -------------------------------------------------------
  [[nodiscard]] std::size_t line_count() const { return lines_.size(); }
  [[nodiscard]] ProfileSnapshot snapshot(std::string label) const;

 private:
  struct LineState {
    std::uint64_t reads = 0, writes = 0, atomics = 0, ifetches = 0;
    std::uint64_t readers_mask = 0, writers_mask = 0;
    std::array<std::uint64_t, kMaxWordSlots> word_readers{};
    std::array<std::uint64_t, kMaxWordSlots> word_writers{};
    std::uint64_t misses = 0;
    std::uint64_t invalidations = 0, updates = 0, ping_pongs = 0;
    std::uint64_t inval_pending = 0;  // CPUs invalidated while holding a copy
    std::uint64_t fanout_rounds = 0, fanout_total = 0, fanout_max = 0;
    std::uint64_t wbuf_stalls = 0;
    std::uint64_t stall_cycles = 0;
    std::uint64_t traffic_bytes = 0, packets = 0;
    std::uint64_t bank_waits = 0, bank_wait_cycles = 0;
    unsigned dir_max_sharers = 0;
    // Per-epoch reader/writer sets, folded into the epochs_* tallies when
    // the line is next touched in a later epoch (or at snapshot time).
    Cycle cur_epoch = ~Cycle{0};
    std::uint64_t epoch_readers = 0, epoch_writers = 0;
    std::uint64_t epochs_active = 0, epochs_shared = 0, epochs_rw_shared = 0;
  };
  struct BankState {
    std::string name;
    unsigned level = 0;  ///< hierarchy tier (0 = memory, 1 = shared L2)
    std::uint64_t conflicts = 0;
    std::uint64_t wait_cycles = 0;
    std::uint64_t occupancy_integral = 0;
    std::uint64_t max_depth = 0;
    std::size_t depth = 0;
    Cycle last_change = 0;
    std::vector<std::uint64_t> max_depth_per_epoch;
    // FIFO of enqueue timestamps per block: bank transactions on one block
    // complete in arrival order, so front() is the departing request.
    std::unordered_map<Addr, std::deque<Cycle>> arrivals;
  };
  struct LinkState {
    std::string name;
    std::uint64_t flits = 0;
  };

  __attribute__((cold)) void access_slow(Cycle now, unsigned cpu, Addr addr,
                                         unsigned size, AccessClass cls);
  __attribute__((cold)) void miss_slow(Cycle now, unsigned cpu, Addr addr);
  __attribute__((cold)) void invalidate_recv_slow(Cycle now, unsigned cpu,
                                                  Addr addr, bool had_copy);
  __attribute__((cold)) void update_recv_slow(Cycle now, unsigned cpu,
                                              Addr addr);
  __attribute__((cold)) void wbuf_stall_slow(Cycle now, unsigned cpu,
                                             Addr addr);
  __attribute__((cold)) void fanout_slow(Cycle now, NodeId node, Addr addr,
                                         unsigned targets);
  __attribute__((cold)) void dir_width_slow(NodeId node, Addr addr,
                                            unsigned sharers);
  __attribute__((cold)) void bank_enqueue_slow(Cycle now, unsigned bank,
                                               Addr addr, std::size_t depth);
  __attribute__((cold)) void bank_dequeue_slow(Cycle now, unsigned bank,
                                               Addr addr, std::size_t depth);
  __attribute__((cold)) void stall_slow(Cycle now, unsigned cpu, Addr addr,
                                        Cycle cycles, AccessClass cls);
  __attribute__((cold)) void traffic_slow(Cycle now, NodeId src, Addr addr,
                                          unsigned bytes);
  __attribute__((cold)) void link_flits_slow(unsigned link,
                                             std::uint64_t flits);

  LineState& line(Addr addr) { return lines_[block_of(addr)]; }
  void touch_epoch(LineState& l, Cycle now) const;
  static void fold_epoch(LineState& l);
  [[nodiscard]] SharingPattern classify(const LineState& l) const;

  ProfileMode mode_ = ProfileMode::kOff;
  Cycle epoch_ = 1024;
  unsigned block_bytes_ = 32;
  unsigned word_slots_ = 8;
  std::unordered_map<Addr, LineState> lines_;
  std::vector<BankState> banks_;
  std::vector<LinkState> links_;
  std::array<std::uint64_t, 4> stalls_by_class_{};
  std::uint64_t total_traffic_bytes_ = 0, total_packets_ = 0;
};

// --- report emitters (profile_report.cpp) ------------------------------
// Deterministic schema-v1 JSON. `top_n` caps the per-line table; 0 = all.
std::string profile_json(const ProfileSnapshot& s, std::size_t top_n = 0);
bool write_profile_json(const std::string& path, const ProfileSnapshot& s,
                        std::size_t top_n = 0);
// Self-contained single-file HTML report. Pass `b` for a side-by-side
// WTI-vs-MESI (or any A/B) diff; nullptr renders a single-run report.
std::string profile_html(const std::string& title, const ProfileSnapshot& a,
                         const ProfileSnapshot* b = nullptr,
                         std::size_t top_n = 32);
bool write_profile_html(const std::string& path, const std::string& title,
                        const ProfileSnapshot& a,
                        const ProfileSnapshot* b = nullptr,
                        std::size_t top_n = 32);

}  // namespace ccnoc::sim
