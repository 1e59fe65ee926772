#include "sim/profile.hpp"

#include <algorithm>
#include <bit>

namespace ccnoc::sim {

const char* to_string(SharingPattern p) {
  switch (p) {
    case SharingPattern::kUntouched: return "untouched";
    case SharingPattern::kCode: return "code";
    case SharingPattern::kPrivate: return "private";
    case SharingPattern::kReadShared: return "read_shared";
    case SharingPattern::kFalseShared: return "false_shared";
    case SharingPattern::kMigratory: return "migratory";
    case SharingPattern::kProducerConsumer: return "producer_consumer";
    case SharingPattern::kReadWriteShared: return "read_write_shared";
  }
  return "?";
}

const char* to_string(AccessClass c) {
  switch (c) {
    case AccessClass::kLoad: return "load";
    case AccessClass::kStore: return "store";
    case AccessClass::kAtomic: return "atomic";
    case AccessClass::kIfetch: return "ifetch";
  }
  return "?";
}

unsigned ProfileSnapshot::Line::num_readers() const {
  return unsigned(std::popcount(readers_mask));
}
unsigned ProfileSnapshot::Line::num_writers() const {
  return unsigned(std::popcount(writers_mask));
}

std::vector<const ProfileSnapshot::Line*> ProfileSnapshot::hottest(
    std::size_t n) const {
  std::vector<const Line*> out;
  out.reserve(lines.size());
  for (const Line& l : lines) out.push_back(&l);
  std::sort(out.begin(), out.end(), [](const Line* a, const Line* b) {
    if (a->traffic_bytes != b->traffic_bytes)
      return a->traffic_bytes > b->traffic_bytes;
    return a->block < b->block;
  });
  if (n && out.size() > n) out.resize(n);
  return out;
}

std::vector<const ProfileSnapshot::Line*> ProfileSnapshot::top_false_shared(
    std::size_t n) const {
  std::vector<const Line*> out;
  for (const Line& l : lines)
    if (l.pattern == SharingPattern::kFalseShared) out.push_back(&l);
  std::sort(out.begin(), out.end(), [](const Line* a, const Line* b) {
    if (a->traffic_bytes != b->traffic_bytes)
      return a->traffic_bytes > b->traffic_bytes;
    return a->block < b->block;
  });
  if (n && out.size() > n) out.resize(n);
  return out;
}

const ProfileSnapshot::Line* ProfileSnapshot::find(Addr block) const {
  for (const Line& l : lines)
    if (l.block == block) return &l;
  return nullptr;
}

void Profiler::set_block_bytes(unsigned bb) {
  CCNOC_ASSERT(bb >= kWordBytes && (bb & (bb - 1)) == 0 &&
                   bb / kWordBytes <= kMaxWordSlots,
               "profiler block size must be a power of two, at most 64 B");
  block_bytes_ = bb;
  word_slots_ = bb / kWordBytes;
}

void Profiler::touch_epoch(LineState& l, Cycle now) const {
  Cycle e = now / epoch_;
  if (l.cur_epoch == e) return;
  fold_epoch(l);
  l.cur_epoch = e;
}

void Profiler::fold_epoch(LineState& l) {
  if (l.cur_epoch == ~Cycle{0}) return;
  std::uint64_t touched = l.epoch_readers | l.epoch_writers;
  if (touched != 0) {
    ++l.epochs_active;
    if (std::popcount(touched) > 1) {
      ++l.epochs_shared;
      if (l.epoch_writers != 0) ++l.epochs_rw_shared;
    }
  }
  l.epoch_readers = 0;
  l.epoch_writers = 0;
}

// --- hook slow paths ---------------------------------------------------

void Profiler::access_slow(Cycle now, unsigned cpu, Addr addr, unsigned size,
                           AccessClass cls) {
  LineState& l = line(addr);
  touch_epoch(l, now);
  const std::uint64_t bit = 1ull << (cpu & 63);
  if (cls == AccessClass::kIfetch) {
    ++l.ifetches;
    return;  // code lines never join the data-sharing masks
  }
  const unsigned off = unsigned(addr & (block_bytes_ - 1));
  unsigned w0 = off / kWordBytes;
  unsigned w1 = size ? (off + size - 1) / kWordBytes : w0;
  if (w1 >= word_slots_) w1 = word_slots_ - 1;
  const bool reads = cls != AccessClass::kStore;
  const bool writes = cls != AccessClass::kLoad;
  if (reads) {
    l.readers_mask |= bit;
    l.epoch_readers |= bit;
    for (unsigned w = w0; w <= w1; ++w) l.word_readers[w] |= bit;
  }
  if (writes) {
    l.writers_mask |= bit;
    l.epoch_writers |= bit;
    for (unsigned w = w0; w <= w1; ++w) l.word_writers[w] |= bit;
  }
  switch (cls) {
    case AccessClass::kLoad: ++l.reads; break;
    case AccessClass::kStore: ++l.writes; break;
    case AccessClass::kAtomic: ++l.atomics; break;
    case AccessClass::kIfetch: break;
  }
}

void Profiler::miss_slow(Cycle now, unsigned cpu, Addr addr) {
  LineState& l = line(addr);
  touch_epoch(l, now);
  ++l.misses;
  const std::uint64_t bit = 1ull << (cpu & 63);
  if (l.inval_pending & bit) {
    // This CPU held the line, was invalidated off it, and is now fetching
    // it again: one invalidation ping-pong.
    ++l.ping_pongs;
    l.inval_pending &= ~bit;
  }
}

void Profiler::invalidate_recv_slow(Cycle now, unsigned cpu, Addr addr,
                                    bool had_copy) {
  LineState& l = line(addr);
  touch_epoch(l, now);
  ++l.invalidations;
  if (had_copy) l.inval_pending |= 1ull << (cpu & 63);
}

void Profiler::update_recv_slow(Cycle now, unsigned /*cpu*/, Addr addr) {
  LineState& l = line(addr);
  touch_epoch(l, now);
  ++l.updates;
}

void Profiler::wbuf_stall_slow(Cycle now, unsigned /*cpu*/, Addr addr) {
  LineState& l = line(addr);
  touch_epoch(l, now);
  ++l.wbuf_stalls;
}

void Profiler::fanout_slow(Cycle now, NodeId /*node*/, Addr addr,
                           unsigned targets) {
  LineState& l = line(addr);
  touch_epoch(l, now);
  ++l.fanout_rounds;
  l.fanout_total += targets;
  l.fanout_max = std::max<std::uint64_t>(l.fanout_max, targets);
}

void Profiler::dir_width_slow(NodeId /*node*/, Addr addr, unsigned sharers) {
  LineState& l = line(addr);
  l.dir_max_sharers = std::max(l.dir_max_sharers, sharers);
}

unsigned Profiler::register_bank(std::string name, NodeId /*node*/,
                                 unsigned level) {
  if (!on()) return kInvalidId;
  banks_.push_back(BankState{});
  banks_.back().name = std::move(name);
  banks_.back().level = level;
  return unsigned(banks_.size() - 1);
}

void Profiler::bank_enqueue_slow(Cycle now, unsigned bank, Addr addr,
                                 std::size_t depth) {
  if (bank >= banks_.size()) return;
  BankState& b = banks_[bank];
  // Close the previous constant-depth interval: the queue held depth-1
  // requests from last_change until now (this request just joined).
  b.occupancy_integral += std::uint64_t(depth - 1) * (now - b.last_change);
  b.last_change = now;
  ++b.conflicts;
  b.max_depth = std::max<std::uint64_t>(b.max_depth, depth);
  std::size_t e = std::size_t(now / epoch_);
  if (b.max_depth_per_epoch.size() <= e) b.max_depth_per_epoch.resize(e + 1);
  b.max_depth_per_epoch[e] =
      std::max<std::uint64_t>(b.max_depth_per_epoch[e], depth);
  Addr blk = block_of(addr);
  b.arrivals[blk].push_back(now);
  LineState& l = lines_[blk];
  touch_epoch(l, now);
  ++l.bank_waits;
}

void Profiler::bank_dequeue_slow(Cycle now, unsigned bank, Addr addr,
                                 std::size_t depth) {
  if (bank >= banks_.size()) return;
  BankState& b = banks_[bank];
  b.occupancy_integral += std::uint64_t(depth + 1) * (now - b.last_change);
  b.last_change = now;
  std::size_t e = std::size_t(now / epoch_);
  if (b.max_depth_per_epoch.size() <= e) b.max_depth_per_epoch.resize(e + 1);
  b.max_depth_per_epoch[e] =
      std::max<std::uint64_t>(b.max_depth_per_epoch[e], depth);
  Addr blk = block_of(addr);
  auto it = b.arrivals.find(blk);
  if (it == b.arrivals.end() || it->second.empty()) return;
  // Per-block transactions drain in arrival order, so the departing
  // request is the oldest arrival on this block.
  Cycle wait = now - it->second.front();
  it->second.pop_front();
  if (it->second.empty()) b.arrivals.erase(it);
  b.wait_cycles += wait;
  LineState& l = lines_[blk];
  touch_epoch(l, now);
  l.bank_wait_cycles += wait;
}

void Profiler::stall_slow(Cycle now, unsigned /*cpu*/, Addr addr, Cycle cycles,
                          AccessClass cls) {
  LineState& l = line(addr);
  touch_epoch(l, now);
  l.stall_cycles += cycles;
  stalls_by_class_[unsigned(cls) & 3] += cycles;
}

void Profiler::traffic_slow(Cycle /*now*/, NodeId /*src*/, Addr addr,
                            unsigned bytes) {
  LineState& l = line(addr);
  l.traffic_bytes += bytes;
  ++l.packets;
  total_traffic_bytes_ += bytes;
  ++total_packets_;
}

unsigned Profiler::register_link(std::string name) {
  if (!on()) return kInvalidId;
  links_.push_back(LinkState{std::move(name), 0});
  return unsigned(links_.size() - 1);
}

void Profiler::link_flits_slow(unsigned link, std::uint64_t flits) {
  if (link >= links_.size()) return;
  links_[link].flits += flits;
}

SharingPattern Profiler::classify(const LineState& l) const {
  const bool data = (l.reads | l.writes | l.atomics) != 0;
  if (!data) {
    return l.ifetches ? SharingPattern::kCode : SharingPattern::kUntouched;
  }
  const std::uint64_t cpus = l.readers_mask | l.writers_mask;
  if (std::popcount(cpus) <= 1) return SharingPattern::kPrivate;
  if (l.writers_mask == 0) return SharingPattern::kReadShared;
  bool word_conflict = false;
  for (unsigned w = 0; w < word_slots_; ++w) {
    if (l.word_writers[w] != 0 &&
        std::popcount(l.word_readers[w] | l.word_writers[w]) >= 2) {
      word_conflict = true;
      break;
    }
  }
  if (!word_conflict) return SharingPattern::kFalseShared;
  if ((l.readers_mask & l.writers_mask) == 0)
    return SharingPattern::kProducerConsumer;
  if (l.readers_mask == l.writers_mask) return SharingPattern::kMigratory;
  return SharingPattern::kReadWriteShared;
}

ProfileSnapshot Profiler::snapshot(std::string label) const {
  ProfileSnapshot s;
  s.label = std::move(label);
  s.block_bytes = block_bytes_;
  s.epoch_cycles = epoch_;
  s.total_traffic_bytes = total_traffic_bytes_;
  s.total_packets = total_packets_;
  s.stalls_by_class = stalls_by_class_;
  s.lines.reserve(lines_.size());
  std::uint64_t line_bytes = 0, line_packets = 0;
  for (const auto& [block, state] : lines_) {
    LineState l = state;   // fold the still-open epoch on a copy
    fold_epoch(l);
    ProfileSnapshot::Line out;
    out.block = block;
    out.pattern = classify(l);
    out.reads = l.reads;
    out.writes = l.writes;
    out.atomics = l.atomics;
    out.ifetches = l.ifetches;
    out.readers_mask = l.readers_mask;
    out.writers_mask = l.writers_mask;
    out.misses = l.misses;
    out.invalidations = l.invalidations;
    out.updates = l.updates;
    out.ping_pongs = l.ping_pongs;
    out.fanout_rounds = l.fanout_rounds;
    out.fanout_total = l.fanout_total;
    out.fanout_max = l.fanout_max;
    out.wbuf_stalls = l.wbuf_stalls;
    out.stall_cycles = l.stall_cycles;
    out.traffic_bytes = l.traffic_bytes;
    out.packets = l.packets;
    out.bank_waits = l.bank_waits;
    out.bank_wait_cycles = l.bank_wait_cycles;
    out.epochs_active = l.epochs_active;
    out.epochs_shared = l.epochs_shared;
    out.epochs_rw_shared = l.epochs_rw_shared;
    out.dir_max_sharers = l.dir_max_sharers;
    line_bytes += out.traffic_bytes;
    line_packets += out.packets;
    s.lines.push_back(out);
  }
  // Per-line traffic attribution must reconcile exactly with the totals:
  // every accepted packet lands on exactly one block.
  CCNOC_ASSERT(line_bytes == total_traffic_bytes_ &&
                   line_packets == total_packets_,
               "per-line traffic must sum to the NoC totals");
  std::sort(s.lines.begin(), s.lines.end(),
            [](const ProfileSnapshot::Line& a, const ProfileSnapshot::Line& b) {
              return a.block < b.block;
            });
  for (const ProfileSnapshot::Line& l : s.lines) {
    auto& p = s.patterns[unsigned(l.pattern)];
    ++p.lines;
    p.accesses += l.reads + l.writes + l.atomics + l.ifetches;
    p.traffic_bytes += l.traffic_bytes;
    p.stall_cycles += l.stall_cycles;
    p.invalidations += l.invalidations;
    p.ping_pongs += l.ping_pongs;
    s.total_stall_cycles += l.stall_cycles;
  }
  s.banks.reserve(banks_.size());
  for (const BankState& b : banks_) {
    ProfileSnapshot::Bank out;
    out.name = b.name;
    out.level = b.level;
    out.conflicts = b.conflicts;
    out.wait_cycles = b.wait_cycles;
    out.occupancy_integral = b.occupancy_integral;
    out.max_depth = b.max_depth;
    out.max_depth_per_epoch = b.max_depth_per_epoch;
    s.banks.push_back(std::move(out));
  }
  s.links.reserve(links_.size());
  for (const LinkState& lk : links_)
    s.links.push_back(ProfileSnapshot::Link{lk.name, lk.flits});
  return s;
}

}  // namespace ccnoc::sim
