#include "check/oracle.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace ccnoc::check {

namespace {

void to_bytes(std::uint64_t v, std::uint8_t* out, unsigned size) {
  std::memcpy(out, &v, size);  // little-endian host assumed (matches PagedStorage)
}

/// Store values arrive unmasked from the CPU (ThreadOp::value) but masked
/// from the bank (memcpy of access_size bytes); normalize before matching.
std::uint64_t masked(std::uint64_t v, unsigned size) {
  return size >= 8 ? v : v & ((std::uint64_t(1) << (8 * size)) - 1);
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

}  // namespace

Oracle::Oracle(mem::Protocol proto, unsigned num_cpus, unsigned block_bytes)
    : proto_(proto),
      block_bytes_(block_bytes),
      write_through_(mem::is_write_through(proto)),
      pending_(num_cpus),
      atomic_expected_(num_cpus) {
  CCNOC_ASSERT(proto == mem::Protocol::kWti || proto == mem::Protocol::kWbMesi,
               "oracle supports WTI and WB-MESI only");
}

void Oracle::apply(sim::Addr a, const std::uint8_t* bytes, unsigned len,
                   sim::Cycle now) {
  for (unsigned i = 0; i < len; ++i) {
    std::uint8_t cur = std::uint8_t(ref_.read_uint(a + i, 1));
    if (cur == bytes[i]) continue;  // value unchanged: no new version interval
    ref_.write_uint(a + i, bytes[i], 1);
    std::vector<Version>& vs = hist_[a + i];
    vs.push_back(Version{now, bytes[i]});
    if (vs.size() == 2) trimmable_.push_back(&vs);
  }
}

std::uint8_t Oracle::value_at(sim::Addr byte_addr, sim::Cycle t) const {
  auto it = hist_.find(byte_addr);
  if (it == hist_.end()) return std::uint8_t(ref_.read_uint(byte_addr, 1));
  const auto& vs = it->second;
  // Last version with since <= t; before the first recorded version the
  // byte held zero (GC keeps every version a live load window can reach).
  for (auto rit = vs.rbegin(); rit != vs.rend(); ++rit) {
    if (rit->since <= t) return rit->value;
  }
  return 0;
}

void Oracle::backdoor_write(sim::Addr a, const void* data, unsigned len,
                            sim::Cycle now) {
  apply(a, static_cast<const std::uint8_t*>(data), len, now);
}

std::optional<std::string> Oracle::store_commit(unsigned cpu, sim::Addr a,
                                                unsigned size, std::uint64_t v,
                                                sim::Cycle now) {
  ++stores_applied_;
  v = masked(v, size);
  std::uint8_t bytes[8];
  to_bytes(v, bytes, size);
  if (!write_through_) {
    // MESI: exclusivity is held at commit, so commit = global visibility.
    apply(a, bytes, size, now);
    return std::nullopt;
  }
  // WTI: buffered; becomes visible when the home bank retires it.
  pending_[cpu].push_back(PendingStore{a, std::uint8_t(size), false, v});
  if (pending_[cpu].size() > 4096) {
    return "cpu" + std::to_string(cpu) +
           " has >4096 unretired committed stores (write-throughs are being lost)";
  }
  return std::nullopt;
}

std::optional<std::string> Oracle::global_store(unsigned cpu, sim::Addr a,
                                                unsigned size, std::uint64_t v,
                                                bool deferred, sim::Cycle now) {
  v = masked(v, size);
  auto& q = pending_[cpu];
  auto it = std::find_if(q.begin(), q.end(), [&](const PendingStore& p) {
    return !p.deferred && p.addr == a && p.size == size && p.value == v;
  });
  if (it == q.end()) {
    return "bank retired a write cpu" + std::to_string(cpu) + " never committed: [" +
           hex(a) + " +" + std::to_string(size) + "] = " + hex(v);
  }
  if (deferred) {
    // §4.2 direct-ack round: bank storage is written while invalidations
    // are in flight, but stale copies stay readable until they are
    // delivered — all of which happens before the requester's TxnDone.
    // Visibility is therefore deferred to the matching txn_released.
    it->deferred = true;
    return std::nullopt;
  }
  std::uint8_t bytes[8];
  to_bytes(v, bytes, size);
  apply(a, bytes, size, now);
  q.erase(it);
  return std::nullopt;
}

std::optional<std::string> Oracle::txn_released(unsigned cpu, sim::Addr block,
                                                sim::Cycle now) {
  if (!write_through_) return std::nullopt;  // MESI direct upgrades: no deferral
  auto& q = pending_[cpu];
  auto it = std::find_if(q.begin(), q.end(), [&](const PendingStore& p) {
    return p.deferred && block_of(p.addr) == block_of(block);
  });
  if (it == q.end()) {
    return "TxnDone from cpu" + std::to_string(cpu) + " released block " + hex(block) +
           " with no deferred write pending";
  }
  std::uint8_t bytes[8];
  to_bytes(it->value, bytes, it->size);
  apply(it->addr, bytes, it->size, now);
  q.erase(it);
  return std::nullopt;
}

void Oracle::global_atomic(unsigned cpu, sim::Addr a, unsigned size, bool is_add,
                           std::uint64_t operand, sim::Cycle now) {
  // Bank-side RMW (WTI): snapshot the value the CPU must observe as "old",
  // then make the post-RMW value globally visible. The per-block
  // transaction lock guarantees nothing intervenes between the two.
  std::uint64_t old = ref_.read_uint(a, size);
  atomic_expected_[cpu] = old;
  std::uint64_t next = is_add ? old + operand : operand;
  if (size < 8) next &= (std::uint64_t(1) << (8 * size)) - 1;
  std::uint8_t bytes[8];
  to_bytes(next, bytes, size);
  apply(a, bytes, size, now);
}

std::optional<std::string> Oracle::atomic_commit(unsigned cpu, sim::Addr a,
                                                 unsigned size,
                                                 std::uint64_t returned_old,
                                                 std::uint64_t operand, bool is_add,
                                                 sim::Cycle now) {
  ++atomics_checked_;
  if (write_through_) {
    // Cross-check the old value the bank snapshotted at its RMW.
    if (!atomic_expected_[cpu].has_value()) {
      return "cpu" + std::to_string(cpu) +
             " committed an atomic the bank never executed at " + hex(a);
    }
    std::uint64_t expect = *atomic_expected_[cpu];
    atomic_expected_[cpu].reset();
    if (expect != returned_old) {
      return "cpu" + std::to_string(cpu) + " atomic at " + hex(a) + " returned old " +
             hex(returned_old) + ", golden model expected " + hex(expect);
    }
    return std::nullopt;
  }
  // MESI: the RMW executed locally with exclusivity held — commit is the
  // serialization point, so "old" must be the current reference value.
  std::uint64_t expect = ref_.read_uint(a, size);
  if (expect != returned_old) {
    return "cpu" + std::to_string(cpu) + " atomic at " + hex(a) + " returned old " +
           hex(returned_old) + ", golden model holds " + hex(expect);
  }
  std::uint64_t next = is_add ? returned_old + operand : operand;
  if (size < 8) next &= (std::uint64_t(1) << (8 * size)) - 1;
  std::uint8_t bytes[8];
  to_bytes(next, bytes, size);
  apply(a, bytes, size, now);
  return std::nullopt;
}

std::optional<std::string> Oracle::load_commit(unsigned cpu, sim::Addr a,
                                               unsigned size, std::uint64_t v,
                                               sim::Cycle issued, sim::Cycle now) {
  ++loads_checked_;
  std::uint8_t got[8];
  to_bytes(v, got, size);

  // Program order: bytes covered by the CPU's own unretired stores must
  // read the newest such store (forwarded through its patched local line,
  // or fetched after a drain). Oldest→newest so later stores win.
  bool covered[8] = {};
  std::uint8_t own[8] = {};
  if (write_through_) {
    for (const PendingStore& p : pending_[cpu]) {
      for (unsigned i = 0; i < size; ++i) {
        sim::Addr ba = a + i;
        if (ba >= p.addr && ba < p.addr + p.size) {
          covered[i] = true;
          own[i] = std::uint8_t(p.value >> (8 * (ba - p.addr)));
        }
      }
    }
  }
  for (unsigned i = 0; i < size; ++i) {
    if (covered[i] && own[i] != got[i]) {
      return "cpu" + std::to_string(cpu) + " load [" + hex(a) + " +" +
             std::to_string(size) + "] = " + hex(v) +
             " disagrees with its own buffered store (expected byte " +
             std::to_string(i) + " = " + hex(own[i]) + ")";
    }
  }

  // Fast path: uncovered bytes match the current reference image.
  bool all_current = true;
  for (unsigned i = 0; i < size; ++i) {
    if (!covered[i] && std::uint8_t(ref_.read_uint(a + i, 1)) != got[i]) {
      all_current = false;
      break;
    }
  }
  if (all_current) return std::nullopt;

  // Reads-from check: a single instant t in [issued, now] must exist at
  // which the reference held exactly the loaded bytes (per-byte windows
  // alone would accept a torn mix of values that never coexisted).
  std::vector<sim::Cycle> candidates{issued};
  for (unsigned i = 0; i < size; ++i) {
    if (covered[i]) continue;
    auto it = hist_.find(a + i);
    if (it == hist_.end()) continue;
    for (const Version& ver : it->second) {
      if (ver.since > issued && ver.since <= now) candidates.push_back(ver.since);
    }
  }
  for (sim::Cycle t : candidates) {
    bool match = true;
    for (unsigned i = 0; i < size; ++i) {
      if (!covered[i] && value_at(a + i, t) != got[i]) {
        match = false;
        break;
      }
    }
    if (match) return std::nullopt;
  }

  std::uint64_t cur = ref_.read_uint(a, size);
  return "cpu" + std::to_string(cpu) + " load [" + hex(a) + " +" +
         std::to_string(size) + "] = " + hex(v) +
         " matches no SC memory state in cycles [" + std::to_string(issued) + ", " +
         std::to_string(now) + "] (golden model now holds " + hex(cur) + ")";
}

std::optional<std::string> Oracle::final_drain_check() const {
  for (unsigned cpu = 0; cpu < pending_.size(); ++cpu) {
    if (!pending_[cpu].empty()) {
      const PendingStore& p = pending_[cpu].front();
      return "run ended with " + std::to_string(pending_[cpu].size()) +
             " unretired committed stores on cpu" + std::to_string(cpu) +
             " (oldest: [" + hex(p.addr) + " +" + std::to_string(p.size) + "] = " +
             hex(p.value) + ")";
    }
    if (atomic_expected_[cpu].has_value()) {
      return "run ended with an unacknowledged bank atomic on cpu" +
             std::to_string(cpu);
    }
  }
  return std::nullopt;
}

void Oracle::gc(sim::Cycle now, sim::Cycle horizon) {
  if (now <= horizon) return;
  const sim::Cycle cutoff = now - horizon;
  // A single-version history has nothing to drop, so only the trimmable
  // ones are visited; a history trimmed back to one version leaves the list
  // until apply() gives it a second version again.
  std::size_t kept = 0;
  for (std::vector<Version>* vs : trimmable_) {
    // Version i's interval ends at version i+1's start: drop versions whose
    // interval ended before the cutoff, always keeping the newest.
    std::size_t keep_from = 0;
    while (keep_from + 1 < vs->size() && (*vs)[keep_from + 1].since <= cutoff) {
      ++keep_from;
    }
    if (keep_from > 0) vs->erase(vs->begin(), vs->begin() + std::ptrdiff_t(keep_from));
    if (vs->size() > 1) trimmable_[kept++] = vs;
  }
  trimmable_.resize(kept);
}

}  // namespace ccnoc::check
