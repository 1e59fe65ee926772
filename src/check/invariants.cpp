#include <algorithm>
#include <array>
#include <cstring>
#include <sstream>
#include <vector>

#include "cache/mesi_controller.hpp"
#include "cache/wti_controller.hpp"
#include "check/checker.hpp"
#include "mem/l2_bank.hpp"

/// \file invariants.cpp
/// The invariant walker: Checker::walk_impl audits every cache tag array
/// and every bank directory against the protocol's safety properties (see
/// checker.hpp for the rule list). In non-strict mode, blocks with an open
/// bank transaction — and bytes covered by a CPU's own write buffer, and
/// blocks parked in a write-back buffer — are exempt from the point-in-time
/// cross-checks, because those are exactly the legal transient windows.
/// Strict mode (end of run, platform quiescent) applies no exemptions.
///
/// A walk visits every L1 line, so it allocates nothing and hashes little:
/// its scratch lives in Checker members that are cleared, not rebuilt, bank
/// bytes are compared in place through PagedStorage::peek, and the escapes
/// are looked up only for a line that has failed a check.

namespace ccnoc::check {

namespace {

static_assert(noc::kMaxBlockBytes <= 64,
              "a block's buffered-store bytes are one 64-bit mask");

/// What a never-written page holds.
constexpr std::array<std::uint8_t, noc::kMaxBlockBytes> kZeroBlock{};

/// A block's stored bytes, read in place. Lines visited one after another
/// often share a page, so the last page looked up is kept.
class BlockReader {
 public:
  const std::uint8_t* operator()(const mem::PagedStorage& s, sim::Addr block) {
    const sim::Addr page = block >> mem::PagedStorage::kPageShift;
    if (&s != storage_ || page != page_) {
      storage_ = &s;
      page_ = page;
      base_ = s.peek(page << mem::PagedStorage::kPageShift);
    }
    if (base_ == nullptr) return kZeroBlock.data();
    return base_ + (block & (mem::PagedStorage::kPageBytes - 1));
  }

 private:
  const mem::PagedStorage* storage_ = nullptr;
  sim::Addr page_ = 0;
  const std::uint8_t* base_ = nullptr;
};

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

std::string line_desc(unsigned cpu, bool icache, sim::Addr block) {
  return std::string(icache ? "icache" : "dcache") + " of cpu" +
         std::to_string(cpu) + ", block " + hex(block);
}

}  // namespace

void Checker::walk_impl(bool strict) {
  const unsigned bb = block_bytes_;
  const unsigned num_cpus = unsigned(nodes_.size());
  BlockReader read_block;

  // Blocks whose evicted dirty data is in flight to a bank: their storage is
  // legitimately stale until the write-back lands.
  wb_blocks_.clear();
  if (!strict) {
    for (const NodeRec& n : nodes_) {
      if (n.mesi != nullptr) {
        n.mesi->for_each_writeback([&](sim::Addr block) { wb_blocks_.push_back(block); });
      }
    }
    std::sort(wb_blocks_.begin(), wb_blocks_.end());
  }

  // Census of valid data-cache copies and of the E/M ones among them, for
  // the SWMR audit after the per-line pass.
  valid_blocks_.clear();
  owned_.clear();

  for (unsigned cpu = 0; cpu < num_cpus; ++cpu) {
    const NodeRec& n = nodes_[cpu];
    if (n.d == nullptr) continue;

    // Bytes of each block covered by this CPU's own buffered stores: a WTI
    // store hit patched the local line while the bank copy updates at the
    // write-through, so those bytes legally differ until the ack.
    own_bytes_.clear();
    if (!strict && n.wti != nullptr) {
      n.wti->for_each_buffered_store([&](sim::Addr a, unsigned size, std::uint64_t) {
        for (unsigned i = 0; i < size; ++i) {
          const sim::Addr byte = a + i;
          const sim::Addr block = block_of(byte);
          auto it = std::find_if(own_bytes_.begin(), own_bytes_.end(),
                                 [&](const OwnBytes& o) { return o.block == block; });
          if (it == own_bytes_.end()) it = own_bytes_.insert(it, OwnBytes{block, 0});
          it->mask |= std::uint64_t(1) << (byte - block);
        }
      });
    }

    for (int which = 0; which < 2; ++which) {
      const bool is_icache = which == 1;
      cache::CacheController* ctl = is_icache ? n.i : n.d;
      ctl->tags().for_each_line([&](const cache::CacheLine& l) {
        if (l.state == cache::LineState::kInvalid) return;
        const sim::Addr block = l.block;
        // The block's home is where its L1-facing directory (and the
        // freshest non-owned copy of its bytes) lives: the memory bank on a
        // flat platform, the address-interleaved L2 bank on a two-level one.
        mem::L2Bank* l2 =
            l2_banks_.empty() ? nullptr : l2_banks_[map_.l2_index_of(block)];
        mem::Bank& bank = l2 != nullptr ? static_cast<mem::Bank&>(*l2) : bank_of(block);
        // Every exemption below is looked up only once a check has failed:
        // on a correct run almost none do, so most lines skip the lookups.
        auto open_txn = [&] { return !strict && bank.has_open_txn(block); };

        // Inclusion: a valid L1 data-cache line implies a resident line in
        // its home L2 bank (the recall machinery exists to preserve this).
        // I-caches are exempt — their fetches are untracked, so the L2 may
        // evict code blocks without back-invalidating them (read-only data,
        // so the stale copy is harmless by construction).
        if (l2 != nullptr && !is_icache && !l2->resident(block) && !open_txn()) {
          violation("inclusion",
                    line_desc(cpu, is_icache, block) +
                        " is valid but its home L2 bank (l2bank" +
                        std::to_string(l2->l2_index()) + ") holds no resident line");
        }

        // Write-through caches (and every I-cache) never own a line.
        const bool exclusive = l.state == cache::LineState::kExclusive ||
                               l.state == cache::LineState::kModified;
        if (exclusive && (is_icache || n.wti != nullptr)) {
          violation("wti-line-state",
                    line_desc(cpu, is_icache, block) + " is in state " +
                        cache::to_string(l.state) +
                        " but this cache may only hold I or S lines");
          return;
        }

        // I-cache fetches are deliberately untracked by the directory
        // (read-only code, `track = false`), so only data caches take part
        // in the directory cross-checks and the SWMR census.
        if (!is_icache) {
          valid_blocks_.push_back(block);
          if (exclusive) owned_.push_back(OwnedCopy{block, cpu});

          // A valid copy implies its presence bit (the directory may
          // over-approximate, never under-approximate). Direct-ack rounds
          // clear bits while invalidations are still in flight — but the
          // block stays transaction-locked until the requester's TxnDone.
          const mem::DirEntry e = bank.directory().lookup(block);
          if (!e.is_sharer(sim::NodeId(cpu)) && !open_txn()) {
            violation("presence",
                      line_desc(cpu, is_icache, block) + " is valid (" +
                          cache::to_string(l.state) +
                          ") but its directory presence bit is clear");
          }

          // A cached E/M line implies dirty directory ownership by this cpu.
          if (exclusive && (!e.dirty || e.owner != sim::NodeId(cpu)) && !open_txn()) {
            violation("dirty-owner",
                      line_desc(cpu, is_icache, block) + " is " +
                          cache::to_string(l.state) +
                          " but the directory does not record cpu" +
                          std::to_string(cpu) + " as dirty owner (dirty=" +
                          (e.dirty ? "1" : "0") + ", owner=" +
                          std::to_string(e.owner) + ")");
          }
        }

        // Data integrity: clean lines hold the bank's bytes.
        if (l.state == cache::LineState::kModified) return;
        const std::uint8_t* mem_bytes = read_block(bank.storage(), block);
        if (std::memcmp(l.data.data(), mem_bytes, bb) == 0) return;
        if (open_txn()) return;
        if (std::binary_search(wb_blocks_.begin(), wb_blocks_.end(), block)) return;
        std::uint64_t own = 0;
        if (!is_icache) {
          for (const OwnBytes& o : own_bytes_) {
            if (o.block == block) own = o.mask;
          }
        }
        for (unsigned i = 0; i < bb; ++i) {
          if ((own >> i) & 1) continue;
          if (l.data[i] == mem_bytes[i]) continue;
          violation("data",
                    line_desc(cpu, is_icache, block) + " (" +
                        cache::to_string(l.state) + ") disagrees with memory at " +
                        hex(block + i) + ": cache holds " + hex(l.data[i]) +
                        ", memory holds " + hex(mem_bytes[i]));
          break;  // one mismatch per line is enough signal
        }
      });
    }
  }

  // SWMR: an Exclusive/Modified copy never coexists with any other valid
  // copy. Grants are issued only after every stale sharer acked its
  // invalidation, so this holds at every instant — no transient escape.
  // Write-through runs never get here with an E/M copy, so they sort
  // nothing; the rest report in block-address order.
  if (!owned_.empty()) {
    std::sort(owned_.begin(), owned_.end());
    std::sort(valid_blocks_.begin(), valid_blocks_.end());
    for (auto first = owned_.begin(); first != owned_.end();) {
      const sim::Addr block = first->block;
      const auto last = std::find_if(first, owned_.end(), [&](const OwnedCopy& o) {
        return o.block != block;
      });
      const auto exclusive = last - first;
      const auto [lo, hi] =
          std::equal_range(valid_blocks_.begin(), valid_blocks_.end(), block);
      const auto copies = hi - lo;
      if (exclusive > 1 || copies > 1) {
        violation("swmr", "block " + hex(block) + " has " +
                              std::to_string(exclusive) + " E/M cop" +
                              (exclusive == 1 ? "y" : "ies") + " among " +
                              std::to_string(copies) +
                              " valid copies (first owner cpu" +
                              std::to_string(first->cpu) + ")");
      }
      first = last;
    }
  }

  // Directory-side audit of the L1-facing tier: the memory banks on a flat
  // platform, the L2 banks on a two-level one. Either way the directory
  // tracks L1 data caches under the platform protocol, so the same rules
  // apply.
  auto audit_l1_facing_dir = [&](mem::Bank& bank, const std::string& who) {
    bank.directory().for_each_entry([&](sim::Addr block, const mem::DirEntry& e) {
      if (num_cpus < 64 && (e.presence >> num_cpus) != 0) {
        violation("presence", "directory of " + who +
                                  " names a nonexistent cache for block " +
                                  hex(block) + " (presence=" + hex(e.presence) + ")");
      }
      if (write_through_) {
        // The write-through property: the next level down is always clean,
        // so the directory never records an owner.
        if (e.dirty || e.owner != sim::kInvalidNode) {
          violation("wti-dir-clean",
                    who + " directory marks block " + hex(block) +
                        " dirty under a write-through protocol");
        }
        return;
      }
      const bool open_txn = !strict && bank.has_open_txn(block);
      if (e.dirty && !open_txn) {
        if (e.owner == sim::kInvalidNode || e.owner >= num_cpus ||
            !e.is_sharer(e.owner) || e.sharer_count() != 1) {
          violation("dirty-owner",
                    who + " directory entry for block " + hex(block) +
                        " is dirty but malformed (owner=" +
                        std::to_string(e.owner) + ", presence=" +
                        hex(e.presence) + ")");
        }
      }
    });
  };

  if (l2_banks_.empty()) {
    for (unsigned b = 0; b < banks_.size(); ++b) {
      audit_l1_facing_dir(*banks_[b], "bank" + std::to_string(b));
    }
    return;
  }

  // --- two-level-only audits -------------------------------------------------
  const unsigned num_l2 = unsigned(l2_banks_.size());
  BlockReader read_l2_block;

  for (mem::L2Bank* l2 : l2_banks_) {
    const std::string who = "l2bank" + std::to_string(l2->l2_index());
    audit_l1_facing_dir(*l2, who);

    // Inclusion, L2 side: a directory entry naming L1 sharers on a block
    // that is not resident here means a line escaped the recall teardown.
    l2->directory().for_each_entry([&](sim::Addr block, const mem::DirEntry& e) {
      const bool open_txn = !strict && l2->has_open_txn(block);
      if (e.has_sharer() && !l2->resident(block) && !open_txn) {
        violation("inclusion",
                  who + " tracks L1 sharers for block " + hex(block) +
                      " (presence=" + hex(e.presence) +
                      ") but holds no resident line");
      }
    });

    // Per resident line: the memory tier must record this (sole) L2 bank as
    // the block's dirty owner — fills are tracked and granted Exclusive —
    // and a clean (E) line must still hold DRAM's exact bytes, since the
    // first transaction-path write dirties it to M.
    l2->for_each_line([&](sim::Addr block, proto::LineState state) {
      const bool open_txn = !strict && (l2->has_open_txn(block) ||
                                        bank_of(block).has_open_txn(block));
      const mem::DirEntry e = bank_of(block).directory().lookup(block);
      if (!open_txn &&
          (!e.dirty || e.owner != l2->node_id() || !e.is_sharer(l2->node_id()))) {
        violation("l2-tracking",
                  who + " holds block " + hex(block) +
                      " but the memory directory does not record it as the "
                      "dirty owner (dirty=" + (e.dirty ? "1" : "0") +
                      ", owner=" + std::to_string(e.owner) + ")");
      }
      if (state == proto::LineState::kModified || open_txn) return;
      const std::uint8_t* l2_bytes = read_l2_block(l2->storage(), block);
      const std::uint8_t* mem_bytes = read_block(bank_of(block).storage(), block);
      if (std::memcmp(l2_bytes, mem_bytes, bb) == 0) return;
      for (unsigned i = 0; i < bb; ++i) {
        if (l2_bytes[i] == mem_bytes[i]) continue;
        violation("freshness",
                  who + " holds block " + hex(block) + " clean (" +
                      proto::to_string(state) + ") but disagrees with memory at " +
                      hex(block + i) + ": L2 holds " + hex(l2_bytes[i]) +
                      ", memory holds " + hex(mem_bytes[i]));
        break;
      }
    });
  }

  // Memory-tier directory audit: clients are the L2 banks (write-back MESI
  // regardless of the platform protocol — see core/system.cpp), and the
  // block interleave means a tracked entry's owner can only ever be the
  // block's single home L2 node.
  for (unsigned b = 0; b < banks_.size(); ++b) {
    banks_[b]->directory().for_each_entry([&](sim::Addr block,
                                              const mem::DirEntry& e) {
      if (num_l2 < 64 && (e.presence >> num_l2) != 0) {
        violation("presence", "directory of bank" + std::to_string(b) +
                                  " names a nonexistent L2 bank for block " +
                                  hex(block) + " (presence=" + hex(e.presence) + ")");
      }
      const bool open_txn = !strict && banks_[b]->has_open_txn(block);
      if (e.dirty && !open_txn) {
        if (e.owner != map_.l2_node_of(block) || !e.is_sharer(e.owner) ||
            e.sharer_count() != 1) {
          violation("dirty-owner",
                    "bank" + std::to_string(b) + " directory entry for block " +
                        hex(block) + " is dirty but its owner is not the "
                        "block's home L2 bank (owner=" + std::to_string(e.owner) +
                        ", presence=" + hex(e.presence) + ")");
        }
      }
    });
  }
}

}  // namespace ccnoc::check
