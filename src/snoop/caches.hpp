#pragma once

#include <deque>
#include <string>

#include "cache/controller.hpp"
#include "cache/tag_array.hpp"
#include "snoop/bus.hpp"

/// \file caches.hpp
/// Snooping cache controllers (extension): the classic bus-based versions
/// of the paper's two write policies, as studied by the related work
/// ([4, 11, 18]). Both implement the processor-facing `cache::CacheIface`
/// (so they plug into `cpu::Processor` unchanged) and `SnoopAgent` (they
/// observe every bus transaction).
///
/// * `SnoopWtiCache` — write-through invalidate: every store is a bus
///   transaction; snoopers invalidate on observed writes.
/// * `SnoopMesiCache` — Illinois MESI: stores to E/M lines cost ZERO bus
///   transactions (the property that historically made write-back win on
///   buses); dirty owners flush on observed reads.

namespace ccnoc::snoop {

class SnoopCacheBase : public cache::CacheIface, public SnoopAgent {
 public:
  SnoopCacheBase(sim::Simulator& sim, SnoopBus& bus, cache::CacheConfig cfg,
                 std::string name)
      : sim_(sim), bus_(bus), cfg_(cfg), name_(std::move(name)), tags_(cfg) {
    my_id_ = bus_.attach_cache(*this);
  }
  SnoopCacheBase(const SnoopCacheBase&) = delete;
  SnoopCacheBase& operator=(const SnoopCacheBase&) = delete;

  [[nodiscard]] const cache::CacheConfig& config() const override { return cfg_; }
  [[nodiscard]] cache::TagArray& tags() { return tags_; }
  [[nodiscard]] unsigned bus_id() const { return my_id_; }

  /// Untimed post-run flush of Modified lines (verification).
  template <typename WriteFn>
  void flush_dirty(WriteFn&& write) const {
    tags_.for_each_line([&](const cache::CacheLine& l) {
      if (l.state == cache::LineState::kModified) {
        write(l.block, l.data.data(), cfg_.block_bytes);
      }
    });
  }

 protected:
  [[nodiscard]] std::uint64_t read_line(const cache::CacheLine& l, sim::Addr a,
                                        unsigned size) const {
    return tags_.read(l, a, size);
  }
  void write_line(cache::CacheLine& l, sim::Addr a, unsigned size, std::uint64_t v) {
    tags_.write(l, a, size, v);
  }

  // Construction-time resolver: derived caches resolve their counters once
  // and bump raw pointers on the per-access paths (registry references are
  // stable for its lifetime).
  [[nodiscard]] sim::Counter* stat(const std::string& suffix) {
    return &sim_.stats().counter(name_ + "." + suffix);
  }

  sim::Simulator& sim_;
  SnoopBus& bus_;
  cache::CacheConfig cfg_;
  std::string name_;
  cache::TagArray tags_;
  unsigned my_id_ = 0;
};

class SnoopWtiCache final : public SnoopCacheBase {
 public:
  SnoopWtiCache(sim::Simulator& sim, SnoopBus& bus, cache::CacheConfig cfg,
                std::string name)
      : SnoopCacheBase(sim, bus, cfg, std::move(name)) {
    st_.load_hits = stat("load_hits");
    st_.load_misses = stat("load_misses");
    st_.atomics = stat("atomics");
    st_.wbuf_full_stalls = stat("wbuf_full_stalls");
    st_.store_hits = stat("store_hits");
    st_.store_misses = stat("store_misses");
    st_.snoop_invalidations = stat("snoop_invalidations");
  }

  cache::AccessResult access(const cache::MemAccess& a, std::uint64_t* hit_value,
                             const CompleteFn& on_complete) override;
  cache::AccessResult drain(const CompleteFn& on_drained) override;
  SnoopReply snoop(const BusTxn& txn) override;

  [[nodiscard]] bool idle() const override {
    return pending_ == Pending::kNone && wbuf_.empty() && !drain_in_flight_;
  }

 private:
  enum class Pending { kNone, kLoadDrain, kLoadBus, kStoreBuffer, kSwapDrain, kSwapBus,
                       kDrainWait };
  struct BufEntry {
    sim::Addr addr;
    std::uint8_t size;
    std::uint64_t value;
  };

  void perform_store(const cache::MemAccess& a);
  void start_drain();
  void issue_read();
  void issue_atomic();
  void on_write_done();

  std::deque<BufEntry> wbuf_;
  bool drain_in_flight_ = false;
  Pending pending_ = Pending::kNone;
  cache::MemAccess pending_access_{};
  CompleteFn pending_cb_;

  /// Typed stat handles, resolved once at construction (see SnoopCacheBase).
  struct Stats {
    sim::Counter* load_hits;
    sim::Counter* load_misses;
    sim::Counter* atomics;
    sim::Counter* wbuf_full_stalls;
    sim::Counter* store_hits;
    sim::Counter* store_misses;
    sim::Counter* snoop_invalidations;
  };
  Stats st_;
};

class SnoopMesiCache final : public SnoopCacheBase {
 public:
  SnoopMesiCache(sim::Simulator& sim, SnoopBus& bus, cache::CacheConfig cfg,
                 std::string name)
      : SnoopCacheBase(sim, bus, cfg, std::move(name)) {
    st_.load_hits = stat("load_hits");
    st_.load_misses = stat("load_misses");
    st_.store_hits_em = stat("store_hits_em");
    st_.store_hits_s = stat("store_hits_s");
    st_.upgrade_retries = stat("upgrade_retries");
    st_.store_misses = stat("store_misses");
    st_.writebacks = stat("writebacks");
    st_.snoop_flushes = stat("snoop_flushes");
    st_.snoop_invalidations = stat("snoop_invalidations");
  }

  cache::AccessResult access(const cache::MemAccess& a, std::uint64_t* hit_value,
                             const CompleteFn& on_complete) override;
  SnoopReply snoop(const BusTxn& txn) override;

  [[nodiscard]] bool idle() const override { return pending_ == Pending::kNone; }

  [[nodiscard]] cache::LineState line_state(sim::Addr a) {
    cache::CacheLine* l = tags_.find(tags_.block_of(a));
    return l ? l->state : cache::LineState::kInvalid;
  }

 private:
  enum class Pending { kNone, kMiss, kUpgrade };

  void start_miss(const cache::MemAccess& a, const CompleteFn& cb);
  void issue_fill();
  void finish(cache::CacheLine& l);

  Pending pending_ = Pending::kNone;
  cache::MemAccess pending_access_{};
  CompleteFn pending_cb_;
  cache::CacheLine* pending_line_ = nullptr;

  /// Typed stat handles, resolved once at construction (see SnoopCacheBase).
  struct Stats {
    sim::Counter* load_hits;
    sim::Counter* load_misses;
    sim::Counter* store_hits_em;
    sim::Counter* store_hits_s;
    sim::Counter* upgrade_retries;
    sim::Counter* store_misses;
    sim::Counter* writebacks;
    sim::Counter* snoop_flushes;
    sim::Counter* snoop_invalidations;
  };
  Stats st_;
};

}  // namespace ccnoc::snoop
