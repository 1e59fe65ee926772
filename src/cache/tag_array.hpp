#pragma once

#include <array>
#include <bit>
#include <cstring>
#include <vector>

#include "cache/config.hpp"
#include "noc/message.hpp"
#include "proto/fsm.hpp"
#include "sim/types.hpp"

/// \file tag_array.hpp
/// Set-associative tag + data array with LRU replacement. The paper's
/// caches are direct-mapped (ways = 1); associativity is kept general for
/// the cache-geometry ablation. Lines store full block addresses as tags
/// and carry bit-accurate block data.

namespace ccnoc::cache {

/// MESI line states; WTI uses only kInvalid and kShared ("Valid").
/// Aliased from proto:: so the declarative transition tables and the tag
/// array agree on the state vocabulary by construction.
using LineState = proto::LineState;
using proto::to_string;

struct CacheLine {
  sim::Addr block = 0;  ///< block-aligned address (valid when state != I)
  LineState state = LineState::kInvalid;
  std::uint64_t lru = 0;
  std::array<std::uint8_t, noc::kMaxBlockBytes> data{};
};

class TagArray {
 public:
  explicit TagArray(const CacheConfig& cfg)
      : cfg_(cfg),
        lines_(cfg.num_lines()),
        block_shift_(unsigned(std::countr_zero(cfg.block_bytes))),
        num_sets_(cfg.num_sets()),
        set_mask_(num_sets_ - 1),
        pow2_sets_((num_sets_ & set_mask_) == 0) {
    CCNOC_ASSERT(cfg.num_lines() % cfg.ways == 0, "lines not divisible by ways");
    CCNOC_ASSERT(num_sets_ >= 1, "cache smaller than one set");
    CCNOC_ASSERT((cfg.block_bytes & (cfg.block_bytes - 1)) == 0, "block size not pow2");
    CCNOC_ASSERT(cfg.block_bytes <= noc::kMaxBlockBytes, "block too large");
  }

  [[nodiscard]] sim::Addr block_of(sim::Addr a) const {
    return a & ~sim::Addr(cfg_.block_bytes - 1);
  }

  /// Returns the line holding \p block, or nullptr on miss.
  [[nodiscard]] CacheLine* find(sim::Addr block) {
    auto [base, ways] = set_range(block);
    for (unsigned w = 0; w < ways; ++w) {
      CacheLine& l = lines_[base + w];
      if (l.state != LineState::kInvalid && l.block == block) return &l;
    }
    return nullptr;
  }

  /// Replacement victim for \p block: an invalid way if any, else LRU.
  [[nodiscard]] CacheLine& victim(sim::Addr block) {
    auto [base, ways] = set_range(block);
    CacheLine* best = &lines_[base];
    for (unsigned w = 0; w < ways; ++w) {
      CacheLine& l = lines_[base + w];
      if (l.state == LineState::kInvalid) return l;
      if (l.lru < best->lru) best = &l;
    }
    return *best;
  }

  void touch(CacheLine& l) { l.lru = ++lru_clock_; }

  /// The \p size bytes at address \p a of line \p l, zero-extended. Sizes
  /// 1, 2, 4 and 8 (every processor access) are one fixed-width move each;
  /// any other size takes the variable-length copy.
  [[nodiscard]] std::uint64_t read(const CacheLine& l, sim::Addr a, unsigned size) const {
    const std::uint8_t* p = l.data.data() + offset(a, size);
    switch (size) {
      case 1: return *p;
      case 2: return load<std::uint16_t>(p);
      case 4: return load<std::uint32_t>(p);
      case 8: return load<std::uint64_t>(p);
      default: {
        std::uint64_t v = 0;
        std::memcpy(&v, p, size);
        return v;
      }
    }
  }

  /// Overwrite the \p size bytes at address \p a of line \p l with the low
  /// bytes of \p v; the rest of the line is left as it was.
  void write(CacheLine& l, sim::Addr a, unsigned size, std::uint64_t v) const {
    std::uint8_t* p = l.data.data() + offset(a, size);
    switch (size) {
      case 1: *p = std::uint8_t(v); return;
      case 2: store(p, std::uint16_t(v)); return;
      case 4: store(p, std::uint32_t(v)); return;
      case 8: store(p, v); return;
      default: std::memcpy(p, &v, size); return;
    }
  }

  /// Count of non-invalid lines (tests / occupancy stats).
  [[nodiscard]] unsigned valid_lines() const {
    unsigned n = 0;
    for (const auto& l : lines_) n += (l.state != LineState::kInvalid);
    return n;
  }

  void invalidate_all() {
    for (auto& l : lines_) l.state = LineState::kInvalid;
  }

  /// Visit every line (post-run flush, occupancy checks in tests).
  template <typename F>
  void for_each_line(F&& fn) const {
    for (const auto& l : lines_) fn(l);
  }

 private:
  // The per-access set index is a shift and a mask; only a set count that
  // is not a power of two (a geometry ablation, never the paper's caches)
  // pays for the modulo.
  [[nodiscard]] std::pair<std::size_t, unsigned> set_range(sim::Addr block) const {
    const sim::Addr index = block >> block_shift_;
    const std::size_t set = std::size_t(pow2_sets_ ? index & set_mask_ : index % num_sets_);
    return {set * cfg_.ways, cfg_.ways};
  }

  // Line data is kept in host byte order, and a value's low-order bytes sit
  // at its lowest address, as in the banks' storage.
  static_assert(std::endian::native == std::endian::little);

  [[nodiscard]] unsigned offset(sim::Addr a, unsigned size) const {
    const unsigned off = unsigned(a & (cfg_.block_bytes - 1));
    CCNOC_ASSERT(off + size <= cfg_.block_bytes, "access crosses a block boundary");
    return off;
  }
  template <typename T>
  static std::uint64_t load(const std::uint8_t* p) {
    T v;
    std::memcpy(&v, p, sizeof v);
    return v;
  }
  template <typename T>
  static void store(std::uint8_t* p, T v) {
    std::memcpy(p, &v, sizeof v);
  }

  CacheConfig cfg_;
  std::vector<CacheLine> lines_;
  unsigned block_shift_;
  std::size_t num_sets_;
  sim::Addr set_mask_;  ///< num_sets_ - 1; the set index when pow2_sets_
  bool pow2_sets_;
  std::uint64_t lru_clock_ = 0;
};

}  // namespace ccnoc::cache
