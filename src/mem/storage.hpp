#pragma once

#include <array>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "sim/types.hpp"

/// \file storage.hpp
/// Bit-accurate, demand-paged byte storage backing a memory bank. Pages are
/// allocated lazily and read as zero until first written, so a bank can own
/// a large address region without committing host memory.

namespace ccnoc::mem {

class PagedStorage {
 public:
  static constexpr unsigned kPageShift = 12;
  static constexpr sim::Addr kPageBytes = sim::Addr(1) << kPageShift;

  /// Read \p len bytes at absolute address \p a into \p out.
  void read(sim::Addr a, void* out, unsigned len) const {
    auto* dst = static_cast<std::uint8_t*>(out);
    while (len > 0) {
      sim::Addr page = a >> kPageShift;
      unsigned off = unsigned(a & (kPageBytes - 1));
      unsigned chunk = std::min<unsigned>(len, unsigned(kPageBytes) - off);
      auto it = pages_.find(page);
      if (it == pages_.end()) {
        std::memset(dst, 0, chunk);
      } else {
        std::memcpy(dst, it->second->data() + off, chunk);
      }
      a += chunk;
      dst += chunk;
      len -= chunk;
    }
  }

  /// Write \p len bytes at absolute address \p a.
  void write(sim::Addr a, const void* in, unsigned len) {
    const auto* src = static_cast<const std::uint8_t*>(in);
    while (len > 0) {
      sim::Addr page = a >> kPageShift;
      unsigned off = unsigned(a & (kPageBytes - 1));
      unsigned chunk = std::min<unsigned>(len, unsigned(kPageBytes) - off);
      std::memcpy(page_for(page).data() + off, src, chunk);
      a += chunk;
      src += chunk;
      len -= chunk;
    }
  }

  [[nodiscard]] std::uint64_t read_uint(sim::Addr a, unsigned len) const {
    CCNOC_ASSERT(len <= 8, "scalar read > 8 bytes");
    std::uint64_t v = 0;
    read(a, &v, len);  // little-endian host assumed (x86-64 / aarch64 LE)
    return v;
  }

  void write_uint(sim::Addr a, std::uint64_t v, unsigned len) {
    CCNOC_ASSERT(len <= 8, "scalar write > 8 bytes");
    write(a, &v, len);
  }

  /// The stored byte at \p a, in place: reading on from it is valid up to
  /// the end of its page, for the storage's lifetime (pages never move).
  /// Null when the page was never written, i.e. it reads as zero.
  [[nodiscard]] const std::uint8_t* peek(sim::Addr a) const {
    auto it = pages_.find(a >> kPageShift);
    return it == pages_.end() ? nullptr : it->second->data() + (a & (kPageBytes - 1));
  }

  [[nodiscard]] std::size_t committed_pages() const { return pages_.size(); }

  /// Visit every committed page as (base_address, bytes, len). Iteration
  /// order is unspecified; callers needing determinism must sort by base.
  template <typename Fn>
  void for_each_page(Fn&& fn) const {
    for (const auto& [page, data] : pages_) {
      fn(page << kPageShift, data->data(), unsigned(kPageBytes));
    }
  }

 private:
  using Page = std::array<std::uint8_t, kPageBytes>;

  Page& page_for(sim::Addr page) {
    auto it = pages_.find(page);
    if (it == pages_.end()) {
      it = pages_.emplace(page, std::make_unique<Page>()).first;
      it->second->fill(0);
    }
    return *it->second;
  }

  std::unordered_map<sim::Addr, std::unique_ptr<Page>> pages_;
};

}  // namespace ccnoc::mem
