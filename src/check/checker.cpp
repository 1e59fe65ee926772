#include "check/checker.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>

#include "cache/mesi_controller.hpp"
#include "cache/wti_controller.hpp"

namespace ccnoc::check {

namespace {

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

}  // namespace

Checker::Checker(sim::Simulator& sim, const mem::AddressMap& map,
                 mem::Protocol proto, const cache::CacheConfig& dcache_cfg,
                 CheckConfig cfg)
    : sim_(sim),
      map_(map),
      proto_(proto),
      cfg_(cfg),
      block_bytes_(dcache_cfg.block_bytes),
      write_through_(mem::is_write_through(proto)) {
  CCNOC_ASSERT(cfg_.enabled, "construct the checker only when checking is on");
  const bool sc_config =
      proto == mem::Protocol::kWbMesi ||
      (proto == mem::Protocol::kWti && dcache_cfg.drain_on_load_miss);
  if (cfg_.oracle && sc_config) {
    oracle_ = std::make_unique<Oracle>(proto, map.num_cpus(), block_bytes_);
  }
}

void Checker::register_node(unsigned cpu, cache::CacheController& dcache,
                            cache::CacheController& icache) {
  if (nodes_.size() <= cpu) nodes_.resize(cpu + 1);
  NodeRec& r = nodes_[cpu];
  r.d = &dcache;
  r.i = &icache;
  r.wti = dynamic_cast<const cache::WtiController*>(&dcache);
  r.mesi = dynamic_cast<const cache::MesiController*>(&dcache);
  CCNOC_ASSERT((r.wti != nullptr) != (r.mesi != nullptr),
               "data cache must be a WTI or MESI controller");
}

void Checker::register_bank(mem::Bank& bank) { banks_.push_back(&bank); }

void Checker::register_l2(mem::L2Bank& l2) { l2_banks_.push_back(&l2); }

void Checker::violation(const char* rule, std::string detail) {
  ++total_violations_;
  if (violations_.size() < cfg_.max_violations) {
    violations_.push_back(Violation{sim_.now(), rule, std::move(detail)});
  }
  if (cfg_.abort_on_violation) {
    std::fprintf(stderr, "[check] %s @ cycle %llu: %s\n", rule,
                 (unsigned long long)sim_.now(), violations_.back().detail.c_str());
    std::abort();
  }
}

// --- probe forwarding ------------------------------------------------------

void Checker::load_commit(unsigned cpu, sim::Addr a, unsigned size,
                          std::uint64_t v, sim::Cycle issued) {
  if (!oracle_) return;
  if (auto viol = oracle_->load_commit(cpu, a, size, v, issued, sim_.now())) {
    violation("oracle-load", std::move(*viol));
  }
}

void Checker::store_commit(unsigned cpu, sim::Addr a, unsigned size,
                           std::uint64_t v) {
  if (!oracle_) return;
  if (auto viol = oracle_->store_commit(cpu, a, size, v, sim_.now())) {
    violation("oracle-store", std::move(*viol));
  }
}

void Checker::atomic_commit(unsigned cpu, sim::Addr a, unsigned size,
                            std::uint64_t returned_old, std::uint64_t operand,
                            bool is_add) {
  if (!oracle_) return;
  if (auto viol = oracle_->atomic_commit(cpu, a, size, returned_old, operand,
                                         is_add, sim_.now())) {
    violation("oracle-atomic", std::move(*viol));
  }
}

void Checker::global_store(unsigned cpu, sim::Addr a, unsigned size,
                           std::uint64_t v, bool deferred) {
  if (!oracle_) return;
  if (auto viol = oracle_->global_store(cpu, a, size, v, deferred, sim_.now())) {
    violation("oracle-retire", std::move(*viol));
  }
}

void Checker::global_atomic(unsigned cpu, sim::Addr a, unsigned size, bool is_add,
                            std::uint64_t operand) {
  if (!oracle_) return;
  oracle_->global_atomic(cpu, a, size, is_add, operand, sim_.now());
}

void Checker::txn_released(unsigned cpu, sim::Addr block) {
  if (!oracle_) return;
  if (auto viol = oracle_->txn_released(cpu, block, sim_.now())) {
    violation("oracle-retire", std::move(*viol));
  }
}

void Checker::backdoor_write(sim::Addr a, const void* data, unsigned len) {
  if (!oracle_) return;
  oracle_->backdoor_write(a, data, len, sim_.now());
}

// --- walker entry points (walk_impl lives in invariants.cpp) ---------------

void Checker::walk() {
  ++walks_;
  if (cfg_.invariants) walk_impl(/*strict=*/false);
  if (oracle_) oracle_->gc(sim_.now(), cfg_.history_horizon);
}

void Checker::final_audit() {
  if (cfg_.invariants) walk_impl(/*strict=*/true);
  if (oracle_) {
    if (auto viol = oracle_->final_drain_check()) {
      violation("final-drain", std::move(*viol));
    }
  }
}

void Checker::final_image_check() {
  if (!oracle_) return;
  // Union of committed pages on both sides, in address order (deterministic
  // reporting); PagedStorage reads uncommitted pages as zero, so a page
  // committed on only one side still compares correctly.
  std::set<sim::Addr> bases;
  oracle_->ref().for_each_page(
      [&](sim::Addr base, const std::uint8_t*, unsigned) { bases.insert(base); });
  for (const mem::Bank* b : banks_) {
    b->storage().for_each_page(
        [&](sim::Addr base, const std::uint8_t*, unsigned) { bases.insert(base); });
  }

  constexpr unsigned kPage = unsigned(mem::PagedStorage::kPageBytes);
  std::vector<std::uint8_t> want(kPage), got(kPage);
  unsigned reported = 0;
  for (sim::Addr base : bases) {
    oracle_->ref().read(base, want.data(), kPage);
    bank_of(base).storage().read(base, got.data(), kPage);
    if (std::memcmp(want.data(), got.data(), kPage) == 0) continue;
    for (unsigned i = 0; i < kPage; ++i) {
      if (want[i] == got[i]) continue;
      violation("final-image",
                "final memory image diverges from the golden model at " +
                    hex(base + i) + ": memory holds " + hex(got[i]) +
                    ", golden model holds " + hex(want[i]));
      break;
    }
    if (++reported >= 8) break;  // one line per page is plenty of signal
  }
}

// --- results ---------------------------------------------------------------

std::uint64_t Checker::loads_checked() const {
  return oracle_ ? oracle_->loads_checked() : 0;
}

std::uint64_t Checker::stores_applied() const {
  return oracle_ ? oracle_->stores_applied() : 0;
}

std::string Checker::report() const {
  std::ostringstream os;
  os << total_violations_ << " coherence violation(s)";
  if (total_violations_ > violations_.size()) {
    os << " (first " << violations_.size() << " kept)";
  }
  os << ":\n";
  for (const Violation& v : violations_) {
    os << "  [" << v.rule << "] cycle " << v.cycle << ": " << v.detail << "\n";
  }
  return os.str();
}

}  // namespace ccnoc::check
