#pragma once

#include <set>
#include <string>
#include <vector>

#include "lint/corpus.hpp"

/// \file checks.hpp
/// The six ccnoc-lint checks. Each one pins a hand-maintained invariant the
/// compiler cannot see — the conventions ROADMAP.md relies on reviewers to
/// police:
///
///  hotpath-cost             observer off-mode fast paths stay free of
///                           allocation, std::string construction and
///                           virtual dispatch: inline wrappers must be a
///                           single `if (on()) [[unlikely]] x_slow(...);`
///                           dispatch, *_slow declarations must be
///                           __attribute__((cold)), and `probe_->` virtual
///                           calls must be null-guarded or live in probe_*
///                           helpers.
///  shard-discipline         per-domain shard state: *Shard structs are
///                           alignas(64), shards_[...] is indexed by the
///                           owning domain, and full sweeps over shards_
///                           happen only in begin/finalize/merge phases.
///  proto-table-discipline   cache-line state fields change only through
///                           proto::apply_cache table dispatch; directory
///                           entries mutate only inside the banks' validated
///                           apply paths. (src/cache + src/mem; the snoop
///                           subsystem has its own bus FSM by design.)
///  order-key-discipline     every schedule_keyed call site passes a
///                           canonical sim::cross_order_key(src, seq) (or
///                           forwards an existing key), never sets bit 63
///                           (kLocalOrder), and lives in the fabric/parallel
///                           core.
///  typed-stats-discipline   string-keyed StatsRegistry lookups (.counter /
///                           .sample / .histogram) appear only in
///                           constructors and the stat*() resolver helpers;
///                           steady-state code bumps typed handles.
///  one-json-writer          one JSON escaper, one double formatter and one
///                           file writer: no function named json_escape,
///                           fmt_double, write_file or write_string is
///                           defined outside src/sim/jsonv.cpp, and the
///                           trace, latency and heartbeat emitters build
///                           their text with sim::JsonOut, never
///                           std::ostringstream.
///
/// Findings can be suppressed per line with `// ccnoc-lint: allow(<id>)`
/// (same line or the line above) next to a written rationale.

namespace ccnoc::lint {

struct Finding {
  std::string check;
  std::string path;
  int line = 0;
  std::string msg;
};

/// All check ids, in canonical order.
[[nodiscard]] const std::vector<std::string>& check_ids();

/// Runs checks over `f`. `only` empty = all checks. `all_scopes` disables
/// path-based scoping (fixture mode) — every check sees every file.
void run_checks(const SourceFile& f, const std::set<std::string>& only,
                bool all_scopes, std::vector<Finding>& out);

}  // namespace ccnoc::lint
