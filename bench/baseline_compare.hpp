#pragma once

#include <cmath>
#include <cstdio>
#include <string>

#include "bench_io.hpp"
#include "sim/jsonv.hpp"

/// Baseline regression checking for the BENCH_*.json records.
///
/// A baseline is a previously committed BENCH_*.json (bench/baselines/).
/// Points are matched by "label", or by the (app, arch, protocol, n) tuple
/// for the paper-grid records, and every shared numeric field is compared:
///
///   * deterministic fields (cycles, bytes, packets, hops, ...) must agree
///     within --tolerance percent — default 0, i.e. exactly: the simulator
///     is deterministic, so these are machine-independent;
///   * host-performance fields (events_per_sec, wall_seconds, anything
///     ending in "_ratio") are never compared: one single-process sample
///     cannot tell a slower simulator from a busy host (a 1.5x slowdown
///     stayed inside a 75% band). Host speed is measured by perfbench's
///     interleaved, repeated runs instead.
///
/// Points present in only one record are reported but do not fail the
/// compare (sweeps legitimately grow), missing fields likewise.

namespace ccnoc::bench {

/// Host-speed fields: left out of the compare.
inline bool is_perf_field(const std::string& key) {
  if (key.find("per_sec") != std::string::npos) return true;
  if (key.find("wall_seconds") != std::string::npos) return true;
  if (key.size() > 6 && key.compare(key.size() - 6, 6, "_ratio") == 0) return true;
  return false;
}

namespace detail {

/// Identity of one point: the label, or the paper-grid tuple.
inline std::string point_key(const sim::Jsonv& pt) {
  if (const sim::Jsonv* l = pt.get("label"); l != nullptr && l->is_string())
    return l->string;
  std::string key;
  for (const char* part : {"app", "arch", "protocol", "n"}) {
    const sim::Jsonv* v = pt.get(part);
    if (v == nullptr) continue;
    if (!key.empty()) key += '/';
    if (v->is_string()) key += v->string;
    else if (v->is_number()) key += std::to_string(std::int64_t(v->number));
  }
  return key;
}

inline bool within(double cur, double base, double tol_pct) {
  const double eps = 1e-12;
  return std::fabs(cur - base) <=
         (tol_pct / 100.0) * std::max(std::fabs(base), eps) + eps;
}

inline const sim::Jsonv* find_point(const sim::Jsonv& points, const std::string& key) {
  if (!points.is_array()) return nullptr;
  for (const sim::Jsonv& p : points.array)
    if (point_key(p) == key) return &p;
  return nullptr;
}

}  // namespace detail

/// Compare the freshly written record at \p current_path against
/// \p baseline_path. Returns true when no compared field regressed.
inline bool compare_with_baseline(const std::string& current_path,
                                  const std::string& baseline_path,
                                  double tolerance_pct) {
  sim::Jsonv cur, base;
  std::string err;
  if (!sim::jsonv_parse_file(current_path, cur, err)) {
    std::fprintf(stderr, "baseline compare: %s: %s\n", current_path.c_str(),
                 err.c_str());
    return false;
  }
  if (!sim::jsonv_parse_file(baseline_path, base, err)) {
    std::fprintf(stderr, "baseline compare: %s: %s\n", baseline_path.c_str(),
                 err.c_str());
    return false;
  }
  const sim::Jsonv* cur_pts = cur.get("points");
  const sim::Jsonv* base_pts = base.get("points");
  if (cur_pts == nullptr || base_pts == nullptr || !cur_pts->is_array() ||
      !base_pts->is_array()) {
    std::fprintf(stderr, "baseline compare: missing \"points\" array\n");
    return false;
  }

  unsigned compared = 0, skipped_points = 0, failures = 0;
  for (const sim::Jsonv& bp : base_pts->array) {
    const std::string key = detail::point_key(bp);
    const sim::Jsonv* cp = detail::find_point(*cur_pts, key);
    if (cp == nullptr) {
      std::fprintf(stderr, "baseline compare: point \"%s\" missing from %s\n",
                   key.c_str(), current_path.c_str());
      ++skipped_points;
      continue;
    }
    for (const auto& [field, bv] : bp.object) {
      if (!bv.is_number()) continue;
      const sim::Jsonv* cv = cp->get(field);
      if (cv == nullptr || !cv->is_number() || is_perf_field(field)) continue;
      ++compared;
      if (!detail::within(cv->number, bv.number, tolerance_pct)) {
        std::fprintf(stderr,
                     "REGRESSION: %s.%s: %.9g (baseline %.9g, tolerance %g%%)\n",
                     key.c_str(), field.c_str(), cv->number, bv.number, tolerance_pct);
        ++failures;
      }
    }
  }
  if (failures != 0) {
    std::fprintf(stderr, "baseline compare FAILED: %u field(s) regressed vs %s\n",
                 failures, baseline_path.c_str());
    return false;
  }
  std::printf("baseline compare OK: %u fields within tolerance vs %s%s\n",
              compared, baseline_path.c_str(),
              skipped_points != 0 ? " (some baseline points absent)" : "");
  return true;
}

/// Shared bench epilogue: when --baseline was given, the record written to
/// --json is checked against it. Returns the process exit code contribution
/// (0 = pass). Requires --json when --baseline is used.
inline int run_baseline_check(const BenchOptions& opt) {
  if (opt.baseline_path.empty()) return 0;
  if (opt.json_path.empty()) {
    std::fprintf(stderr, "--baseline requires --json\n");
    return 2;
  }
  return compare_with_baseline(opt.json_path, opt.baseline_path, opt.tolerance) ? 0 : 1;
}

}  // namespace ccnoc::bench
