#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "sim/jsonv.hpp"

/// Shared command-line and JSON-output plumbing for the bench binaries.
///
/// Every bench accepts:
///   --json <path>           write a machine-readable BENCH_*.json record
///   --threads <n>           worker threads for the sweep (default: all cores,
///                           or the CCNOC_SWEEP_THREADS environment variable)
///   --serial                force the single-threaded reference path
///   --profile <path>        write a line-granularity sharing profile
///                           (schema in EXPERIMENTS.md, "Sharing profiling")
///   --profile-html <path>   write the self-contained HTML heatmap report
///   --baseline <path>       compare --json output against a committed
///                           baseline record; exit 1 on regression
///   --tolerance <pct>       allowed relative drift for deterministic fields
///                           in the baseline compare (default 0 = exact);
///                           host-speed fields are never compared
///   --parallel-domains <n>  run the measured platforms on the conservative
///                           parallel core with n domains (0 = serial core);
///                           results are byte-identical either way
///   --heartbeat <ms>        live progress heartbeat on stderr every <ms>
///   --heartbeat-json <path> stream heartbeats as ccnoc-heartbeat-v1 JSONL
///
/// The JSON schema is documented in EXPERIMENTS.md ("JSON bench output").

namespace ccnoc::bench {

struct BenchOptions {
  std::string json_path;          ///< empty = no JSON output
  unsigned threads = 0;           ///< 0 = SweepRunner default
  bool serial = false;
  std::string profile_path;       ///< empty = no sharing profile
  std::string profile_html_path;  ///< empty = no HTML report
  std::string baseline_path;      ///< empty = no baseline compare
  double tolerance = 0.0;         ///< % drift allowed on deterministic fields
  unsigned parallel_domains = 0;  ///< SystemConfig::parallel_domains for runs
  unsigned heartbeat_ms = 0;      ///< SystemConfig::heartbeat_ms passthrough
  std::string heartbeat_json;     ///< SystemConfig::heartbeat_json passthrough

  /// Any profile output requested? (drives ProfileMode for the runs)
  [[nodiscard]] bool want_profile() const {
    return !profile_path.empty() || !profile_html_path.empty();
  }
};

inline BenchOptions parse_bench_args(int argc, char** argv) {
  BenchOptions opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      opt.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      long v = std::strtol(argv[++i], nullptr, 10);
      if (v > 0) opt.threads = unsigned(v);
    } else if (std::strcmp(argv[i], "--serial") == 0) {
      opt.serial = true;
    } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      opt.profile_path = argv[++i];
    } else if (std::strcmp(argv[i], "--profile-html") == 0 && i + 1 < argc) {
      opt.profile_html_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      opt.baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      opt.tolerance = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--parallel-domains") == 0 && i + 1 < argc) {
      long v = std::strtol(argv[++i], nullptr, 10);
      if (v > 0) opt.parallel_domains = unsigned(v);
    } else if (std::strcmp(argv[i], "--heartbeat") == 0 && i + 1 < argc) {
      long v = std::strtol(argv[++i], nullptr, 10);
      if (v > 0) opt.heartbeat_ms = unsigned(v);
    } else if (std::strcmp(argv[i], "--heartbeat-json") == 0 && i + 1 < argc) {
      opt.heartbeat_json = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::printf("usage: %s [--json <path>] [--threads <n>] [--serial]\n"
                  "          [--profile <path>] [--profile-html <path>]\n"
                  "          [--baseline <path>] [--tolerance <pct>]\n"
                  "          [--parallel-domains <n>]\n"
                  "          [--heartbeat <ms>] [--heartbeat-json <path>]\n", argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (opt.serial) opt.threads = 1;
  return opt;
}

/// Minimal JSON emitter: enough structure for the flat bench records
/// (objects, arrays, string/number/bool fields) on top of sim::JsonOut.
/// Doubles keep nine significant digits ("%.9g"). Comma placement is
/// tracked with one flag: anything that completes a value (a field,
/// end_object, end_array) marks the next sibling as needing a separator.
class JsonWriter {
 public:
  void begin_object() { sep(); open('{'); }
  void begin_object(const std::string& key) { key_of(key); open('{'); }
  void end_object() { done('}'); }
  void begin_array(const std::string& key) { key_of(key); open('['); }
  void end_array() { done(']'); }

  void field(const std::string& key, const std::string& v) {
    key_of(key);
    out_.str(v);
    need_comma_ = true;
  }
  void field(const std::string& key, const char* v) { field(key, std::string(v)); }
  void field(const std::string& key, std::uint64_t v) {
    key_of(key);
    out_.num(v);
    need_comma_ = true;
  }
  void field(const std::string& key, unsigned v) {
    field(key, static_cast<std::uint64_t>(v));
  }
  void field(const std::string& key, double v) {
    key_of(key);
    out_.num(v, 9);
    need_comma_ = true;
  }
  void field(const std::string& key, bool v) {
    key_of(key);
    out_.boolean(v);
    need_comma_ = true;
  }

  /// The finished record, ending in a newline.
  [[nodiscard]] std::string take_line() {
    out_.raw('\n');
    return out_.take();
  }

 private:
  void sep() {
    if (need_comma_) out_.raw(',');
    need_comma_ = false;
  }
  void key_of(const std::string& key) {
    sep();
    out_.str(key).raw(':');
  }
  void open(char c) {
    out_.raw(c);
    need_comma_ = false;
  }
  void done(char c) {
    out_.raw(c);
    need_comma_ = true;
  }

  sim::JsonOut out_;
  bool need_comma_ = false;
};

/// Row-oriented JSON record for the bespoke (non-grid) benches: each row is
/// one measured configuration with a label and named numeric metrics, saved
/// in the order the bench printed it. Wall time is measured from
/// construction to write().
class MetricLog {
 public:
  MetricLog() : t0_(std::chrono::steady_clock::now()) {}

  void add(const std::string& label,
           std::initializer_list<std::pair<const char*, double>> values) {
    rows_.push_back({label, {values.begin(), values.end()}});
  }

  /// Write the BENCH_*.json record (schema in EXPERIMENTS.md); returns
  /// false (with a message on stderr) if the file can't be written.
  [[nodiscard]] bool write(const std::string& path,
                           const std::string& bench_name) const {
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0_).count();
    JsonWriter w;
    w.begin_object();
    w.field("bench", bench_name);
    w.field("schema_version", std::uint64_t{1});
    w.begin_array("points");
    for (const Row& r : rows_) {
      w.begin_object();
      w.field("label", r.label);
      for (const auto& [key, v] : r.values) {
        // Counters arrive as doubles; keep exact integers integral in the
        // output instead of rounding them through %g.
        if (v >= 0 && v == std::floor(v) && v < 9.007199254740992e15) {
          w.field(key, std::uint64_t(v));
        } else {
          w.field(key, v);
        }
      }
      w.end_object();
    }
    w.end_array();
    w.begin_object("totals");
    w.field("points", std::uint64_t(rows_.size()));
    w.field("wall_seconds", wall);
    w.end_object();
    w.end_object();
    if (!sim::write_file(path, w.take_line())) return false;
    std::printf("wrote %s (%zu points)\n", path.c_str(), rows_.size());
    return true;
  }

 private:
  struct Row {
    std::string label;
    std::vector<std::pair<std::string, double>> values;
  };
  std::chrono::steady_clock::time_point t0_;
  std::vector<Row> rows_;
};

}  // namespace ccnoc::bench
