// ccnoc_profile — line-granularity sharing & contention profiler front-end.
//
// Run mode: simulate one paper workload with the profiler on and write the
// schema-v1 profile.json and/or the self-contained HTML heatmap report.
// With --protocol both, WTI and WB-MESI run back to back and the HTML is
// the side-by-side diff the paper's write-policy comparison calls for.
//
//   ccnoc_profile --app ocean --arch 1 --n 4 --protocol both
//                 --json profile.json --html report.html
//
// Compare mode: diff two previously written profile records field by field
// (works on both single profiles and the sweep wrapper the benches emit).
//
//   ccnoc_profile --compare a.json b.json --tolerance 5

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/ocean.hpp"
#include "apps/water.hpp"
#include "core/system.hpp"
#include "sim/jsonv.hpp"
#include "sim/profile.hpp"

namespace {

using namespace ccnoc;

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "run mode:\n"
               "  --app A             ocean | water (default ocean)\n"
               "  --arch 1|2          paper architecture (default 1)\n"
               "  --n N               CPU count (default 4)\n"
               "  --protocol P        wti | mesi | wtu | both (default both)\n"
               "  --json PATH         write profile.json\n"
               "  --html PATH         write the HTML heatmap report\n"
               "  --epoch N           profiling epoch in cycles (default 1024)\n"
               "  --top N             cap per-line JSON table at N lines (0 = all)\n"
               "compare mode:\n"
               "  --compare A B       diff two profile.json records\n"
               "  --tolerance PCT     allowed relative drift (default 0 = exact)\n",
               argv0);
}

struct Options {
  std::string app = "ocean";
  unsigned arch = 1;
  unsigned n = 4;
  std::string protocol = "both";
  std::string json_path;
  std::string html_path;
  sim::Cycle epoch = 1024;
  std::size_t top = 0;
  std::string compare_a, compare_b;
  double tolerance = 0.0;
};

sim::ProfileSnapshot run_one(const Options& o, mem::Protocol proto) {
  core::SystemConfig cfg = o.arch == 1
                               ? core::SystemConfig::architecture1(o.n, proto)
                               : core::SystemConfig::architecture2(o.n, proto);
  cfg.profile = sim::ProfileMode::kOn;
  cfg.profile_epoch = o.epoch;
  core::System sys(cfg);

  std::unique_ptr<apps::Workload> w;
  if (o.app == "ocean") {
    apps::Ocean::Config c;
    c.rows_per_thread = 2;
    c.iterations = 2;
    c.compute_per_cell = 8;
    w = std::make_unique<apps::Ocean>(c);
  } else if (o.app == "water") {
    apps::Water::Config c;
    c.steps = 2;
    w = std::make_unique<apps::Water>(c);
  } else {
    std::fprintf(stderr, "unknown app '%s'\n", o.app.c_str());
    std::exit(2);
  }
  core::RunResult r = sys.run(*w);
  if (!r.verified) {
    std::fprintf(stderr, "WARNING: %s %s arch%u n=%u failed verification\n",
                 o.app.c_str(), to_string(proto), o.arch, o.n);
  }
  const std::string label = o.app + " " + to_string(proto) + " arch" +
                            std::to_string(o.arch) + " n=" + std::to_string(o.n);
  return sys.simulator().profiler().snapshot(label);
}

void print_summary(const sim::ProfileSnapshot& s) {
  std::printf("%s: %zu lines, %llu bytes NoC traffic, %llu stall cycles\n",
              s.label.c_str(), s.lines.size(),
              (unsigned long long)s.total_traffic_bytes,
              (unsigned long long)s.total_stall_cycles);
  for (std::size_t p = 0; p < sim::kNumSharingPatterns; ++p) {
    const sim::ProfileSnapshot::PatternTotal& t = s.patterns[p];
    if (t.lines == 0) continue;
    std::printf("  %-18s %5llu lines  %10llu accesses  %10llu traffic bytes\n",
                to_string(sim::SharingPattern(p)),
                (unsigned long long)t.lines, (unsigned long long)t.accesses,
                (unsigned long long)t.traffic_bytes);
  }
}

// --- compare mode ------------------------------------------------------

bool within(double a, double b, double tol_pct) {
  const double eps = 1e-12;
  return std::fabs(a - b) <= (tol_pct / 100.0) * std::max(std::fabs(b), eps) + eps;
}

/// Recursive numeric diff of two JSON values; path strings for reporting.
void diff_values(const sim::Jsonv& a, const sim::Jsonv& b, const std::string& path,
                 double tol, unsigned* compared, unsigned* diffs) {
  if (a.is_number() && b.is_number()) {
    ++*compared;
    if (!within(a.number, b.number, tol)) {
      std::printf("  %s: %.9g vs %.9g\n", path.c_str(), a.number, b.number);
      ++*diffs;
    }
    return;
  }
  if (a.is_object() && b.is_object()) {
    for (const auto& [k, av] : a.object) {
      if (const sim::Jsonv* bv = b.get(k)) {
        diff_values(av, *bv, path.empty() ? k : path + "." + k, tol, compared,
                    diffs);
      }
    }
    return;
  }
  if (a.is_array() && b.is_array()) {
    // Arrays of lines/banks/links: positional diff over the shared prefix.
    const std::size_t m = std::min(a.array.size(), b.array.size());
    for (std::size_t i = 0; i < m; ++i) {
      diff_values(a.array[i], b.array[i], path + "[" + std::to_string(i) + "]",
                  tol, compared, diffs);
    }
    if (a.array.size() != b.array.size()) {
      std::printf("  %s: length %zu vs %zu\n", path.c_str(), a.array.size(),
                  b.array.size());
      ++*diffs;
    }
  }
}

int run_compare(const Options& o) {
  sim::Jsonv a, b;
  std::string err;
  if (!sim::jsonv_parse_file(o.compare_a, a, err)) {
    std::fprintf(stderr, "%s: %s\n", o.compare_a.c_str(), err.c_str());
    return 2;
  }
  if (!sim::jsonv_parse_file(o.compare_b, b, err)) {
    std::fprintf(stderr, "%s: %s\n", o.compare_b.c_str(), err.c_str());
    return 2;
  }
  unsigned compared = 0, diffs = 0;
  diff_values(a, b, "", o.tolerance, &compared, &diffs);
  if (diffs != 0) {
    std::printf("%u of %u numeric fields differ beyond %g%% (%s vs %s)\n", diffs,
                compared, o.tolerance, o.compare_a.c_str(), o.compare_b.c_str());
    return 1;
  }
  std::printf("profiles match: %u numeric fields within %g%%\n", compared,
              o.tolerance);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--app") {
      o.app = value();
    } else if (a == "--arch") {
      o.arch = unsigned(std::strtoul(value(), nullptr, 10));
    } else if (a == "--n") {
      o.n = unsigned(std::strtoul(value(), nullptr, 10));
    } else if (a == "--protocol") {
      o.protocol = value();
    } else if (a == "--json") {
      o.json_path = value();
    } else if (a == "--html") {
      o.html_path = value();
    } else if (a == "--epoch") {
      o.epoch = std::strtoull(value(), nullptr, 10);
    } else if (a == "--top") {
      o.top = std::strtoull(value(), nullptr, 10);
    } else if (a == "--compare") {
      o.compare_a = value();
      o.compare_b = value();
    } else if (a == "--tolerance") {
      o.tolerance = std::strtod(value(), nullptr);
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: bad argument '%s'\n", argv[0], a.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  if (!o.compare_a.empty()) return run_compare(o);

  mem::Protocol first = mem::Protocol::kWti;
  bool pair = false;
  if (o.protocol == "both") {
    pair = true;
  } else if (o.protocol == "wti") {
    first = mem::Protocol::kWti;
  } else if (o.protocol == "mesi") {
    first = mem::Protocol::kWbMesi;
  } else if (o.protocol == "wtu") {
    first = mem::Protocol::kWtu;
  } else {
    std::fprintf(stderr, "unknown protocol '%s'\n", o.protocol.c_str());
    return 2;
  }

  sim::ProfileSnapshot sa = run_one(o, pair ? mem::Protocol::kWti : first);
  print_summary(sa);
  sim::ProfileSnapshot sb;
  if (pair) {
    sb = run_one(o, mem::Protocol::kWbMesi);
    print_summary(sb);
  }

  if (!o.json_path.empty()) {
    if (pair) {
      // Same wrapper the sweep benches emit: a "profiles" array.
      sim::JsonOut out;
      out.raw("{\"schema_version\":1,\"kind\":\"ccnoc-profile-sweep\","
              "\"bench\":\"ccnoc_profile\",\"profiles\":[");
      out.raw(sim::profile_json(sa, o.top)).raw(',');
      out.raw(sim::profile_json(sb, o.top)).raw("]}\n");
      if (!sim::write_file(o.json_path, out.text())) return 1;
    } else if (!sim::write_profile_json(o.json_path, sa, o.top)) {
      return 1;
    }
    std::printf("wrote %s\n", o.json_path.c_str());
  }
  if (!o.html_path.empty()) {
    const std::string title =
        pair ? sa.label + " vs " + sb.label : sa.label;
    if (!sim::write_profile_html(o.html_path, title, sa, pair ? &sb : nullptr)) {
      return 1;
    }
    std::printf("wrote %s\n", o.html_path.c_str());
  }
  return 0;
}
