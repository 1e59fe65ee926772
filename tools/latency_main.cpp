// ccnoc_latency — per-phase transaction latency observatory front-end.
//
// Run mode: simulate one paper workload with the latency observatory on and
// write the schema-v1 latency.json (phase attribution, HDR tail
// percentiles, worst-offender table, critical-path summary). With
// --protocol both, WTI and WB-MESI run back to back and the JSON is the
// side-by-side pair the paper's write-policy tail comparison calls for.
//
//   ccnoc_latency --app ocean --arch 1 --n 4 --protocol both
//                 --json latency.json
//
// Compare mode: diff two previously written latency records field by field
// (works on both single records and the pair wrapper).
//
//   ccnoc_latency --compare a.json b.json --tolerance 5

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "apps/ocean.hpp"
#include "apps/water.hpp"
#include "core/system.hpp"
#include "sim/jsonv.hpp"
#include "sim/latency.hpp"

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
               "  --l2-banks N        two-level platform: private L1s in front\n"
               "                      of N shared L2 banks (default 0 = flat)\n"
               "  --json PATH         write latency.json\n"
               "  --top-k N           worst-offender table size (default 16)\n"
               "compare mode:\n"
               "  --compare A B       diff two latency.json records\n"
               "  --tolerance PCT     allowed relative drift (default 0 = exact)\n",
               argv0);
}

struct Options {
  std::string app = "ocean";
  unsigned arch = 1;
  unsigned n = 4;
  std::string protocol = "both";
  unsigned l2_banks = 0;
  std::string json_path;
  unsigned top_k = 16;
  std::string compare_a, compare_b;
  double tolerance = 0.0;
};

struct RunRecord {
  std::string label;
  std::string json;
};

RunRecord run_one(const Options& o, mem::Protocol proto) {
  core::SystemConfig cfg = o.arch == 1
                               ? core::SystemConfig::architecture1(o.n, proto)
                               : core::SystemConfig::architecture2(o.n, proto);
  cfg.latency = sim::LatencyMode::kOn;
  cfg.latency_top_k = o.top_k;
  if (o.l2_banks != 0) {
    cfg.hierarchy_levels = 2;
    cfg.num_l2_banks = o.l2_banks;
  }
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

  RunRecord rec;
  rec.label = o.app + std::string(" ") + to_string(proto) + " arch" +
              std::to_string(o.arch) + " n=" + std::to_string(o.n);
  const sim::LatencyObservatory& lat = sys.simulator().latency();
  rec.json = sim::latency_json(lat);

  std::printf("%s: %llu cycles\n", rec.label.c_str(),
              (unsigned long long)r.exec_cycles);
  for (const auto& [kind, ks] : lat.kinds()) {
    std::printf(
        "  %-18s %8llu txns  mean %8.1f  p50 %6llu  p99 %6llu  max %6llu"
        "  dominant %s\n",
        kind.c_str(), (unsigned long long)ks.count, ks.total.mean(),
        (unsigned long long)ks.total.percentile(0.50),
        (unsigned long long)ks.total.percentile(0.99),
        (unsigned long long)ks.total.max(), to_string(ks.dominant()));
  }
  return rec;
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
    // Kind/node/offender arrays: positional diff over the shared prefix.
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
  std::printf("latency records match: %u numeric fields within %g%%\n", compared,
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
    } else if (a == "--l2-banks") {
      o.l2_banks = unsigned(std::strtoul(value(), nullptr, 10));
    } else if (a == "--json") {
      o.json_path = value();
    } else if (a == "--top-k") {
      o.top_k = unsigned(std::strtoul(value(), nullptr, 10));
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

  RunRecord ra = run_one(o, pair ? mem::Protocol::kWti : first);
  RunRecord rb;
  if (pair) rb = run_one(o, mem::Protocol::kWbMesi);

  if (!o.json_path.empty()) {
    sim::JsonOut out;
    if (pair) {
      // WTI-vs-MESI pair wrapper: a "latencies" array with per-run labels.
      out.raw("{\"schema_version\":1,\"kind\":\"ccnoc-latency-sweep\","
              "\"bench\":\"ccnoc_latency\",\"labels\":[");
      out.str(ra.label).raw(',').str(rb.label).raw("],\"latencies\":[");
      out.raw(ra.json).raw(',').raw(rb.json).raw("]}\n");
    } else {
      out.raw(ra.json);
    }
    if (!sim::write_file(o.json_path, out.text())) return 1;
    std::printf("wrote %s\n", o.json_path.c_str());
  }
  return 0;
}
