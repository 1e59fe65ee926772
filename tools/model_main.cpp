// ccnoc_model — exhaustive protocol model checker (see src/verify/model.hpp).
//
// Explores every reachable configuration of (directory entry x N cache-line
// FSMs x in-flight messages x write-buffer occupancy) for one abstract
// block, proves the reachable set closes (fixpoint), and checks SWMR,
// data-value, directory agreement and deadlock freedom on every state.
// Counterexamples print as message-level scenarios with a ccnoc_fuzz replay
// hint.
//
//   ccnoc_model --protocol mesi --caches 3 --json verdict.json --dot fsm.dot
//   ccnoc_model --all --out-dir artifacts/        # CI sweep, fails on
//                                                 # violations AND dead rows
//   ccnoc_model --protocol wti --fault skip-invalidate   # expect SWMR CE

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "proto/tables.hpp"
#include "sim/jsonv.hpp"
#include "verify/hier.hpp"
#include "verify/model.hpp"
#include "verify/tablelint.hpp"

namespace {

using ccnoc::sim::write_file;
using ccnoc::verify::HierConfig;
using ccnoc::verify::ModelConfig;
using ccnoc::verify::ModelResult;

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --protocol P     wti | mesi | wtu (default wti)\n"
               "  --caches N       abstract caches, 2..4 (default 2)\n"
               "  --wbuf N         write-buffer depth, 1..3 (default 2)\n"
               "  --hier           check the two-level hierarchy instead: N\n"
               "                   private L1s x 1 shared L2 bank x 1 memory\n"
               "                   bank, two-tier directory, fills + recalls\n"
               "                   (--caches = L1s, 2..3; no --dot/--fault)\n"
               "  --direct-ack     model the paper 4.2 direct-ack rounds\n"
               "  --no-untracked   drop the icache-style untracked reader\n"
               "  --fault F        inject a protocol bug: skip-invalidate\n"
               "  --fault-cache N  the cache that misbehaves (default 1)\n"
               "  --fault-after N  correct invalidations before the bug\n"
               "  --max-states N   fixpoint guard (default 4000000)\n"
               "  --json PATH      write the JSON verdict ('-' = stdout)\n"
               "  --dot PATH       write the explored graph as DOT\n"
               "  --dot-limit N    DOT node cap (default 2000)\n"
               "  --lint           static table lint only: duplicate rows,\n"
               "                   extension rows shadowed by the flat-first\n"
               "                   lookup, rows whose from-state is\n"
               "                   unreachable (exit 1 on any finding)\n"
               "  --all            verify every protocol at 2 and 3 caches,\n"
               "                   direct-ack off and on, plus the two-level\n"
               "                   hierarchy at 2 and 3 L1s; union coverage\n"
               "                   and fail on dead rows in the flat AND the\n"
               "                   L2 extension tables\n"
               "  --out-dir DIR    with --all: write per-run JSON/DOT there\n"
               "  --quiet          summary lines only\n",
               argv0);
}

bool parse_u(const char* s, unsigned* out) {
  char* end = nullptr;
  unsigned long v = std::strtoul(s, &end, 0);
  if (end == nullptr || *end != '\0' || end == s) return false;
  *out = unsigned(v);
  return true;
}

const char* proto_name(ccnoc::mem::Protocol p) {
  switch (p) {
    case ccnoc::mem::Protocol::kWti: return "wti";
    case ccnoc::mem::Protocol::kWbMesi: return "mesi";
    case ccnoc::mem::Protocol::kWtu: return "wtu";
  }
  return "?";
}

// `out` is stderr when the JSON verdict goes to stdout (--json -), so the
// machine-readable stream stays parseable on its own.
void print_result(const ModelConfig& cfg, const ModelResult& r, bool quiet,
                  std::FILE* out = stdout) {
  std::fprintf(out,
               "%-4s caches=%u wbuf=%u direct=%d: %zu states, %zu edges, %s "
               "(%.1f ms)\n",
               proto_name(cfg.protocol), cfg.num_caches, cfg.wbuf_depth,
               cfg.direct_ack ? 1 : 0, r.states, r.edges,
               r.ok() ? "VERIFIED"
                      : (r.closed ? "VIOLATIONS" : "INCOMPLETE"),
               r.wall_ms);
  if (quiet) return;
  for (const auto& v : r.violations) {
    std::fprintf(out, "  violation [%s]: %s\n", v.rule.c_str(),
                 v.detail.c_str());
    std::fprintf(out, "  scenario (%zu steps):\n", v.trace.size());
    for (const auto& step : v.trace) std::fprintf(out, "    %s\n", step.c_str());
    std::fprintf(out, "  failing state:\n%s", v.state_dump.c_str());
    std::fprintf(out, "  replay hint: %s\n", v.fuzz_hint.c_str());
  }
}

void print_hier_result(const HierConfig& cfg, const ModelResult& r, bool quiet,
                       std::FILE* out = stdout) {
  std::fprintf(out,
               "%-4s hier l1=%u wbuf=%u: %zu states, %zu edges, %s (%.1f ms)\n",
               proto_name(cfg.protocol), cfg.num_l1, cfg.wbuf_depth, r.states,
               r.edges,
               r.ok() ? "VERIFIED" : (r.closed ? "VIOLATIONS" : "INCOMPLETE"),
               r.wall_ms);
  if (quiet) return;
  for (const auto& v : r.violations) {
    std::fprintf(out, "  violation [%s]: %s\n", v.rule.c_str(),
                 v.detail.c_str());
    std::fprintf(out, "  scenario (%zu steps):\n", v.trace.size());
    for (const auto& step : v.trace) std::fprintf(out, "    %s\n", step.c_str());
    std::fprintf(out, "  failing state:\n%s", v.state_dump.c_str());
    std::fprintf(out, "  replay hint: %s\n", v.fuzz_hint.c_str());
  }
}

/// --all: sweep protocols x {2,3} caches x direct-ack off/on, then the
/// two-level hierarchy at 2 and 3 L1s; union each protocol's coverage
/// across its runs, and demand every declared row of both its tables (flat
/// and L2 extension) is exercised somewhere (dead rows fail the sweep).
int run_all(const std::string& out_dir, unsigned max_states, bool quiet) {
  using ccnoc::mem::Protocol;
  bool all_ok = true;
  for (Protocol p : {Protocol::kWti, Protocol::kWbMesi, Protocol::kWtu}) {
    ccnoc::proto::CoverageSet unioned;
    for (unsigned caches : {2u, 3u}) {
      for (bool direct : {false, true}) {
        // Direct-ack rounds only exist for invalidation protocols.
        if (direct && p == Protocol::kWtu) continue;
        ModelConfig cfg;
        cfg.protocol = p;
        cfg.num_caches = caches;
        cfg.direct_ack = direct;
        cfg.max_states = max_states;
        if (caches >= 3) {
          // Keep the 3-cache run tractable: the rows that need a third
          // sharer are control-path rows, independent of buffer depth and
          // the untracked reader (both fully explored at 2 caches).
          cfg.wbuf_depth = 1;
          cfg.untracked_reads = false;
        }
        ccnoc::verify::ModelChecker mc(cfg);
        ModelResult r = mc.run();
        print_result(cfg, r, quiet);
        unioned.merge(r.covered);
        if (!r.ok()) all_ok = false;
        if (!out_dir.empty()) {
          std::string stem = out_dir + "/model-" + proto_name(p) + "-c" +
                             std::to_string(caches) +
                             (direct ? "-direct" : "");
          write_file(stem + ".json", to_json(cfg, r));
          write_file(stem + ".dot", mc.to_dot());
        }
      }
    }
    for (unsigned l1 : {2u, 3u}) {
      // MESI at 3 L1s closes (16.5M states) but takes minutes and gigabytes;
      // every L2 extension row is already covered at 2 L1s, so the sweep
      // keeps the third sharer only where it is cheap. Run it by hand with
      //   ccnoc_model --hier --protocol mesi --caches 3 --max-states 20000000
      if (l1 >= 3 && p == Protocol::kWbMesi) continue;
      HierConfig hc;
      hc.protocol = p;
      hc.num_l1 = l1;
      hc.wbuf_depth = 1;  // depth sensitivity is fully explored flat
      hc.max_states = max_states;
      ccnoc::verify::HierChecker hmc(hc);
      ModelResult r = hmc.run();
      print_hier_result(hc, r, quiet);
      unioned.merge(r.covered);
      if (!r.ok()) all_ok = false;
      if (!out_dir.empty()) {
        std::string stem = out_dir + "/model-" + proto_name(p) + "-hier-l" +
                           std::to_string(l1);
        write_file(stem + ".json", to_json(hc, r));
      }
    }
    for (const auto* tbl :
         {&ccnoc::proto::table_for(p), &ccnoc::proto::l2_table_for(p)}) {
      unsigned dead = 0;
      for (int id = tbl->base_id(); id < tbl->base_id() + tbl->row_count();
           ++id) {
        if (!unioned.covered(id)) {
          std::printf("DEAD ROW: %s\n", ccnoc::proto::row_name(id).c_str());
          ++dead;
          all_ok = false;
        }
      }
      if (tbl->row_count() == 0) continue;
      const std::string name =
          std::string(proto_name(p)) +
          (tbl == &ccnoc::proto::table_for(p) ? "" : "-L2");
      std::printf("%-7s table: %d rows, %u covered across the sweep%s\n",
                  name.c_str(), tbl->row_count(),
                  unsigned(tbl->row_count()) - dead,
                  dead == 0 ? "" : " — DEAD ROWS PRESENT");
    }
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ModelConfig cfg;
  bool all = false;
  bool hier = false;
  bool lint = false;
  bool quiet = false;
  std::string json_path;
  std::string dot_path;
  std::string out_dir;
  unsigned dot_limit = 2000;
  unsigned max_states = 4'000'000;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    unsigned n = 0;
    if (a == "--protocol") {
      const std::string p = value();
      if (p == "wti") {
        cfg.protocol = ccnoc::mem::Protocol::kWti;
      } else if (p == "mesi") {
        cfg.protocol = ccnoc::mem::Protocol::kWbMesi;
      } else if (p == "wtu") {
        cfg.protocol = ccnoc::mem::Protocol::kWtu;
      } else {
        std::fprintf(stderr, "%s: unknown protocol '%s'\n", argv[0], p.c_str());
        return 2;
      }
    } else if (a == "--caches" && parse_u(value(), &n)) {
      cfg.num_caches = n;
    } else if (a == "--wbuf" && parse_u(value(), &n)) {
      cfg.wbuf_depth = n;
    } else if (a == "--hier") {
      hier = true;
    } else if (a == "--direct-ack") {
      cfg.direct_ack = true;
    } else if (a == "--no-untracked") {
      cfg.untracked_reads = false;
    } else if (a == "--fault") {
      const std::string f = value();
      if (f != "skip-invalidate") {
        std::fprintf(stderr, "%s: unknown fault '%s'\n", argv[0], f.c_str());
        return 2;
      }
      cfg.fault_skip_invalidate = true;
    } else if (a == "--fault-cache" && parse_u(value(), &n)) {
      cfg.fault_cache = n;
    } else if (a == "--fault-after" && parse_u(value(), &n)) {
      cfg.fault_after = n;
    } else if (a == "--max-states" && parse_u(value(), &n)) {
      max_states = n;
    } else if (a == "--json") {
      json_path = value();
    } else if (a == "--dot") {
      dot_path = value();
    } else if (a == "--dot-limit" && parse_u(value(), &n)) {
      dot_limit = n;
    } else if (a == "--lint") {
      lint = true;
    } else if (a == "--all") {
      all = true;
    } else if (a == "--out-dir") {
      out_dir = value();
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: bad argument '%s'\n", argv[0], a.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  if (lint) {
    // Static analysis of the declared tables themselves — the defects the
    // dynamic dead-row coverage check cannot name (it only reports rows
    // that never RAN; these rows can never run).
    const ccnoc::verify::TableLintResult r = ccnoc::verify::lint_all_tables();
    if (!r.clean()) {
      std::string rendered = ccnoc::verify::to_string(r);
      std::fwrite(rendered.data(), 1, rendered.size(), stdout);
      std::printf("table lint: %zu finding(s)\n", r.findings.size());
      return 1;
    }
    std::printf(
        "table lint: %d rows across WTI/WTU/MESI flat + L2 extension "
        "tables, 0 findings\n",
        ccnoc::proto::total_rows());
    return 0;
  }

  if (all) return run_all(out_dir, max_states, quiet);

  if (hier) {
    if (cfg.direct_ack || cfg.fault_skip_invalidate || !dot_path.empty()) {
      std::fprintf(stderr,
                   "%s: --hier supports neither --direct-ack, --fault nor "
                   "--dot\n",
                   argv[0]);
      return 2;
    }
    HierConfig hc;
    hc.protocol = cfg.protocol;
    hc.num_l1 = cfg.num_caches;
    hc.wbuf_depth = cfg.wbuf_depth;
    hc.untracked_reads = cfg.untracked_reads;
    hc.max_states = max_states;
    ccnoc::verify::HierChecker hmc(hc);
    ModelResult r = hmc.run();
    print_hier_result(hc, r, quiet, json_path == "-" ? stderr : stdout);
    if (!json_path.empty() && !write_file(json_path, to_json(hc, r))) return 2;
    return r.ok() ? 0 : 1;
  }

  cfg.max_states = max_states;
  ccnoc::verify::ModelChecker mc(cfg);
  ModelResult r = mc.run();
  print_result(cfg, r, quiet, json_path == "-" ? stderr : stdout);
  if (!json_path.empty() && !write_file(json_path, to_json(cfg, r))) return 2;
  if (!dot_path.empty() && !write_file(dot_path, mc.to_dot(dot_limit))) return 2;
  return r.ok() ? 0 : 1;
}
