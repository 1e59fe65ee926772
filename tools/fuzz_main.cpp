// ccnoc_fuzz — seeded coherence protocol fuzzer (see src/core/fuzz.hpp).
//
// Runs FuzzWorkload on a fully checked platform (golden-model oracle +
// invariant walker) for one seed or a seed range, under either protocol.
// On failure it prints the violation report, optionally minimizes the
// configuration to the smallest still-failing repro, optionally dumps a
// Chrome/Perfetto trace of the (minimized) failing run, and exits 1.
//
//   ccnoc_fuzz --seeds 100 --cpus 4 --protocol mesi
//   ccnoc_fuzz --seed 7 --protocol wti --fault skip-invalidate --minimize
//              --trace repro.trace.json
//
// Every failure line ends with the exact replay command.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/fuzz.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --seed N            first seed (default 1)\n"
               "  --seeds N           number of consecutive seeds (default 1)\n"
               "  --ops N             ops per thread (default 400)\n"
               "  --cpus N            CPU count (default 4)\n"
               "  --arch 1|2          paper architecture (default 1)\n"
               "  --protocol P        wti | mesi | wtu (default wti)\n"
               "  --direct-ack        enable direct invalidation acks (paper 4.2)\n"
               "  --lock-every N      lock section every N ops, 0 = off (default 64)\n"
               "  --barrier-every N   barrier every N ops, 0 = off (default 128)\n"
               "  --walk-interval N   invariant walk interval in cycles (default 1024)\n"
               "  --max-cycles N      hang guard (default 50000000)\n"
               "  --fault F           inject a protocol bug: skip-invalidate\n"
               "  --fault-after N     correct invalidations before the bug fires\n"
               "  --l2-banks N        two-level platform: private L1s in front\n"
               "                      of N shared L2 banks (default 0 = flat)\n"
               "  --l2-bytes N        L2 data array per bank (default 2048 —\n"
               "                      tiny, so capacity recalls fire)\n"
               "  --minimize          shrink a failing config to a minimal repro\n"
               "  --trace PATH        record a Chrome trace of every run\n"
               "                      (multi-seed runs overwrite; the minimized\n"
               "                      repro is re-recorded after --minimize)\n"
               "  --profile PATH      record a sharing profile of every run\n"
               "  --latency PATH      record a per-phase latency breakdown of\n"
               "                      every run (ccnoc-latency schema)\n"
               "  --heartbeat N       progress heartbeat every N ms on stderr\n"
               "  --heartbeat-json PATH  stream heartbeats as JSONL (ccnoc-heartbeat-v1)\n"
               "  --quiet             only print failures and the final tally\n",
               argv0);
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 0);
  return end != nullptr && *end == '\0' && end != s;
}

}  // namespace

int main(int argc, char** argv) {
  using ccnoc::core::FuzzOptions;
  using ccnoc::core::FuzzOutcome;

  FuzzOptions opt;
  std::uint64_t num_seeds = 1;
  bool minimize = false;
  bool quiet = false;
  std::string trace_path;
  std::string profile_path;
  std::string latency_path;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    std::uint64_t n = 0;
    if (a == "--seed" && parse_u64(value(), &n)) {
      opt.seed = n;
    } else if (a == "--seeds" && parse_u64(value(), &n)) {
      num_seeds = n;
    } else if (a == "--ops" && parse_u64(value(), &n)) {
      opt.ops = unsigned(n);
    } else if (a == "--cpus" && parse_u64(value(), &n)) {
      opt.cpus = unsigned(n);
    } else if (a == "--arch" && parse_u64(value(), &n)) {
      opt.arch = unsigned(n);
    } else if (a == "--protocol") {
      const std::string p = value();
      if (p == "wti") {
        opt.protocol = ccnoc::mem::Protocol::kWti;
      } else if (p == "mesi") {
        opt.protocol = ccnoc::mem::Protocol::kWbMesi;
      } else if (p == "wtu") {
        opt.protocol = ccnoc::mem::Protocol::kWtu;
      } else {
        std::fprintf(stderr, "%s: unknown protocol '%s'\n", argv[0], p.c_str());
        return 2;
      }
    } else if (a == "--direct-ack") {
      opt.direct_ack = true;
    } else if (a == "--lock-every" && parse_u64(value(), &n)) {
      opt.lock_every = unsigned(n);
    } else if (a == "--barrier-every" && parse_u64(value(), &n)) {
      opt.barrier_every = unsigned(n);
    } else if (a == "--walk-interval" && parse_u64(value(), &n)) {
      opt.walk_interval = n;
    } else if (a == "--max-cycles" && parse_u64(value(), &n)) {
      opt.max_cycles = n;
    } else if (a == "--fault") {
      const std::string f = value();
      if (f == "skip-invalidate") {
        opt.fault = ccnoc::cache::CacheConfig::FaultKind::kSkipInvalidate;
      } else {
        std::fprintf(stderr, "%s: unknown fault '%s'\n", argv[0], f.c_str());
        return 2;
      }
    } else if (a == "--fault-after" && parse_u64(value(), &n)) {
      opt.fault_after = unsigned(n);
    } else if (a == "--l2-banks" && parse_u64(value(), &n)) {
      opt.l2_banks = unsigned(n);
    } else if (a == "--l2-bytes" && parse_u64(value(), &n)) {
      opt.l2_size_bytes = unsigned(n);
    } else if (a == "--heartbeat" && parse_u64(value(), &n)) {
      opt.heartbeat_ms = unsigned(n);
    } else if (a == "--heartbeat-json") {
      opt.heartbeat_json = value();
    } else if (a == "--minimize") {
      minimize = true;
    } else if (a == "--trace") {
      trace_path = value();
    } else if (a == "--profile") {
      profile_path = value();
    } else if (a == "--latency") {
      latency_path = value();
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

  std::uint64_t failures = 0;
  for (std::uint64_t s = 0; s < num_seeds; ++s) {
    FuzzOptions run = opt;
    run.seed = opt.seed + s;
    // Observers ride along on the primary run, so there is no need to wait
    // for a failure and re-run.
    run.trace_path = trace_path;
    run.profile_path = profile_path;
    run.latency_path = latency_path;
    FuzzOutcome out = ccnoc::core::run_fuzz(run);
    if (out.passed()) {
      if (!quiet) {
        std::printf("seed %llu: %s\n", (unsigned long long)run.seed,
                    out.summary().c_str());
      }
      continue;
    }
    ++failures;
    std::printf("seed %llu: %s\n", (unsigned long long)run.seed,
                out.summary().c_str());
    if (!out.report.empty()) std::printf("%s", out.report.c_str());

    if (minimize) {
      // Shrink without observers (dozens of candidate runs), then re-record
      // the minimized repro so the trace/profile on disk match it.
      FuzzOptions shrink = run;
      shrink.trace_path.clear();
      shrink.profile_path.clear();
      shrink.latency_path.clear();
      ccnoc::core::MinimizeResult m = ccnoc::core::minimize_fuzz(shrink);
      std::printf("minimized after %u runs: cpus=%u ops=%u lock_every=%u "
                  "barrier_every=%u (%s)\n",
                  m.runs, m.reduced.cpus, m.reduced.ops, m.reduced.lock_every,
                  m.reduced.barrier_every, m.outcome.summary().c_str());
      run = m.reduced;
      if (!trace_path.empty() || !profile_path.empty() || !latency_path.empty()) {
        run.trace_path = trace_path;
        run.profile_path = profile_path;
        run.latency_path = latency_path;
        (void)ccnoc::core::run_fuzz(run);
      }
    }
    if (!trace_path.empty()) {
      std::printf("trace of failing run written to %s\n", trace_path.c_str());
    }
    if (!profile_path.empty()) {
      std::printf("sharing profile of failing run written to %s\n",
                  profile_path.c_str());
    }
    if (!latency_path.empty()) {
      std::printf("latency breakdown of failing run written to %s\n",
                  latency_path.c_str());
    }
    std::printf("replay: %s\n", run.command_line().c_str());
  }

  std::printf("%llu/%llu seed(s) passed (%s, %u cpus, arch %u)\n",
              (unsigned long long)(num_seeds - failures),
              (unsigned long long)num_seeds,
              ccnoc::mem::to_string(opt.protocol), opt.cpus, opt.arch);
  return failures == 0 ? 0 : 1;
}
