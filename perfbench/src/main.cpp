// Measurement engine of the repository benchmark (driven by perfbench/run.py).
//
//   ccnoc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--spans PATH]
//
// --trace 0: untimed warm-up at the default seed, then whole-job samples at
// --seed for S seconds.
// --trace 1: untraced and traced samples of the job in turn for S/2 seconds,
// the isolated layer loops until S seconds, then the platform measurements
// (on Ocean: the parallel engine and the model checkers; on Water: the
// observer costs).
// Prints one JSON object of raw measurements; run.py turns it into metrics.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "spans.hpp"
#include "workloads.hpp"

using namespace perfbench;
namespace core = ccnoc::core;
namespace sim = ccnoc::sim;

namespace {

constexpr int kPlatformRounds = 3;

std::string jstr(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", unsigned(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Builds one JSON object member by member.
class Obj {
 public:
  Obj& raw(std::string_view key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + jstr(key) + ":" + json;
    return *this;
  }
  Obj& num(std::string_view key, double v) { return raw(key, jnum(v)); }
  Obj& str(std::string_view key, std::string_view v) { return raw(key, jstr(v)); }
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string outcome_json(const Outcome& o) {
  return Obj()
      .num("setup_s", o.setup_s)
      .num("run_s", o.run_s)
      .num("export_s", o.export_s)
      .num("wall_s", o.wall_s)
      .num("work", o.work)
      .str("fingerprint", o.fingerprint)
      .str("error", o.error)
      .done();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string build_json() {
  return Obj()
      .str("compiler", "g++ " __VERSION__)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .num("hardware_threads", std::thread::hardware_concurrency())
      .done();
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

/// Untimed default-seed sample, checked against the pinned fingerprint by
/// run.py whatever seed is measured. Also warms the allocator and host
/// caches before timing.
std::string reference_json(const Workload& w) {
  return outcome_json(run_sim(w.spec, kDefaultSeed, nullptr, {}));
}

int untraced_pass(const Workload& w, const Args& a) {
  Obj out;
  out.str("workload", w.name).num("seed", double(a.seed)).raw("build", build_json());
  out.raw("reference", reference_json(w));
  std::string samples;
  const Clock::time_point t0 = Clock::now();
  do {
    samples += (samples.empty() ? "" : ",") +
               outcome_json(run_sim(w.spec, a.seed, nullptr, {}));
  } while (seconds_since(t0) < a.seconds);
  out.raw("samples", "[" + samples + "]");
  out.num("peak_rss_mb", peak_rss_mb());
  std::printf("%s\n", out.done().c_str());
  return 0;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

int traced_pass(const Workload& w, const Args& a) {
  const Clock::time_point t0 = Clock::now();
  Obj out;
  out.str("workload", w.name).num("seed", double(a.seed)).raw("build", build_json());
  out.raw("reference", reference_json(w));
  // Untraced and traced samples alternate; their ratio is the span log's
  // own cost.
  std::vector<Outcome> plain, traced;
  SpanLog log;
  do {
    plain.push_back(run_sim(w.spec, a.seed, nullptr, {}));
    traced.push_back(run_sim(w.spec, a.seed, &log, {}));
  } while (seconds_since(t0) < a.seconds / 2);
  auto median_of = [](const std::vector<Outcome>& v, double Outcome::*f) {
    std::vector<double> x;
    for (const Outcome& o : v) x.push_back(o.*f);
    return median(x);
  };
  const double plain_run_s = median_of(plain, &Outcome::run_s);

  std::vector<LayerCosts> rounds;
  do {
    rounds.push_back(measure_layers(w.shape, &log));
  } while (seconds_since(t0) < a.seconds);
  LayerCosts cost;
  for (double LayerCosts::*f :
       {&LayerCosts::queue_ns_per_event, &LayerCosts::gmn_ns_per_packet,
        &LayerCosts::gmn_events_per_packet, &LayerCosts::dir_ns_per_op,
        &LayerCosts::hit_ns, &LayerCosts::miss_roundtrip_ns,
        &LayerCosts::store_drain_ns}) {
    std::vector<double> v;
    for (const LayerCosts& c : rounds) v.push_back(c.*f);
    cost.*f = median(v);
  }

  // Platform measurements, in interleaved rounds so drift hits every
  // configuration alike. Each run must also pass its own checks.
  std::vector<Outcome> platform;
  auto run_rounds = [&](const std::vector<std::pair<const char*, Tweak>>& configs) {
    std::vector<std::vector<Outcome>> runs(configs.size());
    for (int r = 0; r < kPlatformRounds; ++r) {
      for (std::size_t i = 0; i < configs.size(); ++i) {
        Scope s(&log, configs[i].first);
        runs[i].push_back(run_sim(w.spec, a.seed, &log, configs[i].second));
        platform.push_back(runs[i].back());
      }
    }
    return runs;
  };
  // Parallel engine: the same job at 2 and 4 domains, at most nproc workers,
  // identical to serial.
  double speedup[2] = {0.0, 0.0};
  if (w.name == "ocean64_mesi_smp") {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    auto domains = [hw](unsigned d) {
      return [d, hw](core::SystemConfig& c) {
        c.parallel_domains = d;
        c.parallel_workers = std::min(d, hw);
      };
    };
    const auto runs =
        run_rounds({{"parallel.d2", domains(2)}, {"parallel.d4", domains(4)}});
    for (int i = 0; i < 2; ++i)
      speedup[i] = ratio(plain_run_s, median_of(runs[i], &Outcome::run_s));
    for (Outcome& o : platform) {
      if (o.error.empty() && o.fingerprint != plain.front().fingerprint)
        o.error = "parallel run differs from serial";
    }
  }
  // The model checkers never touch the event queue; their job rides on
  // Ocean's pass. Their fingerprint is pinned by run.py.
  Outcome model;
  if (w.name == "ocean64_mesi_smp") model = run_model_checkers(&log);
  // Observer costs: the whole job with one observer on, against all off.
  double obs_ratio[4] = {0.0, 0.0, 0.0, 0.0};
  if (w.name == "water64_wti_smp_observed") {
    auto only = [](int which) {
      return [which](core::SystemConfig& c) {
        if (which != 0) c.trace = sim::TraceMode::kOff;
        if (which != 1) c.profile = sim::ProfileMode::kOff;
        if (which != 2) c.latency = sim::LatencyMode::kOff;
        if (which != 3) c.check.enabled = false;
      };
    };
    const auto runs = run_rounds({{"observers.off", only(-1)},
                                  {"observers.trace", only(0)},
                                  {"observers.profile", only(1)},
                                  {"observers.latency", only(2)},
                                  {"observers.check", only(3)}});
    const double off = median_of(runs[0], &Outcome::wall_s);
    for (int i = 0; i < 4; ++i)
      obs_ratio[i] = ratio(median_of(runs[i + 1], &Outcome::wall_s), off);
  }

  // Counts are identical in every sample (the fingerprints say so); shares
  // come from the last traced one. Every key read must be registered: a
  // renamed or missing counter fails the sample instead of reading 0.
  Outcome& last = traced.back();
  std::string missing;
  auto count = [&last, &missing](const std::string& k) {
    const auto it = last.counts.find(k);
    if (it != last.counts.end()) return it->second;
    missing += (missing.empty() ? "" : ", ") + k;
    return 0.0;
  };
  const double events = count("run.events");
  const double instr = count("run.instructions");
  const double packets = count("run.noc_packets");
  const double cycles = count("run.exec_cycles");
  // The data-cache counters differ by protocol. WB-MESI counts store hits by
  // the line's state and atomics as stores, and stalls on its write-back
  // buffer; WTI counts atomics apart and stalls on its write buffer.
  const bool wti = w.shape.protocol == ccnoc::mem::Protocol::kWti;
  const double d_hits =
      count("cpu*.dcache.load_hits") +
      (wti ? count("cpu*.dcache.store_hits")
           : count("cpu*.dcache.store_hits_em") + count("cpu*.dcache.store_hits_s"));
  const double d_accesses = d_hits + count("cpu*.dcache.load_misses") +
                            count("cpu*.dcache.store_misses") +
                            (wti ? count("cpu*.dcache.atomic_swaps") : 0.0);
  const double buffer_stalls = count(wti ? "cpu*.dcache.wbuf_full_stalls"
                                         : "cpu*.dcache.wb_buffer_stalls");
  const double i_hits = count("cpu*.icache.hits");
  const double bank_requests = count("bank*.requests");
  const double busy_share =
      ratio(count("bank*.busy_cycles"), count("run.banks") * cycles);
  const double service = ratio(count("bank*.busy_cycles"), bank_requests);

  // Outside-in attribution: isolated per-unit cost x the run's count, with
  // the GMN loop's own queue events taken out so no event counts twice.
  const double gmn_own = std::max(
      0.0, cost.gmn_ns_per_packet - cost.gmn_events_per_packet * cost.queue_ns_per_event);
  const double explained_ns = events * cost.queue_ns_per_event + d_hits * cost.hit_ns +
                              packets * gmn_own + bank_requests * cost.dir_ns_per_op;

  // Per-layer metrics. One that does not apply to a workload reads 0.
  Obj layers;
  auto add = [&layers](std::string_view name, std::string_view unit, double v) {
    layers.raw(name, Obj().num("value", v).str("unit", unit).done());
  };
  add("core.run_share", "ratio", ratio(last.run_s, last.wall_s));
  add("core.host_ns_per_event", "ns",
      ratio(plain_run_s * 1e9, events));
  add("sim.events", "count", events);
  add("sim.events_per_instr", "ratio", ratio(events, instr));
  add("sim.queue_ns_per_event", "ns", cost.queue_ns_per_event);
  add("sim.parallel_speedup_d2", "ratio", speedup[0]);
  add("sim.parallel_speedup_d4", "ratio", speedup[1]);
  add("sim.trace_ratio", "ratio", obs_ratio[0]);
  add("sim.profile_ratio", "ratio", obs_ratio[1]);
  add("sim.latency_ratio", "ratio", obs_ratio[2]);
  add("sim.export_share", "ratio", ratio(last.export_s, last.wall_s));
  add("sim.artifact_mb", "MB", count("run.artifact_bytes") / 1e6);
  add("check.ratio", "ratio", obs_ratio[3]);
  add("check.loads_verified", "count", count("run.check_loads_verified"));
  add("cpu.instructions", "count", instr);
  add("cpu.ops", "count", count("cpu*.ops"));
  add("os.context_switches", "count", count("cpu*.context_switches"));
  add("os.scheduler_ticks", "count", count("cpu*.scheduler_ticks"));
  add("cache.d_accesses", "count", d_accesses);
  add("cache.d_hit_ratio", "ratio", ratio(d_hits, d_accesses));
  add("cache.i_hit_ratio", "ratio", ratio(i_hits, i_hits + count("cpu*.icache.misses")));
  add("cache.wbuf_full_stalls", "count", buffer_stalls);
  add("cache.hit_ns", "ns", cost.hit_ns);
  add("cache.miss_roundtrip_ns", "ns", cost.miss_roundtrip_ns);
  add("cache.store_drain_ns", "ns", cost.store_drain_ns);
  add("noc.packets", "count", packets);
  add("noc.bytes", "bytes", count("run.noc_bytes"));
  add("noc.packets_per_instr", "ratio", ratio(packets, instr));
  add("noc.latency_mean_cycles", "cycles",
      ratio(count("noc.latency.sum"), count("noc.latency.n")));
  add("noc.gmn_ns_per_packet", "ns", cost.gmn_ns_per_packet);
  add("mem.bank_requests", "count", bank_requests);
  add("mem.bank_busy_share", "ratio", busy_share);
  add("mem.bank_queue_delay_mean_cycles", "cycles",
      ratio(count("bank*.queue_delay.sum"), count("bank*.queue_delay.n")));
  // M/D/1 mean wait for the measured utilisation and mean service time.
  add("mem.md1_queue_delay_cycles", "cycles",
      busy_share < 1.0 ? busy_share * service / (2.0 * (1.0 - busy_share)) : 0.0);
  add("mem.invalidations_sent", "count", count("bank*.invalidations_sent"));
  add("mem.dir_ns_per_op", "ns", cost.dir_ns_per_op);
  auto verify = [&model](const std::string& k) {
    const auto it = model.counts.find(k);
    return it == model.counts.end() ? 0.0 : it->second;
  };
  const double states = verify("verify.states");
  add("verify.states", "count", states);
  add("verify.edges", "count", verify("verify.edges"));
  add("verify.states_per_s", "1/s", ratio(states, model.run_s));
  add("verify.flat_share", "ratio", ratio(verify("verify.flat_s"), model.run_s));
  add("verify.bytes_per_state", "bytes", ratio(verify("verify.heap_bytes"), states));
  add("attrib.unexplained_share", "ratio", 1.0 - ratio(explained_ns, plain_run_s * 1e9));
  add("trace.overhead_ratio", "ratio",
      ratio(median_of(traced, &Outcome::wall_s), median_of(plain, &Outcome::wall_s)));

  if (!missing.empty() && last.error.empty())
    last.error = "counters not registered: " + missing;

  auto list = [](const std::vector<Outcome>& v) {
    std::string j;
    for (const Outcome& o : v) j += (j.empty() ? "" : ",") + outcome_json(o);
    return "[" + j + "]";
  };
  out.raw("untraced", list(plain));
  out.raw("traced", list(traced));
  out.raw("platform", list(platform));
  out.raw("model", model.fingerprint.empty() ? "null" : outcome_json(model));
  out.raw("layers", layers.done());
  out.num("layer_rounds", double(rounds.size()));
  out.num("peak_rss_mb", peak_rss_mb());

  if (!a.spans.empty()) {
    std::ofstream f(a.spans);
    f << "[";
    const auto& sp = log.spans();
    for (std::size_t i = 0; i < sp.size(); ++i) {
      f << (i ? ",\n" : "\n")
        << Obj().str("name", sp[i].name)
                .num("start_ns", double(sp[i].start_ns))
                .num("end_ns", double(sp[i].end_ns))
                .num("parent", sp[i].parent)
                .done();
    }
    f << "\n]\n";
    if (!f) {
      std::fprintf(stderr, "cannot write spans to %s\n", a.spans.c_str());
      return 1;
    }
  }
  std::printf("%s\n", out.done().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: ccnoc_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) return usage();
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) return usage();
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return usage();
      a.trace = v == "1";
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0) return usage();
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  return a.trace ? traced_pass(*w, a) : untraced_pass(*w, a);
}
