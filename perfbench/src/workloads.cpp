#include "workloads.hpp"

#include <malloc.h>

#include <array>
#include <cctype>
#include <memory>
#include <vector>

#include "apps/ocean.hpp"
#include "apps/water.hpp"
#include "sim/latency.hpp"
#include "sim/profile.hpp"
#include "verify/hier.hpp"
#include "verify/model.hpp"

namespace perfbench {
namespace {

using namespace ccnoc;

/// "cpu12.dcache.load_hits" -> "cpu*.dcache.load_hits": the digits that end
/// the first name component index a component instance.
std::string wildcard(const std::string& name) {
  const std::size_t dot = name.find('.');
  if (dot == std::string::npos || dot == 0) return name;
  std::size_t start = dot;
  while (start > 0 && std::isdigit(static_cast<unsigned char>(name[start - 1])))
    --start;
  if (start == dot || start == 0) return name;
  return name.substr(0, start) + "*" + name.substr(dot);
}

void read_counts(const core::RunResult& r, const sim::StatsRegistry& stats,
                 std::map<std::string, double>& out) {
  for (const auto& [name, c] : stats.counters())
    out[wildcard(name)] += double(c.value());
  for (const auto& [name, s] : stats.samples()) {
    out[wildcard(name) + ".n"] += double(s.count());
    out[wildcard(name) + ".sum"] += s.sum();
  }
  out["run.events"] = double(r.events);
  out["run.instructions"] = double(r.instructions);
  out["run.exec_cycles"] = double(r.exec_cycles);
  out["run.noc_packets"] = double(r.noc_packets);
  out["run.noc_bytes"] = double(r.noc_bytes);
  out["run.check_loads_verified"] = double(r.check_loads_verified);
}

}  // namespace

Outcome run_sim(const SimSpec& spec, std::uint64_t seed, SpanLog* log,
                const Tweak& tweak) {
  Outcome o;
  std::unique_ptr<core::System> sys;
  std::unique_ptr<apps::Workload> app;
  core::RunResult r;
  std::vector<std::string> artifacts;
  {
    Scope job(log, "job");
    {
      Scope setup(log, "setup");
      core::SystemConfig cfg = spec.config(seed);
      if (tweak) tweak(cfg);
      {
        Scope s(log, "core::System::System");
        sys = std::make_unique<core::System>(cfg);
      }
      {
        Scope s(log, spec.make_span);
        app = spec.make(seed);
      }
      o.setup_s = setup.stop();
    }
    {
      Scope s(log, "core::System::run");
      r = sys->run(*app);
      o.run_s = s.stop();
    }
    // Export every artifact the enabled observers produce.
    Scope ex(log, "export");
    const core::SystemConfig& cfg = sys->config();
    sim::Simulator& sm = sys->simulator();
    if (cfg.trace == sim::TraceMode::kFull) {
      Scope s(log, "sim::Tracer::chrome_json");
      artifacts.push_back(sm.tracer().chrome_json());
    }
    if (cfg.trace != sim::TraceMode::kOff) {
      Scope s(log, "sim::Tracer::report_json");
      artifacts.push_back(sm.tracer().report_json());
    }
    if (cfg.profile != sim::ProfileMode::kOff) {
      Scope s(log, "sim::profile_json");
      artifacts.push_back(sim::profile_json(sm.profiler().snapshot("perfbench")));
    }
    if (cfg.latency != sim::LatencyMode::kOff) {
      Scope s(log, "sim::latency_json");
      artifacts.push_back(sim::latency_json(sm.latency()));
    }
    o.export_s = ex.stop();
    o.wall_s = job.stop();
  }
  Scope s(log, "fingerprint");
  const std::string dump = sys->simulator().stats().to_string();
  Fnv h;
  h.add(dump).add(r.exec_cycles).add(r.instructions).add(r.noc_bytes).add(r.noc_packets);
  double artifact_bytes = 0.0;
  for (const std::string& a : artifacts) {
    h.add(a);
    artifact_bytes += double(a.size());
  }
  o.fingerprint = h.hex();
  o.work = double(r.instructions);
  read_counts(r, sys->simulator().stats(), o.counts);
  o.counts["run.artifact_bytes"] = artifact_bytes;
  o.counts["run.banks"] = double(sys->config().num_banks);
  if (!r.completed)
    o.error = "run did not complete";
  else if (!r.verified)
    o.error = "workload oracle not verified";
  else if (!r.check_ok)
    o.error = "coherence checker: " + r.check_report;
  return o;
}

namespace {

// ---- the two workloads ----------------------------------------------------

core::SystemConfig ocean_config(std::uint64_t seed) {
  auto cfg = core::SystemConfig::architecture1(64, mem::Protocol::kWbMesi);
  cfg.seed = seed;
  return cfg;
}
std::unique_ptr<apps::Workload> make_ocean(std::uint64_t) {
  apps::Ocean::Config oc;
  oc.rows_per_thread = 2;
  oc.iterations = 2;
  return std::make_unique<apps::Ocean>(oc);
}

core::SystemConfig water_config(std::uint64_t seed) {
  auto cfg = core::SystemConfig::architecture1(64, mem::Protocol::kWti);
  cfg.seed = seed;
  cfg.trace = sim::TraceMode::kFull;
  cfg.profile = sim::ProfileMode::kOn;
  cfg.latency = sim::LatencyMode::kOn;
  cfg.check.enabled = true;  // oracle and invariant walker both default on
  return cfg;
}
// One time step instead of the default two: about 2 s a sample, so a run
// holds some twenty samples and its median rides out the host's drift.
std::unique_ptr<apps::Workload> make_water(std::uint64_t) {
  apps::Water::Config wc;
  wc.steps = 1;
  return std::make_unique<apps::Water>(wc);
}

const SimSpec kOcean{ocean_config, make_ocean, "apps::Ocean::Ocean"};
const SimSpec kWater{water_config, make_water, "apps::Water::Water"};

// ---- the model checker ----------------------------------------------------

// The two WTI three-sharer rows of `ccnoc_model --all`.
verify::ModelConfig flat_config() {
  verify::ModelConfig c;
  c.protocol = mem::Protocol::kWti;
  c.num_caches = 3;
  c.wbuf_depth = 1;
  c.direct_ack = true;
  c.untracked_reads = false;
  return c;
}
verify::HierConfig hier_config() {
  verify::HierConfig c;
  c.protocol = mem::Protocol::kWti;
  c.num_l1 = 3;
  c.wbuf_depth = 1;
  c.untracked_reads = false;
  return c;
}

double heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return double(mi.uordblks + mi.hblkhd);
}

}  // namespace

Outcome run_model_checkers(SpanLog* log) {
  Outcome o;
  std::unique_ptr<verify::ModelChecker> flat;
  std::unique_ptr<verify::HierChecker> hier;
  verify::ModelResult fr, hr;
  double flat_s = 0.0, hier_s = 0.0, heap0 = 0.0;
  {
    Scope job(log, "job");
    {
      Scope setup(log, "setup");
      {
        Scope s(log, "verify::ModelChecker::ModelChecker");
        flat = std::make_unique<verify::ModelChecker>(flat_config());
      }
      {
        Scope s(log, "verify::HierChecker::HierChecker");
        hier = std::make_unique<verify::HierChecker>(hier_config());
      }
      o.setup_s = setup.stop();
    }
    heap0 = heap_bytes();
    {
      Scope s(log, "verify::ModelChecker::run");
      fr = flat->run();
      flat_s = s.stop();
    }
    {
      Scope s(log, "verify::HierChecker::run");
      hr = hier->run();
      hier_s = s.stop();
    }
    o.run_s = flat_s + hier_s;
    o.wall_s = job.stop();
  }
  // Both explored graphs are still alive here.
  const double grown = heap_bytes() - heap0;
  Fnv h;
  h.add("flat").add(fr.ok()).add(fr.states).add(fr.edges);
  h.add("hier").add(hr.ok()).add(hr.states).add(hr.edges);
  o.fingerprint = h.hex();
  o.work = double(fr.states + hr.states);
  o.counts["verify.states"] = o.work;
  o.counts["verify.edges"] = double(fr.edges + hr.edges);
  o.counts["verify.flat_s"] = flat_s;
  o.counts["verify.hier_s"] = hier_s;
  o.counts["verify.heap_bytes"] = grown;
  if (!fr.ok())
    o.error = "flat model check failed";
  else if (!hr.ok())
    o.error = "two-level model check failed";
  return o;
}

namespace {

Shape shape_of(const SimSpec& spec) {
  const core::SystemConfig cfg = spec.config(kDefaultSeed);
  return Shape{cfg.protocol, cfg.num_cpus, cfg.num_banks, cfg.bank, cfg.dcache};
}

const std::array<Workload, 2>& workloads() {
  static const std::array<Workload, 2> all{{
      {"ocean64_mesi_smp", kOcean, shape_of(kOcean)},
      {"water64_wti_smp_observed", kWater, shape_of(kWater)},
  }};
  return all;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

}  // namespace perfbench
