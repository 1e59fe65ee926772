#include <cstdio>
#include <sstream>

#include "sim/jsonv.hpp"
#include "sim/latency.hpp"

/// \file latency_report.cpp
/// Deterministic schema-v1 JSON emitter for the latency observatory.
/// Contains no run/engine metadata on purpose: runs of the same platform
/// emit byte-identical latency.json whatever their domain count, so
/// everything here is a pure function of the observatory state.

namespace ccnoc::sim {

namespace {

void emit_phases(std::ostringstream& os, const PhaseCycles& ph) {
  os << "{";
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    if (p != 0) os << ",";
    os << "\"" << to_string(Phase(p)) << "\":" << ph[p];
  }
  os << "}";
}

std::uint64_t phase_total(const PhaseCycles& ph) {
  std::uint64_t t = 0;
  for (std::uint64_t c : ph) t += c;
  return t;
}

Phase dominant_of(const PhaseCycles& ph) {
  std::size_t best = 0;
  for (std::size_t p = 1; p < kNumPhases; ++p) {
    if (ph[p] > ph[best]) best = p;
  }
  return Phase(best);
}

bool write_string(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  bool ok = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  std::fclose(f);
  return ok;
}

}  // namespace

std::string latency_json(const LatencyObservatory& lat) {
  std::ostringstream os;
  os << "{\"schema_version\":1,\"kind\":\"ccnoc-latency\"";

  os << ",\"phases\":[";
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    if (p != 0) os << ",";
    os << "\"" << to_string(Phase(p)) << "\"";
  }
  os << "]";

  os << ",\"transactions\":{";
  bool first = true;
  PhaseCycles overall{};
  std::uint64_t total_count = 0;
  for (const auto& [kind, k] : lat.kinds()) {
    if (!first) os << ",";
    first = false;
    total_count += k.count;
    for (std::size_t p = 0; p < kNumPhases; ++p) overall[p] += k.phases[p];
    os << "\"" << kind << "\":{\"count\":" << k.count
       << ",\"cycles\":" << k.total.sum()
       << ",\"mean\":" << fmt_double(k.total.mean())
       << ",\"min\":" << k.total.min() << ",\"max\":" << k.total.max()
       << ",\"p50\":" << k.total.percentile(0.50)
       << ",\"p90\":" << k.total.percentile(0.90)
       << ",\"p99\":" << k.total.percentile(0.99)
       << ",\"p999\":" << k.total.percentile(0.999)
       << ",\"dominant_phase\":\"" << to_string(k.dominant()) << "\""
       << ",\"phases\":";
    emit_phases(os, k.phases);
    os << "}";
  }
  os << "}";

  os << ",\"nodes\":[";
  first = true;
  for (const auto& [node, ph] : lat.node_phases()) {
    if (!first) os << ",";
    first = false;
    os << "{\"node\":" << node << ",\"cycles\":" << phase_total(ph)
       << ",\"dominant_phase\":\"" << to_string(dominant_of(ph)) << "\""
       << ",\"phases\":";
    emit_phases(os, ph);
    os << "}";
  }
  os << "]";

  os << ",\"worst\":[";
  first = true;
  for (const auto& o : lat.worst()) {
    if (!first) os << ",";
    first = false;
    os << "{\"txn\":" << o.txn << ",\"kind\":\"" << o.kind
       << "\",\"begin\":" << o.begin << ",\"end\":" << o.end
       << ",\"latency\":" << o.latency() << ",\"phases\":";
    emit_phases(os, o.phases);
    os << "}";
  }
  os << "]";

  os << ",\"summary\":{\"transactions\":" << total_count
     << ",\"cycles\":" << phase_total(overall) << ",\"dominant_phase\":\""
     << to_string(dominant_of(overall)) << "\",\"phases\":";
  emit_phases(os, overall);
  os << "}}\n";
  return os.str();
}

bool write_latency_json(const std::string& path, const LatencyObservatory& lat) {
  return write_string(path, latency_json(lat));
}

}  // namespace ccnoc::sim
