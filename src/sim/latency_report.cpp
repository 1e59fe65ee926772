#include "sim/jsonv.hpp"
#include "sim/latency.hpp"

/// \file latency_report.cpp
/// Deterministic schema-v1 JSON emitter for the latency observatory.
/// Contains no run/engine metadata on purpose: runs of the same platform
/// emit byte-identical latency.json whatever their domain count, so
/// everything here is a pure function of the observatory state.

namespace ccnoc::sim {

namespace {

void emit_phases(JsonOut& o, const PhaseCycles& ph) {
  o.raw('{');
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    if (p != 0) o.raw(',');
    o.str(to_string(Phase(p))).raw(':').num(ph[p]);
  }
  o.raw('}');
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

}  // namespace

std::string latency_json(const LatencyObservatory& lat) {
  JsonOut o;
  o.raw("{\"schema_version\":1,\"kind\":\"ccnoc-latency\"");

  o.raw(",\"phases\":[");
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    if (p != 0) o.raw(',');
    o.str(to_string(Phase(p)));
  }
  o.raw(']');

  o.raw(",\"transactions\":{");
  bool first = true;
  PhaseCycles overall{};
  std::uint64_t total_count = 0;
  for (const auto& [kind, k] : lat.kinds()) {
    if (!first) o.raw(',');
    first = false;
    total_count += k.count;
    for (std::size_t p = 0; p < kNumPhases; ++p) overall[p] += k.phases[p];
    o.str(kind).raw(":{\"count\":").num(k.count);
    o.raw(",\"cycles\":").num(k.total.sum());
    o.raw(",\"mean\":").num(k.total.mean());
    o.raw(",\"min\":").num(k.total.min()).raw(",\"max\":").num(k.total.max());
    o.raw(",\"p50\":").num(k.total.percentile(0.50));
    o.raw(",\"p90\":").num(k.total.percentile(0.90));
    o.raw(",\"p99\":").num(k.total.percentile(0.99));
    o.raw(",\"p999\":").num(k.total.percentile(0.999));
    o.raw(",\"dominant_phase\":").str(to_string(k.dominant()));
    o.raw(",\"phases\":");
    emit_phases(o, k.phases);
    o.raw('}');
  }
  o.raw('}');

  o.raw(",\"nodes\":[");
  first = true;
  for (const auto& [node, ph] : lat.node_phases()) {
    if (!first) o.raw(',');
    first = false;
    o.raw("{\"node\":").num(node).raw(",\"cycles\":").num(phase_total(ph));
    o.raw(",\"dominant_phase\":").str(to_string(dominant_of(ph)));
    o.raw(",\"phases\":");
    emit_phases(o, ph);
    o.raw('}');
  }
  o.raw(']');

  o.raw(",\"worst\":[");
  first = true;
  for (const auto& w : lat.worst()) {
    if (!first) o.raw(',');
    first = false;
    o.raw("{\"txn\":").num(w.txn).raw(",\"kind\":").str(w.kind);
    o.raw(",\"begin\":").num(w.begin).raw(",\"end\":").num(w.end);
    o.raw(",\"latency\":").num(w.latency()).raw(",\"phases\":");
    emit_phases(o, w.phases);
    o.raw('}');
  }
  o.raw(']');

  o.raw(",\"summary\":{\"transactions\":").num(total_count);
  o.raw(",\"cycles\":").num(phase_total(overall));
  o.raw(",\"dominant_phase\":").str(to_string(dominant_of(overall)));
  o.raw(",\"phases\":");
  emit_phases(o, overall);
  o.raw("}}\n");
  return o.take();
}

bool write_latency_json(const std::string& path, const LatencyObservatory& lat) {
  return write_file(path, latency_json(lat));
}

}  // namespace ccnoc::sim
