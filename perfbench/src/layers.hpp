#pragma once

// Isolated layer loops: each calls one module's public API with a workload's
// shape (node count, protocol, delay mix) and returns host nanoseconds per
// unit of that module's work.

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

struct LayerCosts {
  double queue_ns_per_event = 0.0;  ///< EventQueue schedule_in + step
  double gmn_ns_per_packet = 0.0;   ///< GmnNetwork::send + routing + delivery
  double gmn_events_per_packet = 0.0;
  double dir_ns_per_op = 0.0;       ///< Directory add/lookup/clear
  double hit_ns = 0.0;              ///< warm dcache().access
  double miss_roundtrip_ns = 0.0;   ///< load miss to the bank and back
  double store_drain_ns = 0.0;      ///< store miss drained to the bank
};

/// One round of every layer loop, each recorded as a span under \p log.
LayerCosts measure_layers(const Shape& shape, SpanLog* log);

}  // namespace perfbench
