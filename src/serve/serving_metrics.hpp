// Adapter from a QueryService snapshot to the schema-v2 metrics row with
// the optional serving block (obs/metrics_json.hpp: queries[] +
// latency_histogram). Lives in serve/ rather than obs/ so the obs layer
// keeps no dependency on the service types — the same split as
// bench_support/metrics.hpp for algorithm runs.
#pragma once

#include <string>

#include "graph/csr_graph.hpp"
#include "obs/metrics_json.hpp"
#include "serve/query_service.hpp"

namespace ppscan::serve {

/// Flattens one service snapshot into a serving metrics row. `eps` is the
/// workload label exactly as configured (e.g. "0.2,0.4,0.6,0.8" — the mix,
/// not one value; per-query ε lives in queries[]); mu is 0 for a mixed
/// workload for the same reason. `total_seconds` is the measurement wall
/// time the throughput figure divides by.
[[nodiscard]] obs::MetricsReport make_serving_report(
    const std::string& tool, const std::string& dataset,
    const std::string& eps, const CsrGraph& graph,
    const ServiceSnapshot& snapshot, double total_seconds);

/// snapshot.latency rendered alone (non-empty buckets, quantiles) — the
/// building block make_serving_report uses.
[[nodiscard]] obs::LatencyHistogramMetrics latency_metrics(
    const obs::LatencyHistogram& histogram);

/// Renders one snapshot in the Prometheus text-exposition format v0.0.4 —
/// the /metrics body served by obs::ExpositionServer. The metric catalog
/// (every ppscan_serve_* family) is documented in docs/observability.md,
/// "Live telemetry", and linted by tools/lint/check_exposition.py.
[[nodiscard]] std::string exposition_text(const ServiceSnapshot& snapshot);

}  // namespace ppscan::serve
