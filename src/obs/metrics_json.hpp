// Versioned machine-readable metrics: one flat JSON object per run,
// written by `ppscan_cli --metrics-json` and by the bench harnesses'
// `--metrics-json` (one row per dataset × eps × algorithm), so runs can be
// diffed across commits — the BENCH_*.json perf trajectory.
//
// Schema v2 is documented field-by-field in docs/observability.md; the
// validator below and the docs table are kept in lockstep (the round-trip
// test tests/test_metrics_json.cpp checks emitted output against it).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "obs/json.hpp"

namespace ppscan::obs {

/// Bump when a field is added/renamed/retyped; record the change in the
/// schema version table in docs/observability.md.
inline constexpr std::uint64_t kMetricsSchemaVersion = 2;

/// One `queries[]` entry of a serving row (serve/query_service.hpp's
/// QueryRecord, rendered): the per-query latency/result/abort record the
/// serving benchmarks commit.
struct QueryRowMetrics {
  std::uint64_t id = 0;
  std::string eps;
  std::uint64_t mu = 0;
  double latency_ms = 0;
  /// Latency decomposition (additive, validated only when present so rows
  /// written before the telemetry layer stay valid): time parked in the
  /// admission queue and time inside the executor. queue_ms + execute_ms
  /// never exceeds latency_ms by more than scheduling slack — the
  /// validator enforces it with a 5% + 0.5ms tolerance.
  double queue_ms = 0;
  double execute_ms = 0;
  std::uint64_t num_clusters = 0;
  std::uint64_t num_cores = 0;
  std::string abort_reason = "none";
  bool cache_hit = false;
  /// Degradation ladder substituted the nearest cached run (the
  /// abort_reason then records why the real answer was unavailable).
  bool degraded = false;
};

/// The serving resilience funnel (serve/query_service.hpp snapshot fields;
/// docs/resilience.md): firewall-classified exceptions, sheds split by
/// cause, retry hints issued, breaker activity, degraded substitutions.
/// Optional on a serving row — emitted/validated only when present.
struct ResilienceMetrics {
  std::uint64_t exceptions = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_overload = 0;
  std::uint64_t shed_breaker = 0;
  std::uint64_t retries_advised = 0;
  std::uint64_t breaker_transitions = 0;
  std::string breaker_state = "closed";
  std::uint64_t degraded_hits = 0;
};

/// The serving latency distribution: geometric buckets (upper bound in µs)
/// plus the quantiles the benches report. Bucket list carries only
/// non-empty buckets; their counts must sum to `count` (validated).
struct LatencyBucketMetrics {
  double le_us = 0;
  std::uint64_t count = 0;
};
struct LatencyHistogramMetrics {
  std::uint64_t count = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
  /// Exact sum of recorded latencies (additive; validated ≥ 0 only when
  /// present so pre-telemetry rows stay valid). Feeds the Prometheus
  /// histogram `_sum` sample, which bucket midpoints cannot reconstruct.
  double sum_ms = 0;
  std::vector<LatencyBucketMetrics> buckets;
};

/// Everything one metrics row carries. Deliberately plain data — the
/// adapter from an algorithm's RunStats lives in
/// src/bench_support/metrics.hpp so obs stays dependency-free.
struct MetricsReport {
  // Provenance.
  std::string tool;       ///< emitting binary, e.g. "ppscan_cli"
  std::string algorithm;  ///< "ppSCAN", "pSCAN", "SCAN", ...
  std::string dataset;    ///< dataset/graph label (file stem for the CLI)
  std::string eps;        ///< ε exactly as given on the command line
  std::uint64_t mu = 0;
  std::uint64_t threads = 0;
  std::string kernel;        ///< resolved intersection kernel
  std::string runtime_kind;  ///< RunStats::runtime_kind
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;  ///< undirected edges (num_arcs / 2)

  // Timings (seconds).
  double total_seconds = 0;
  double similarity_seconds = 0;
  double pruning_seconds = 0;
  double stage_prune_seconds = 0;
  double stage_check_seconds = 0;
  double stage_core_cluster_seconds = 0;
  double stage_noncore_cluster_seconds = 0;
  double busy_seconds = 0;
  double idle_seconds = 0;

  // Work counters.
  std::uint64_t compsim_invocations = 0;
  std::uint64_t tasks_submitted = 0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t steals = 0;

  // Result shape.
  std::uint64_t num_clusters = 0;
  std::uint64_t num_cores = 0;

  // Governance outcome.
  std::string abort_reason;  ///< "none" for a completed run
  std::string abort_phase;
  std::uint64_t phases_completed = 0;
  std::uint64_t peak_governed_bytes = 0;

  // Pruning funnel.
  AlgoCounters counters;

  // Serving block (v2, additive + optional): present only on rows emitted
  // by the serving layer (bench_query_serving, ppscan_cli serve). The
  // serializer omits `queries` when empty and `latency_histogram` when
  // latency.count == 0; the validator checks both only when present, so
  // every pre-serving consumer and producer is untouched.
  std::vector<QueryRowMetrics> queries;
  LatencyHistogramMetrics latency;
  /// Optional resilience block (emitted when has_resilience; same additive
  /// convention as the serving block itself).
  bool has_resilience = false;
  ResilienceMetrics resilience;
};

/// Serializes one report as a schema-v2 object (includes
/// "schema_version").
[[nodiscard]] JsonValue metrics_to_json(const MetricsReport& report);

/// Wraps rows in the file-level envelope:
///   {"schema_version": 2, "figure": <label>, "rows": [...]}
[[nodiscard]] JsonValue metrics_file_json(const std::string& figure,
                                          const std::vector<MetricsReport>& rows);

/// Same envelope around already-serialized row objects — for harnesses
/// that decorate metrics_to_json() rows with extra (validator-ignored)
/// keys such as queries_per_second before filing them.
[[nodiscard]] JsonValue metrics_file_envelope(const std::string& figure,
                                              std::vector<JsonValue> rows);

/// Validates one row object against the documented v2 schema: every
/// required key present with the right JSON type (other keys are
/// ignored), schema_version == 2, the funnel invariant
/// pruned + computed + reused == touched, and — when present — the
/// optional serving block (`queries` rows well-typed, `latency_histogram`
/// bucket counts summing to its count).
/// Returns "" when valid, else the first violation (for test messages).
[[nodiscard]] std::string validate_metrics_json(const JsonValue& row);

/// Validates the file envelope and every row within.
[[nodiscard]] std::string validate_metrics_file_json(const JsonValue& doc);

/// Parses a row back into a MetricsReport (inverse of metrics_to_json;
/// the round-trip test checks equality). Throws on schema violations.
[[nodiscard]] MetricsReport metrics_from_json(const JsonValue& row);

}  // namespace ppscan::obs
