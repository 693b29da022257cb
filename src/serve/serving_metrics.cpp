#include "serve/serving_metrics.hpp"

#include <cstdio>

#include "obs/exposition.hpp"

namespace ppscan::serve {
namespace {

/// One histogram family in the exposition format: cumulative
/// `_bucket{le=...}` samples over the geometric bucket grid (bounds
/// converted µs → ms to match the family's unit suffix), the mandatory
/// `+Inf` bucket, then `_sum` and `_count`.
void prom_histogram(std::string& out, const char* name, const char* help,
                    const LatencyHistogram& h) {
  obs::prom_family(out, name, help, "histogram");
  const std::string bucket_name = std::string(name) + "_bucket";
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    cumulative += h.counts[i];
    char label[48];
    std::snprintf(label, sizeof label, "le=\"%.6g\"",
                  LatencyHistogram::bucket_le_us(i) / 1e3);
    obs::prom_sample_labeled(out, bucket_name.c_str(), label,
                             static_cast<double>(cumulative));
  }
  obs::prom_sample_labeled(out, bucket_name.c_str(), "le=\"+Inf\"",
                           static_cast<double>(h.total));
  obs::prom_sample(out, (std::string(name) + "_sum").c_str(), h.sum_ms);
  obs::prom_sample_u64(out, (std::string(name) + "_count").c_str(), h.total);
}

}  // namespace

obs::LatencyHistogramMetrics latency_metrics(
    const LatencyHistogram& histogram) {
  obs::LatencyHistogramMetrics out;
  out.count = histogram.total;
  out.p50_ms = histogram.quantile_ms(0.50);
  out.p90_ms = histogram.quantile_ms(0.90);
  out.p99_ms = histogram.quantile_ms(0.99);
  out.max_ms = histogram.max_ms;
  out.sum_ms = histogram.sum_ms;
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    if (histogram.counts[i] == 0) continue;
    out.buckets.push_back({LatencyHistogram::bucket_le_us(i),
                           histogram.counts[i]});
  }
  return out;
}

obs::MetricsReport make_serving_report(const std::string& tool,
                                       const std::string& dataset,
                                       const std::string& eps,
                                       const CsrGraph& graph,
                                       const ServiceSnapshot& snapshot,
                                       double total_seconds) {
  obs::MetricsReport report;
  report.tool = tool;
  report.algorithm = "GsIndex-serve";
  report.dataset = dataset;
  report.eps = eps;
  report.mu = 0;  // mixed workload; per-query µ lives in queries[]
  report.threads = static_cast<std::uint64_t>(snapshot.num_threads);
  report.kernel = "index";  // queries reuse stored similarities, no kernel
  report.runtime_kind = "worksteal";
  report.num_vertices = graph.num_vertices();
  report.num_edges = graph.num_edges();
  report.total_seconds = total_seconds;
  // Cluster/core counts are per-query quantities for a mixed workload; the
  // row-level fields stay 0 and queries[] carries the real values.
  report.abort_reason = "none";
  report.counters = snapshot.counters;
  report.queries.reserve(snapshot.recent.size());
  for (const QueryRecord& q : snapshot.recent) {
    obs::QueryRowMetrics row;
    row.id = q.id;
    row.eps = q.eps;
    row.mu = q.mu;
    row.latency_ms = q.latency_ms;
    row.queue_ms = q.queue_ms;
    row.execute_ms = q.execute_ms;
    row.num_clusters = q.num_clusters;
    row.num_cores = q.num_cores;
    row.abort_reason = to_string(q.abort_reason);
    row.cache_hit = q.cache_hit;
    report.queries.push_back(std::move(row));
  }
  report.latency = latency_metrics(snapshot.latency);
  report.has_resilience = true;
  report.resilience.exceptions = snapshot.exceptions;
  report.resilience.shed_queue_full = snapshot.shed_queue_full;
  report.resilience.shed_overload = snapshot.shed_overload;
  return report;
}

std::string exposition_text(const ServiceSnapshot& s) {
  std::string out;
  out.reserve(8192);

  // Lifecycle / throughput counters.
  obs::prom_family(out, "ppscan_serve_submitted_total",
                   "Queries admitted into the service", "counter");
  obs::prom_sample_u64(out, "ppscan_serve_submitted_total", s.submitted);
  obs::prom_family(out, "ppscan_serve_completed_total",
                   "Queries answered (including cache hits and partials)",
                   "counter");
  obs::prom_sample_u64(out, "ppscan_serve_completed_total", s.completed);
  obs::prom_family(out, "ppscan_serve_rejected_total",
                   "Queries refused at admission (all causes)", "counter");
  obs::prom_sample_u64(out, "ppscan_serve_rejected_total", s.rejected);
  obs::prom_family(out, "ppscan_serve_cache_hits_total",
                   "Answers served from the (eps, mu) result cache",
                   "counter");
  obs::prom_sample_u64(out, "ppscan_serve_cache_hits_total", s.cache_hits);
  obs::prom_family(out, "ppscan_serve_partial_total",
                   "Answers delivered partial (deadline or budget abort)",
                   "counter");
  obs::prom_sample_u64(out, "ppscan_serve_partial_total", s.partial);
  obs::prom_family(out, "ppscan_serve_exceptions_total",
                   "Executions classified AbortReason::Exception by the "
                   "firewall",
                   "counter");
  obs::prom_sample_u64(out, "ppscan_serve_exceptions_total", s.exceptions);

  // Resilience funnel (docs/resilience.md).
  obs::prom_family(out, "ppscan_serve_shed_total",
                   "Refusals split by cause", "counter");
  obs::prom_sample_labeled(out, "ppscan_serve_shed_total",
                           "cause=\"queue-full\"",
                           static_cast<double>(s.shed_queue_full));
  obs::prom_sample_labeled(out, "ppscan_serve_shed_total",
                           "cause=\"overload\"",
                           static_cast<double>(s.shed_overload));

  // Pruning-funnel aggregates accumulated over executed queries — the
  // paper's arc-triage identity, pruned + computed + reused == touched.
  obs::prom_family(out, "ppscan_serve_arcs_touched_total",
                   "Arcs triaged across executed queries", "counter");
  obs::prom_sample_u64(out, "ppscan_serve_arcs_touched_total",
                       s.counters.arcs_touched);
  obs::prom_family(out, "ppscan_serve_arcs_pruned_total",
                   "Arcs decided by the degree predicate alone", "counter");
  obs::prom_sample_u64(out, "ppscan_serve_arcs_pruned_total",
                       s.counters.arcs_predicate_pruned);
  obs::prom_family(out, "ppscan_serve_sims_computed_total",
                   "Structural similarities computed", "counter");
  obs::prom_sample_u64(out, "ppscan_serve_sims_computed_total",
                       s.counters.sims_computed);
  obs::prom_family(out, "ppscan_serve_sims_reused_total",
                   "Structural similarities reused from the GS*-Index",
                   "counter");
  obs::prom_sample_u64(out, "ppscan_serve_sims_reused_total",
                       s.counters.sims_reused);

  // Shape gauges.
  obs::prom_family(out, "ppscan_serve_threads",
                   "Executor worker threads", "gauge");
  obs::prom_sample(out, "ppscan_serve_threads",
                   static_cast<double>(s.num_threads));
  obs::prom_family(out, "ppscan_serve_uptime_seconds",
                   "Seconds since service construction", "gauge");
  obs::prom_sample(out, "ppscan_serve_uptime_seconds", s.uptime_seconds);
  obs::prom_family(out, "ppscan_serve_flight_events_total",
                   "Events recorded by the flight recorder", "counter");
  obs::prom_sample_u64(out, "ppscan_serve_flight_events_total",
                       s.flight_recorded);

  // Lifetime latency distribution.
  prom_histogram(out, "ppscan_serve_latency_ms",
                 "End-to-end query latency since service start "
                 "(milliseconds)",
                 s.latency);

  // Windowed view: only present when the stats publisher is running
  // (stats_interval > 0) — absent families are how a scraper tells
  // "telemetry off" from "no traffic".
  if (s.window_seconds > 0) {
    prom_histogram(out, "ppscan_serve_window_latency_ms",
                   "Query latency over the trailing window (milliseconds)",
                   s.window);
    obs::prom_family(out, "ppscan_serve_window_seconds",
                     "Width of the trailing latency window", "gauge");
    obs::prom_sample(out, "ppscan_serve_window_seconds", s.window_seconds);
    obs::prom_family(out, "ppscan_serve_window_p50_ms",
                     "Windowed latency p50 (milliseconds)", "gauge");
    obs::prom_sample(out, "ppscan_serve_window_p50_ms",
                     s.window.quantile_ms(0.50));
    obs::prom_family(out, "ppscan_serve_window_p90_ms",
                     "Windowed latency p90 (milliseconds)", "gauge");
    obs::prom_sample(out, "ppscan_serve_window_p90_ms",
                     s.window.quantile_ms(0.90));
    obs::prom_family(out, "ppscan_serve_window_p99_ms",
                     "Windowed latency p99 (milliseconds)", "gauge");
    obs::prom_sample(out, "ppscan_serve_window_p99_ms",
                     s.window.quantile_ms(0.99));
    obs::prom_family(out, "ppscan_serve_publishes_total",
                     "Stats-publisher folds since service start", "counter");
    obs::prom_sample_u64(out, "ppscan_serve_publishes_total", s.publishes);
    obs::prom_family(out, "ppscan_serve_interval_seconds",
                     "Wall seconds covered by the last publisher interval",
                     "gauge");
    obs::prom_sample(out, "ppscan_serve_interval_seconds",
                     s.interval_seconds);
    obs::prom_family(out, "ppscan_serve_interval_qps",
                     "Completed queries per second over the last publisher "
                     "interval",
                     "gauge");
    const double qps = s.interval_seconds > 0
                           ? static_cast<double>(s.interval_completed) /
                                 s.interval_seconds
                           : 0;
    obs::prom_sample(out, "ppscan_serve_interval_qps", qps);
  }
  return out;
}

}  // namespace ppscan::serve
