#include "serve/serving_metrics.hpp"

#include <cstdio>
#include <string_view>

#include "obs/exposition.hpp"

namespace ppscan::serve {
namespace {

/// One histogram family in the exposition format: cumulative
/// `_bucket{le=...}` samples over the geometric bucket grid (bounds
/// converted µs → ms to match the family's unit suffix), the mandatory
/// `+Inf` bucket, then `_sum` and `_count`.
void prom_histogram(std::string& out, const char* name, const char* help,
                    const obs::LatencyHistogram& h) {
  obs::prom_family(out, name, help, "histogram");
  const std::string bucket_name = std::string(name) + "_bucket";
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < obs::LatencyHistogram::kBuckets; ++i) {
    cumulative += h.counts[i];
    char label[48];
    std::snprintf(label, sizeof label, "le=\"%.6g\"",
                  obs::LatencyHistogram::bucket_le_us(i) / 1e3);
    obs::prom_sample_labeled(out, bucket_name.c_str(), label,
                             static_cast<double>(cumulative));
  }
  obs::prom_sample_labeled(out, bucket_name.c_str(), "le=\"+Inf\"",
                           static_cast<double>(h.total));
  obs::prom_sample(out, (std::string(name) + "_sum").c_str(), h.sum_ms);
  obs::prom_sample_u64(out, (std::string(name) + "_count").c_str(), h.total);
}

/// One scalar sample of the scrape. Rows sharing a name are one family
/// (HELP and TYPE once, then a labeled sample per row). Prometheus stores
/// every sample as a float64, so a double getter loses nothing a scraper
/// keeps; counters still print as exact integers.
struct Family {
  const char* name;
  const char* help;
  const char* type;   ///< "counter" or "gauge"
  const char* label;  ///< nullptr, or one preformatted `key="value"` pair
  double (*value)(const ServiceSnapshot&);
};

double as_sample(std::uint64_t v) { return static_cast<double>(v); }

// The scrape's scalar families, in exposition order; the lifetime latency
// histogram follows them.
constexpr Family kFamilies[] = {
    // Lifecycle / throughput counters.
    {"ppscan_serve_submitted_total", "Queries admitted into the service",
     "counter", nullptr,
     [](const ServiceSnapshot& s) { return as_sample(s.submitted); }},
    {"ppscan_serve_completed_total",
     "Queries answered (including cache hits and partials)", "counter",
     nullptr, [](const ServiceSnapshot& s) { return as_sample(s.completed); }},
    {"ppscan_serve_rejected_total",
     "Queries refused at admission (all causes)", "counter", nullptr,
     [](const ServiceSnapshot& s) { return as_sample(s.rejected); }},
    {"ppscan_serve_cache_hits_total",
     "Answers served from the (eps, mu) result cache", "counter", nullptr,
     [](const ServiceSnapshot& s) { return as_sample(s.cache_hits); }},
    {"ppscan_serve_partial_total",
     "Answers delivered partial (deadline or budget abort)", "counter",
     nullptr, [](const ServiceSnapshot& s) { return as_sample(s.partial); }},
    {"ppscan_serve_exceptions_total",
     "Executions classified AbortReason::Exception by the firewall",
     "counter", nullptr,
     [](const ServiceSnapshot& s) { return as_sample(s.exceptions); }},
    // Resilience funnel (docs/resilience.md).
    {"ppscan_serve_shed_total", "Refusals split by cause", "counter",
     "cause=\"queue-full\"",
     [](const ServiceSnapshot& s) { return as_sample(s.shed_queue_full); }},
    {"ppscan_serve_shed_total", "Refusals split by cause", "counter",
     "cause=\"overload\"",
     [](const ServiceSnapshot& s) { return as_sample(s.shed_overload); }},
    // Pruning-funnel aggregates accumulated over executed queries — the
    // paper's arc-triage identity, pruned + computed + reused == touched.
    {"ppscan_serve_arcs_touched_total",
     "Arcs triaged across executed queries", "counter", nullptr,
     [](const ServiceSnapshot& s) {
       return as_sample(s.counters.arcs_touched);
     }},
    {"ppscan_serve_arcs_pruned_total",
     "Arcs decided by the degree predicate alone", "counter", nullptr,
     [](const ServiceSnapshot& s) {
       return as_sample(s.counters.arcs_predicate_pruned);
     }},
    {"ppscan_serve_sims_computed_total", "Structural similarities computed",
     "counter", nullptr,
     [](const ServiceSnapshot& s) {
       return as_sample(s.counters.sims_computed);
     }},
    {"ppscan_serve_sims_reused_total",
     "Structural similarities reused from the GS*-Index", "counter", nullptr,
     [](const ServiceSnapshot& s) {
       return as_sample(s.counters.sims_reused);
     }},
    // Shape gauges.
    {"ppscan_serve_threads", "Executor worker threads", "gauge", nullptr,
     [](const ServiceSnapshot& s) {
       return static_cast<double>(s.num_threads);
     }},
    {"ppscan_serve_uptime_seconds", "Seconds since service construction",
     "gauge", nullptr,
     [](const ServiceSnapshot& s) { return s.uptime_seconds; }},
};

}  // namespace

obs::LatencyHistogramMetrics latency_metrics(
    const obs::LatencyHistogram& histogram) {
  obs::LatencyHistogramMetrics out;
  out.count = histogram.total;
  out.p50_ms = histogram.quantile_ms(0.50);
  out.p90_ms = histogram.quantile_ms(0.90);
  out.p99_ms = histogram.quantile_ms(0.99);
  out.max_ms = histogram.max_ms;
  out.sum_ms = histogram.sum_ms;
  for (std::size_t i = 0; i < obs::LatencyHistogram::kBuckets; ++i) {
    if (histogram.counts[i] == 0) continue;
    out.buckets.push_back({obs::LatencyHistogram::bucket_le_us(i),
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
  const char* family = nullptr;
  for (const Family& f : kFamilies) {
    if (family == nullptr || std::string_view(family) != f.name) {
      obs::prom_family(out, f.name, f.help, f.type);
      family = f.name;
    }
    std::string sample = f.name;
    if (f.label != nullptr) sample += std::string("{") + f.label + "}";
    if (std::string_view(f.type) == "counter") {
      obs::prom_sample_u64(out, sample.c_str(),
                           static_cast<std::uint64_t>(f.value(s)));
    } else {
      obs::prom_sample(out, sample.c_str(), f.value(s));
    }
  }
  prom_histogram(out, "ppscan_serve_latency_ms",
                 "End-to-end query latency since service start "
                 "(milliseconds)",
                 s.latency);
  return out;
}

}  // namespace ppscan::serve
