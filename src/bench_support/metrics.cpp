#include "bench_support/metrics.hpp"

namespace ppscan {

obs::MetricsReport make_metrics_report(const std::string& tool,
                                       const std::string& algorithm,
                                       const std::string& dataset,
                                       const std::string& eps,
                                       std::uint64_t mu, std::uint64_t threads,
                                       const std::string& kernel,
                                       const CsrGraph& graph,
                                       const ScanRun& run) {
  obs::MetricsReport report;
  report.tool = tool;
  report.algorithm = algorithm;
  report.dataset = dataset;
  report.eps = eps;
  report.mu = mu;
  report.threads = threads;
  report.kernel = kernel;
  report.runtime_kind = run.stats.runtime_kind;
  report.num_vertices = graph.num_vertices();
  report.num_edges = static_cast<std::uint64_t>(graph.num_arcs()) / 2;

  report.total_seconds = run.stats.total_seconds;
  report.similarity_seconds = run.stats.similarity_seconds;
  report.pruning_seconds = run.stats.pruning_seconds;
  report.stage_prune_seconds = run.stats.stage_prune_seconds;
  report.stage_check_seconds = run.stats.stage_check_seconds;
  report.stage_core_cluster_seconds = run.stats.stage_core_cluster_seconds;
  report.stage_noncore_cluster_seconds =
      run.stats.stage_noncore_cluster_seconds;
  report.busy_seconds = run.stats.busy_seconds;
  report.idle_seconds = run.stats.idle_seconds;

  report.compsim_invocations = run.stats.compsim_invocations;
  report.tasks_submitted = run.stats.tasks_submitted;
  report.tasks_executed = run.stats.tasks_executed;
  report.steals = run.stats.steals;

  report.num_clusters = run.result.num_clusters();
  report.num_cores = run.result.num_cores();

  report.abort_reason = to_string(run.stats.abort_reason);
  report.abort_phase = run.stats.abort_phase;
  report.phases_completed = run.stats.phases_completed;
  report.peak_governed_bytes = run.stats.peak_governed_bytes;

  report.counters = run.stats.counters;
  return report;
}

}  // namespace ppscan
