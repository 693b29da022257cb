// Figure 6: scalability to the number of threads (ε = 0.2, µ = 5).
//
// Per-stage wall time of ppSCAN's four stages across a thread sweep.
// Expected shape on a multi-core machine: all stages shrink with threads,
// core checking dominating. NOTE (DESIGN.md §3): this container exposes a
// single physical core, so wall-clock speedups cannot materialize here; the
// harness still runs every thread count, verifies result equality, and
// reports the task counts that demonstrate the scheduler's work division.
#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "common.hpp"
#include "core/ppscan.hpp"
#include "scan/scan_common.hpp"

int main(int argc, char** argv) {
  using namespace ppscan;
  const Flags flags(argc, argv);
  bench::print_banner(flags, "Figure 6: thread scalability");

  const auto mu = static_cast<std::uint32_t>(flags.get_int("mu", 5));
  const auto eps = flags.get_string("eps", "0.2");
  std::vector<std::string> thread_list{"1", "2", "4", "8"};
  if (flags.has("threads")) {
    thread_list = bench::split_list(flags.get_string("threads", ""));
  }
  bench::MetricsSink sink(flags, "fig6");

  Table table({"dataset", "threads", "prune(s)", "check(s)", "core-clu(s)",
               "noncore-clu(s)", "total(s)", "self-speedup", "tasks", "steals",
               "busy(s)", "idle(s)"});
  for (const auto& name : bench::dataset_flag(flags)) {
    const auto graph = load_dataset(name);
    const auto params = ScanParams::make(eps, mu);
    double base_seconds = 0;
    ScanResult reference;
    bool have_reference = false;
    for (const auto& t : thread_list) {
      PpScanOptions options;
      options.num_threads = std::max(1, std::atoi(t.c_str()));
      const auto run = ppscan::ppscan(graph, params, options);
      if (!have_reference) {
        reference = run.result;
        have_reference = true;
        base_seconds = run.stats.total_seconds;
      } else if (!results_equivalent(reference, run.result)) {
        std::cerr << "ERROR: result changed at " << t << " threads on "
                  << name << "\n";
        return 1;
      }
      table.add_row({name, t, Table::fmt(run.stats.stage_prune_seconds),
                     Table::fmt(run.stats.stage_check_seconds),
                     Table::fmt(run.stats.stage_core_cluster_seconds),
                     Table::fmt(run.stats.stage_noncore_cluster_seconds),
                     Table::fmt(run.stats.total_seconds),
                     Table::fmt(base_seconds / run.stats.total_seconds, 2),
                     Table::fmt(run.stats.tasks_submitted),
                     Table::fmt(run.stats.steals),
                     Table::fmt(run.stats.busy_seconds),
                     Table::fmt(run.stats.idle_seconds)});
      auto report = make_metrics_report(
          "bench_fig6_scalability", "ppSCAN", name, eps, mu,
          static_cast<std::uint64_t>(options.num_threads),
          to_string(resolve_kernel(options.kernel)), graph, run);
      sink.add(std::move(report));
    }
  }
  table.print(std::cout, "Figure 6: per-stage runtime vs threads, eps=" + eps +
                             ", mu=" + std::to_string(mu));
  if (!sink.flush()) return 1;
  return 0;
}
