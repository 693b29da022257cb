// Ablation: task scheduling policy and degree threshold (DESIGN.md §4).
//
// The paper tunes the degree-sum threshold to 32768 by doubling from 1
// until load balance degrades or queue overhead vanishes; this harness
// regenerates that tuning curve and compares the degree-sum policy against
// static ranges and fixed-size chunks on the skewed twitter stand-in. Every
// policy runs on the work-stealing executor, whose claim/steal/busy/idle
// counters show the load balance behind each row's time. One untimed
// warm-up run precedes the tables so the first row does not pay for cold
// caches.
#include <iostream>

#include "common.hpp"
#include "core/ppscan.hpp"

namespace {

std::string idle_share(const ppscan::RunStats& stats) {
  const double total = stats.busy_seconds + stats.idle_seconds;
  if (total <= 0) return "-";
  return ppscan::Table::fmt_percent(stats.idle_seconds / total);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppscan;
  const Flags flags(argc, argv);
  bench::print_banner(flags, "Ablation: task scheduling");

  const auto dataset = flags.get_string("dataset", "twitter-sim");
  const auto graph = load_dataset(dataset);
  const int threads = static_cast<int>(
      flags.get_int("threads", default_threads()));
  const auto mu = static_cast<std::uint32_t>(flags.get_int("mu", 5));
  const auto params = ScanParams::make(flags.get_string("eps", "0.2"), mu);

  {
    PpScanOptions warm_up;
    warm_up.num_threads = threads;
    ppscan::ppscan(graph, params, warm_up);
  }

  Table policy_table({"policy", "runtime(s)", "tasks", "claimed", "steals",
                      "busy(s)", "idle(s)", "idle-share"});
  for (const auto kind : {SchedulerKind::DegreeSum, SchedulerKind::StaticRange,
                          SchedulerKind::FixedChunk}) {
    PpScanOptions options;
    options.num_threads = threads;
    options.scheduler.kind = kind;
    const auto run = ppscan::ppscan(graph, params, options);
    policy_table.add_row(
        {to_string(kind), Table::fmt(run.stats.total_seconds),
         Table::fmt(run.stats.tasks_submitted),
         Table::fmt(run.stats.tasks_executed), Table::fmt(run.stats.steals),
         Table::fmt(run.stats.busy_seconds),
         Table::fmt(run.stats.idle_seconds), idle_share(run.stats)});
  }
  policy_table.print(std::cout, "Scheduling policy on " + dataset);

  Table threshold_table({"degree-threshold", "runtime(s)", "tasks", "steals",
                         "idle-share"});
  for (const std::uint64_t threshold :
       {1024ULL, 4096ULL, 32768ULL, 262144ULL, 2097152ULL}) {
    PpScanOptions options;
    options.num_threads = threads;
    options.scheduler.kind = SchedulerKind::DegreeSum;
    options.scheduler.degree_threshold = threshold;
    const auto run = ppscan::ppscan(graph, params, options);
    threshold_table.add_row({Table::fmt(std::uint64_t{threshold}),
                             Table::fmt(run.stats.total_seconds),
                             Table::fmt(run.stats.tasks_submitted),
                             Table::fmt(run.stats.steals),
                             idle_share(run.stats)});
  }
  threshold_table.print(std::cout,
                        "Degree-sum threshold sweep (paper value: 32768)");
  return 0;
}
