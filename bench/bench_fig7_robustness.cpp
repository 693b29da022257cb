// Figure 7: robustness experiment 1 — ppSCAN runtime across µ ∈ {2,5,10,15}
// and the ε sweep on the four real-graph stand-ins.
//
// Expected shape: similar runtime trends for every µ; runtime decreasing in
// ε; small-ε runs slightly slower at large µ (less pruning); webbase-style
// graphs slower at µ = 2 (many cores → more clustering work).
//
// Robustness experiment 2 — run governance (the second table):
//   * Overhead: an unconstrained run vs the same run with a deadline armed
//     far in the future (the per-claim and per-stride deadline polls
//     active but never firing). The governed path must stay within ~2% of
//     the ungoverned one — governance that taxes every healthy run would
//     never be left enabled. Measured as interleaved pairs whose order
//     alternates (--overhead-pairs, default 10); the line prints the
//     median per-pair overhead and its interquartile range, and flags the
//     target only when the whole range lies above it.
//   * Deadline-fraction sweep: deadlines at 25/50/75/100% of the measured
//     unconstrained runtime. Reports the abort outcome, completed phases,
//     the fraction of vertices the cut-short run still decided, and the
//     elapsed time — which must not overshoot the deadline by more than the
//     cancellation drain allows.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <future>
#include <iostream>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/ppscan.hpp"
#include "index/gs_index.hpp"
#include "scan/validate_result.hpp"
#include "serve/query_service.hpp"
#include "util/timer.hpp"

namespace {

/// Linear-interpolated quantile q ∈ [0, 1] of `v` (copied, then sorted).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double decided_fraction(const ppscan::ScanResult& result) {
  if (result.roles.empty()) return 1.0;
  std::uint64_t decided = 0;
  for (const ppscan::Role role : result.roles) {
    if (role != ppscan::Role::Unknown) ++decided;
  }
  return static_cast<double>(decided) /
         static_cast<double>(result.roles.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppscan;
  const Flags flags(argc, argv);
  bench::print_banner(flags, "Figure 7: robustness over (mu, eps)");

  std::vector<std::string> mu_list{"2", "5", "10", "15"};
  if (flags.has("mu")) {
    mu_list = bench::split_list(flags.get_string("mu", ""));
  }
  PpScanOptions options;
  options.num_threads = static_cast<int>(
      flags.get_int("threads", default_threads()));

  Table table({"dataset", "mu", "eps", "runtime(s)", "cores", "clusters"});
  for (const auto& name : bench::dataset_flag(flags)) {
    const auto graph = load_dataset(name);
    for (const auto& mu_text : mu_list) {
      const auto mu = static_cast<std::uint32_t>(std::atoi(mu_text.c_str()));
      for (const auto& eps : bench::eps_flag(flags)) {
        const auto run = ppscan::ppscan(graph, ScanParams::make(eps, mu), options);
        table.add_row({name, mu_text, eps,
                       Table::fmt(run.stats.total_seconds),
                       Table::fmt(run.result.num_cores()),
                       Table::fmt(std::uint64_t{run.result.num_clusters()})});
      }
    }
  }
  table.print(std::cout, "Figure 7: ppSCAN runtime across mu and eps");

  // ---- Robustness experiment 2: run governance --------------------------
  const ScanParams gov_params = ScanParams::make(
      flags.get_string("gov-eps", "0.4"),
      static_cast<std::uint32_t>(flags.get_int("gov-mu", 5)));
  const int pairs =
      std::max(1, static_cast<int>(flags.get_int("overhead-pairs", 10)));

  Table gov_table({"dataset", "deadline", "outcome", "phases", "decided",
                   "runtime(s)", "valid"});
  for (const auto& name : bench::dataset_flag(flags)) {
    const auto graph = load_dataset(name);

    // Interleaved pairs, order alternating so that drift slower than a
    // pair and any first-run-of-a-pair effect land on both sides alike.
    // One run's min-of-N cannot resolve 2% on a shared machine; the spread
    // of the per-pair ratios says whether the median can.
    const auto timed_run = [&](const PpScanOptions& run_options) {
      WallTimer t;
      const auto run = ppscan::ppscan(graph, gov_params, run_options);
      (void)run;
      return t.elapsed_s();
    };
    PpScanOptions governed = options;
    // Armed but unreachable: the per-claim and per-stride deadline polls
    // are active, yet nothing ever fires.
    governed.limits.deadline = std::chrono::hours(24);
    std::vector<double> plain_s;
    std::vector<double> overhead_pct;
    for (int p = 0; p < pairs; ++p) {
      double plain = 0;
      double gov = 0;
      if (p % 2 == 0) {
        plain = timed_run(options);
        gov = timed_run(governed);
      } else {
        gov = timed_run(governed);
        plain = timed_run(options);
      }
      plain_s.push_back(plain);
      overhead_pct.push_back(plain > 0 ? (gov - plain) / plain * 100.0 : 0.0);
    }
    const double base = quantile(plain_s, 0.5);
    const double median = quantile(overhead_pct, 0.5);
    const double q1 = quantile(overhead_pct, 0.25);
    const double q3 = quantile(overhead_pct, 0.75);
    std::cout << "# " << name << ": ungoverned " << Table::fmt(base)
              << "s (median), governed-unlimited overhead median "
              << Table::fmt(median) << "%, IQR [" << Table::fmt(q1) << ", "
              << Table::fmt(q3) << "]% over " << pairs << " pairs"
              << (q1 > 2.0   ? "  ** exceeds 2% target **"
                  : q3 > 2.0 ? "  (unresolved)"
                             : "")
              << "\n";

    for (const int pct : {25, 50, 75, 100}) {
      PpScanOptions limited = options;
      const auto deadline_ms = std::chrono::milliseconds(std::max<std::int64_t>(
          1, static_cast<std::int64_t>(base * 1000.0 * pct / 100.0)));
      limited.limits.deadline = deadline_ms;
      WallTimer t;
      const auto run = ppscan::ppscan(graph, gov_params, limited);
      const double elapsed = t.elapsed_s();
      const ValidationReport report = validate_scan_result(
          graph, gov_params, run.result,
          run.partial() ? ValidateMode::Partial : ValidateMode::Full);
      gov_table.add_row(
          {name, std::to_string(pct) + "%",
           run.partial() ? to_string(run.stats.abort_reason) : "completed",
           Table::fmt(std::uint64_t{run.stats.phases_completed}),
           Table::fmt(decided_fraction(run.result) * 100.0) + "%",
           Table::fmt(elapsed), report.ok ? "ok" : "INVALID"});
    }
  }
  gov_table.print(std::cout,
                  "Figure 7b: governed ppSCAN under deadline fractions");

  // ---- Robustness experiment 3: serving under overload ------------------
  // A QueryService per dataset, offered 2x its measured capacity through
  // the gated try_submit_ex path with the CoDel-style shed (20 ms sojourn
  // target) and a 100 ms per-query deadline. The claim under test
  // (docs/resilience.md): the service sheds the excess, a query whose
  // deadline expires gets its own classified partial, and the p99 of
  // *accepted* queries stays bounded near the deadline instead of growing
  // with the backlog. Protocol notes live in EXPERIMENTS.md;
  // BENCH_serving.json records the sibling row from bench_query_serving.
  const double overload_s = flags.get_double("overload-duration-s", 1.0);
  Table overload_table({"dataset", "offered/s", "accepted", "completed",
                        "shed", "partial", "p50(ms)", "p99(ms)"});
  for (const auto& name : bench::dataset_flag(flags)) {
    const auto graph = load_dataset(name);
    GsIndex::BuildOptions build;
    build.num_threads = options.num_threads;
    const GsIndex index(graph, build);

    // Capacity probe: the mean cost of a direct index query over a small
    // (ε, µ) spread, scaled by the executor width.
    WallTimer probe;
    int probed = 0;
    for (const std::uint64_t num : {1, 2, 3}) {
      for (const std::uint32_t mu : {2u, 5u}) {
        ScanParams p;
        p.eps = EpsRational{num, 4};
        p.mu = mu;
        (void)index.query(p);
        ++probed;
      }
    }
    const double per_query_s = probe.elapsed_s() / probed;
    const double capacity_qps =
        static_cast<double>(options.num_threads) / std::max(per_query_s, 1e-6);
    const double offered_qps = 2.0 * capacity_qps;

    serve::ServiceOptions serve_options;
    serve_options.num_threads = options.num_threads;
    serve_options.queue_capacity = 256;
    serve_options.shed_target_delay = std::chrono::milliseconds(20);
    serve_options.default_limits.deadline = std::chrono::milliseconds(100);
    serve::QueryService service(index, serve_options);

    std::vector<std::future<serve::QueryResponse>> inflight;
    const auto period = std::chrono::duration<double>(1.0 / offered_qps);
    const auto start = std::chrono::steady_clock::now();
    const auto stop_at =
        start + std::chrono::duration<double>(overload_s);
    std::size_t i = 0;
    std::uint64_t accepted = 0;
    for (auto next = start; next < stop_at;
         next += std::chrono::duration_cast<
             std::chrono::steady_clock::duration>(period)) {
      std::this_thread::sleep_until(next);
      ScanParams p;  // fresh (ε, µ) per arrival: the cache must not absorb
      p.eps = EpsRational{1 + (i % 397), 400};
      p.mu = 2 + static_cast<std::uint32_t>(i % 7);
      std::future<serve::QueryResponse> f;
      if (service.try_submit_ex(p, serve_options.default_limits, &f)
              .admitted()) {
        inflight.push_back(std::move(f));
        ++accepted;
      }
      ++i;
    }
    for (auto& f : inflight) f.get();
    service.stop();
    const auto snap = service.snapshot();
    overload_table.add_row(
        {name, Table::fmt(offered_qps, 1), Table::fmt(accepted),
         Table::fmt(snap.completed),
         Table::fmt(snap.shed_queue_full + snap.shed_overload),
         Table::fmt(snap.partial),
         Table::fmt(snap.latency.quantile_ms(0.5)),
         Table::fmt(snap.latency.quantile_ms(0.99))});
  }
  overload_table.print(
      std::cout, "Figure 7c: QueryService shedding at 2x load");
  return 0;
}
