// Serving benchmark: concurrent (ε, µ) load through serve::QueryService
// over one shared GS*-Index (ROADMAP item 1).
//
// Three load shapes over an LFR community graph (default: n=65536,
// avg-degree 32 → ~1M edges):
//
//   * closed/cold  — C client threads, one outstanding query each, result
//     cache off: every answer walks the index. The honest per-query cost
//     under concurrency.
//   * closed/hot   — same clients, cache on, parameters pre-warmed: the
//     repeated-parameter serving mix (dashboards re-asking the same few
//     settings), which the service answers from the memo table.
//   * open/hot     — a producer paces try_submit() at --offered-qps
//     arrivals/s; refused admissions count as shed load. Latency here
//     includes queue wait, the number an SLO actually sees.
//   * open/overload — arrivals paced at 2x the *measured* closed/cold
//     capacity through the gated try_submit_ex path, with the CoDel-style
//     shed (20 ms sojourn target), a 100 ms default deadline and the
//     degradation ladder on (docs/resilience.md). The resilience claim
//     this row records: under 2x load the service sheds and degrades
//     instead of letting accepted-query p99 collapse toward the deadline.
//
// Every answer the harness checks is bit-identical to a fresh
// single-threaded GsIndex::query (spot-checked before the load). Rows land
// in --metrics-json as schema-v2 serving rows (queries[] +
// latency_histogram) decorated with mode / queries_per_second /
// offered_per_second keys, self-validated before writing — the committed
// BENCH_serving.json artifact.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "graph/generators.hpp"
#include "index/gs_index.hpp"
#include "obs/exposition.hpp"
#include "serve/query_service.hpp"
#include "serve/serving_metrics.hpp"
#include "util/timer.hpp"

namespace {

using namespace ppscan;

/// The mixed workload: every client cycles this grid, staggered by client
/// index so concurrent batches carry different parameters.
std::vector<ScanParams> workload_grid() {
  std::vector<ScanParams> grid;
  for (const std::uint64_t num : {1, 2, 3, 4}) {
    for (const std::uint32_t mu : {2u, 5u, 8u}) {
      ScanParams p;
      p.eps = EpsRational{num, 5};
      p.mu = mu;
      grid.push_back(p);
    }
  }
  return grid;
}

struct LoadRow {
  std::string mode;
  std::uint64_t clients = 0;
  double offered_qps = 0;  // open loop only; 0 = closed loop
  double elapsed = 0;
  /// Full telemetry stack live during the load: publisher thread folding
  /// the window, flight recorder on, and a /metrics scraper hitting the
  /// exposition endpoint — the overhead BENCH_obs.json quantifies.
  bool telemetry = false;
  serve::ServiceSnapshot snap;

  [[nodiscard]] double qps() const {
    return elapsed > 0 ? static_cast<double>(snap.completed) / elapsed : 0;
  }
};

/// Closed loop: each client keeps exactly one query outstanding. With
/// `telemetry` the full live stack runs during the load — publisher thread
/// (250 ms cadence), flight recorder, exposition endpoint and a scraper
/// pulling /metrics once per second (already 5-15x more often than a
/// production Prometheus would) — so the ON row pays every cost an
/// operator's dashboard would impose.
LoadRow run_closed_loop(const GsIndex& index, serve::ServiceOptions options,
                        int clients, double duration_s, bool prewarm,
                        bool telemetry, std::string mode) {
  if (telemetry) {
    options.stats_interval = std::chrono::milliseconds(250);
    options.flight_capacity = 256;
  }
  serve::QueryService service(index, options);
  const auto grid = workload_grid();
  if (prewarm) {
    for (const auto& params : grid) service.submit(params).get();
  }

  std::unique_ptr<obs::ExpositionServer> exposition;
  std::atomic<bool> scrape_stop{false};
  std::thread scraper;
  if (telemetry) {
    exposition = std::make_unique<obs::ExpositionServer>(
        0, [&service] { return serve::exposition_text(service.snapshot()); });
    scraper = std::thread([&exposition, &scrape_stop] {
      while (!scrape_stop.load(std::memory_order_relaxed)) {
        try {
          (void)obs::http_get_local(exposition->port(), "/metrics");
        } catch (const std::exception&) {
          // A scrape lost to a transient socket hiccup costs the row
          // nothing; the load keeps running.
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1000));
      }
    });
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  WallTimer timer;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      std::size_t i = static_cast<std::size_t>(c);
      while (!stop.load(std::memory_order_relaxed)) {
        service.submit(grid[i % grid.size()]).get();
        ++i;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(duration_s));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : workers) t.join();
  const double elapsed = timer.elapsed_s();
  if (telemetry) {
    scrape_stop.store(true, std::memory_order_relaxed);
    scraper.join();
    exposition->stop();
  }
  service.stop();

  LoadRow row;
  row.mode = std::move(mode);
  row.clients = static_cast<std::uint64_t>(clients);
  row.elapsed = elapsed;
  row.telemetry = telemetry;
  row.snap = service.snapshot();
  return row;
}

/// Open loop: arrivals paced at `offered_qps` regardless of completions;
/// a full queue sheds the arrival instead of blocking the producer.
LoadRow run_open_loop(const GsIndex& index, serve::ServiceOptions options,
                      double offered_qps, double duration_s) {
  serve::QueryService service(index, options);
  const auto grid = workload_grid();
  for (const auto& params : grid) service.submit(params).get();

  std::vector<std::future<serve::QueryResponse>> inflight;
  inflight.reserve(static_cast<std::size_t>(offered_qps * duration_s) + 16);
  const auto period = std::chrono::duration<double>(1.0 / offered_qps);
  const auto start = std::chrono::steady_clock::now();
  const auto end = start + std::chrono::duration<double>(duration_s);
  WallTimer timer;
  std::size_t i = 0;
  for (auto next = start; next < end; next += std::chrono::duration_cast<
           std::chrono::steady_clock::duration>(period)) {
    std::this_thread::sleep_until(next);
    std::future<serve::QueryResponse> f;
    if (service.try_submit(grid[i % grid.size()], RunLimits{}, &f)) {
      inflight.push_back(std::move(f));
    }
    ++i;
  }
  for (auto& f : inflight) f.get();
  const double elapsed = timer.elapsed_s();
  service.stop();

  LoadRow row;
  row.mode = "open/hot";
  row.clients = 1;
  row.offered_qps = offered_qps;
  row.elapsed = elapsed;
  row.snap = service.snapshot();
  return row;
}

/// Overload: arrivals paced at `offered_qps` (the caller passes 2x the
/// measured closed/cold capacity) through try_submit_ex — the gated path
/// with the breaker/shed ladder. Refusals are *not* retried: the row
/// measures what the service does to the excess, not how clients cope.
/// Unlike the other shapes, each arrival carries a fresh (ε, µ) — an
/// all-cached workload absorbs any offered rate from the memo table and
/// proves nothing; the prewarmed grid stays in the cache as the
/// degradation ladder's fallback source.
LoadRow run_overload_loop(const GsIndex& index,
                          serve::ServiceOptions options, double offered_qps,
                          double duration_s) {
  serve::QueryService service(index, options);
  for (const auto& params : workload_grid()) service.submit(params).get();

  std::vector<std::future<serve::QueryResponse>> inflight;
  inflight.reserve(static_cast<std::size_t>(offered_qps * duration_s) + 16);
  const auto period = std::chrono::duration<double>(1.0 / offered_qps);
  const auto start = std::chrono::steady_clock::now();
  const auto end = start + std::chrono::duration<double>(duration_s);
  WallTimer timer;
  std::size_t i = 0;
  for (auto next = start; next < end; next += std::chrono::duration_cast<
           std::chrono::steady_clock::duration>(period)) {
    std::this_thread::sleep_until(next);
    ScanParams params;  // 397 is prime: every arrival in a cycle distinct
    params.eps = EpsRational{1 + (i % 397), 400};
    params.mu = 2 + static_cast<std::uint32_t>(i % 7);
    std::future<serve::QueryResponse> f;
    if (service.try_submit_ex(params, options.default_limits, &f)
            .admitted()) {
      inflight.push_back(std::move(f));
    }
    ++i;
  }
  for (auto& f : inflight) f.get();
  const double elapsed = timer.elapsed_s();
  service.stop();

  LoadRow row;
  row.mode = "open/overload";
  row.clients = 1;
  row.offered_qps = offered_qps;
  row.elapsed = elapsed;
  row.snap = service.snapshot();
  return row;
}

/// One fixed-work burst: `clients` threads split `queries` cache-hit
/// submissions between them, closed-loop; returns the wall time.
double time_burst(serve::QueryService& service,
                  const std::vector<ScanParams>& grid, std::uint64_t queries,
                  int clients) {
  std::vector<std::thread> workers;
  WallTimer timer;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      const std::uint64_t share = queries / static_cast<std::uint64_t>(clients);
      std::size_t i = static_cast<std::size_t>(c);
      for (std::uint64_t q = 0; q < share; ++q) {
        service.submit(grid[i % grid.size()]).get();
        ++i;
      }
    });
  }
  for (auto& t : workers) t.join();
  return timer.elapsed_s();
}

struct OverheadResult {
  double qps_off = 0;
  double qps_on = 0;
  double overhead_pct = 0;
  std::uint64_t rounds = 0;
  std::uint64_t queries_per_round = 0;
};

/// The telemetry-overhead measurement behind BENCH_obs.json. A single
/// before/after pair cannot resolve a sub-percent effect on a shared
/// machine (consecutive identical runs here drift by double digits), so
/// this interleaves fixed-work rounds between two live services — one
/// bare, one carrying the full telemetry stack (publisher, flight
/// recorder, exposition endpoint being scraped) — and compares the summed
/// wall time. Drift slow relative to a round hits both sides equally.
OverheadResult measure_hot_overhead(const GsIndex& index,
                                    serve::ServiceOptions base, int clients,
                                    std::uint64_t rounds,
                                    std::uint64_t queries_per_round) {
  const auto grid = workload_grid();
  serve::ServiceOptions on_options = base;
  on_options.stats_interval = std::chrono::milliseconds(250);
  on_options.flight_capacity = 256;
  serve::QueryService off_service(index, base);
  serve::QueryService on_service(index, on_options);
  obs::ExpositionServer exposition(0, [&on_service] {
    return serve::exposition_text(on_service.snapshot());
  });
  std::atomic<bool> scrape_stop{false};
  std::thread scraper([&exposition, &scrape_stop] {
    while (!scrape_stop.load(std::memory_order_relaxed)) {
      try {
        (void)obs::http_get_local(exposition.port(), "/metrics");
      } catch (const std::exception&) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1000));
    }
  });
  for (const auto& params : grid) {
    off_service.submit(params).get();
    on_service.submit(params).get();
  }

  double t_off = 0;
  double t_on = 0;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    t_off += time_burst(off_service, grid, queries_per_round, clients);
    t_on += time_burst(on_service, grid, queries_per_round, clients);
  }
  scrape_stop.store(true, std::memory_order_relaxed);
  scraper.join();
  exposition.stop();
  off_service.stop();
  on_service.stop();

  OverheadResult result;
  result.rounds = rounds;
  result.queries_per_round = queries_per_round;
  const double work =
      static_cast<double>(rounds) * static_cast<double>(queries_per_round);
  result.qps_off = t_off > 0 ? work / t_off : 0;
  result.qps_on = t_on > 0 ? work / t_on : 0;
  result.overhead_pct = t_off > 0 ? (t_on - t_off) / t_off * 100.0 : 0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_banner(flags, "QueryService: concurrent (eps, mu) serving");

  const bool smoke = flags.get_bool("smoke", false);
  LfrParams lfr;
  lfr.n = static_cast<VertexId>(flags.get_int("n", smoke ? 4096 : 65536));
  lfr.avg_degree = flags.get_double("avg-degree", smoke ? 12 : 32);
  lfr.mixing = 0.2;
  const auto graph = lfr_like(lfr, 42);
  const std::string dataset = "lfr-n" + std::to_string(lfr.n) + "-d" +
                              std::to_string(static_cast<int>(lfr.avg_degree));
  const int threads =
      static_cast<int>(flags.get_int("threads", smoke ? 2 : 8));
  const int clients =
      static_cast<int>(flags.get_int("clients", smoke ? 2 : 4));
  const double duration = flags.get_double("duration-s", smoke ? 0.3 : 3.0);
  const double offered = flags.get_double("offered-qps", smoke ? 500 : 1200);

  GsIndex::BuildOptions build;
  build.num_threads = threads;
  WallTimer build_timer;
  const GsIndex index(graph, build);
  std::cout << "# " << dataset << ": " << graph.num_vertices()
            << " vertices, " << graph.num_edges() << " edges; index built in "
            << build_timer.elapsed_s() << " s ("
            << index.memory_bytes() / (1024 * 1024) << " MiB)\n";

  // Spot-check before any load: a served answer must be bit-identical to a
  // fresh single-threaded query.
  {
    serve::ServiceOptions check;
    check.num_threads = threads;
    check.cache_results = false;
    serve::QueryService service(index, check);
    for (const auto& params :
         {ScanParams::make("0.2", 2), ScanParams::make("0.6", 5)}) {
      const auto got = service.submit(params).get();
      const auto want = index.query(params);
      if (got.run->result.roles != want.result.roles ||
          got.run->result.core_cluster_id != want.result.core_cluster_id ||
          got.run->result.noncore_memberships !=
              want.result.noncore_memberships) {
        std::cerr << "ERROR: served answer diverged from GsIndex::query\n";
        return 1;
      }
    }
  }

  serve::ServiceOptions base;
  base.num_threads = threads;
  base.max_recorded_queries = 16;  // keep the committed queries[] small

  std::vector<LoadRow> rows;
  {
    auto options = base;
    options.cache_results = false;
    rows.push_back(run_closed_loop(index, options, clients, duration,
                                   /*prewarm=*/false, /*telemetry=*/false,
                                   "closed/cold"));
    rows.push_back(run_closed_loop(index, options, clients, duration,
                                   /*prewarm=*/false, /*telemetry=*/true,
                                   "closed/cold"));
  }
  {
    auto options = base;
    rows.push_back(run_closed_loop(index, options, clients, duration,
                                   /*prewarm=*/true, /*telemetry=*/false,
                                   "closed/hot"));
    rows.push_back(run_closed_loop(index, options, clients, duration,
                                   /*prewarm=*/true, /*telemetry=*/true,
                                   "closed/hot"));
  }
  {
    auto options = base;
    options.queue_capacity = 256;
    rows.push_back(run_open_loop(index, options, offered, duration));
  }
  {
    // Offered load = 2x whatever the closed/cold row just measured on this
    // machine, so the row is an overload by construction, not by flag
    // tuning. EXPERIMENTS.md records the protocol.
    auto options = base;
    options.queue_capacity = 256;
    options.shed_target_delay = std::chrono::milliseconds(20);
    options.degraded_serving = true;
    options.default_limits.deadline = std::chrono::milliseconds(100);
    const double overload_qps = std::max(rows[0].qps() * 2.0, offered);
    rows.push_back(run_overload_loop(index, options, overload_qps, duration));
  }

  Table table({"mode", "telemetry", "threads", "clients", "queries",
               "elapsed(s)", "queries/s", "p50(ms)", "p99(ms)", "max(ms)",
               "hits", "partial", "rejected", "shed", "degraded"});
  for (const auto& row : rows) {
    table.add_row({row.mode, row.telemetry ? "on" : "off",
                   Table::fmt(std::uint64_t(threads)),
                   Table::fmt(row.clients), Table::fmt(row.snap.completed),
                   Table::fmt(row.elapsed), Table::fmt(row.qps(), 1),
                   Table::fmt(row.snap.latency.quantile_ms(0.5)),
                   Table::fmt(row.snap.latency.quantile_ms(0.99)),
                   Table::fmt(row.snap.latency.max_ms),
                   Table::fmt(row.snap.cache_hits),
                   Table::fmt(row.snap.partial),
                   Table::fmt(row.snap.rejected),
                   Table::fmt(row.snap.shed_queue_full +
                              row.snap.shed_overload + row.snap.shed_breaker),
                   Table::fmt(row.snap.degraded_hits)});
  }
  table.print(std::cout, "QueryService load, " + dataset + ", " +
                             std::to_string(threads) + " executor threads");

  const auto metrics_path = flags.get_string("metrics-json", "");
  if (!metrics_path.empty()) {
    std::vector<obs::JsonValue> json_rows;
    for (const auto& row : rows) {
      auto report = serve::make_serving_report(
          "bench_query_serving", dataset, "0.2,0.4,0.6,0.8", graph, row.snap,
          row.elapsed);
      auto json = obs::metrics_to_json(report);
      json.set("mode", obs::JsonValue::string(row.mode));
      json.set("telemetry",
               obs::JsonValue::string(row.telemetry ? "on" : "off"));
      json.set("clients", obs::JsonValue::number_u64(row.clients));
      json.set("queries_per_second", obs::JsonValue::number(row.qps()));
      if (row.offered_qps > 0) {
        json.set("offered_per_second", obs::JsonValue::number(row.offered_qps));
      }
      json_rows.push_back(std::move(json));
    }
    const auto doc =
        obs::metrics_file_envelope("serving", std::move(json_rows));
    const auto violation = obs::validate_metrics_file_json(doc);
    if (!violation.empty()) {
      std::cerr << "metrics-json: rows fail their own schema: " << violation
                << "\n";
      return 1;
    }
    std::ofstream stream(metrics_path);
    if (!stream) {
      std::cerr << "metrics-json: cannot open " << metrics_path
                << " for writing\n";
      return 1;
    }
    stream << doc.dump(2) << "\n";
    std::cout << "# metrics -> " << metrics_path << " (" << rows.size()
              << " rows, schema v" << obs::kMetricsSchemaVersion << ")\n";
  }

  // --obs-json: the telemetry-overhead artifact (BENCH_obs.json). The
  // headline number is the interleaved fixed-work comparison on the
  // closed/hot mix (cache-served — where a fixed per-query tax would be
  // largest relative to the work); the single-run table pairs above are
  // recorded as context but carry this machine's full run-to-run drift.
  const auto obs_path = flags.get_string("obs-json", "");
  if (!obs_path.empty()) {
    // Many small rounds alternate ON/OFF at the ~10 ms scale, so drift
    // (and VM steal-time spikes) land on both sides evenly.
    const auto overhead = measure_hot_overhead(
        index, base, clients,
        /*rounds=*/static_cast<std::uint64_t>(
            flags.get_int("overhead-rounds", smoke ? 20 : 400)),
        /*queries_per_round=*/static_cast<std::uint64_t>(
            flags.get_int("overhead-queries", smoke ? 5000 : 10000)));
    auto doc = obs::JsonValue::object();
    doc.set("schema", obs::JsonValue::string("ppscan-obs-overhead-v1"));
    doc.set("dataset", obs::JsonValue::string(dataset));
    doc.set("threads", obs::JsonValue::number_u64(
                           static_cast<std::uint64_t>(threads)));
    doc.set("clients", obs::JsonValue::number_u64(
                           static_cast<std::uint64_t>(clients)));
    auto headline = obs::JsonValue::object();
    headline.set("mode", obs::JsonValue::string("closed/hot"));
    headline.set("method", obs::JsonValue::string("interleaved-fixed-work"));
    headline.set("rounds", obs::JsonValue::number_u64(overhead.rounds));
    headline.set("queries_per_round",
                 obs::JsonValue::number_u64(overhead.queries_per_round));
    headline.set("qps_telemetry_off",
                 obs::JsonValue::number(overhead.qps_off));
    headline.set("qps_telemetry_on", obs::JsonValue::number(overhead.qps_on));
    headline.set("overhead_pct",
                 obs::JsonValue::number(overhead.overhead_pct));
    doc.set("overhead", std::move(headline));
    auto context = obs::JsonValue::array();
    for (const auto& row : rows) {
      if (row.offered_qps > 0) continue;
      auto entry = obs::JsonValue::object();
      entry.set("mode", obs::JsonValue::string(row.mode));
      entry.set("telemetry",
                obs::JsonValue::string(row.telemetry ? "on" : "off"));
      entry.set("queries_per_second", obs::JsonValue::number(row.qps()));
      entry.set("p99_ms",
                obs::JsonValue::number(row.snap.latency.quantile_ms(0.99)));
      context.push(std::move(entry));
    }
    doc.set("single_runs", std::move(context));
    std::ofstream stream(obs_path);
    if (!stream) {
      std::cerr << "obs-json: cannot open " << obs_path << " for writing\n";
      return 1;
    }
    stream << doc.dump(2) << "\n";
    std::cout << "# obs overhead -> " << obs_path << " (closed/hot telemetry "
              << "on/off: " << overhead.overhead_pct << "% over "
              << overhead.rounds << " interleaved rounds)\n";
  }
  return 0;
}
