// Live-telemetry tests (docs/observability.md, "Live telemetry"): the
// latency histogram's delta arithmetic, the exposition endpoint over a
// real loopback socket, and the /metrics body rendered from QueryService
// snapshots. The final test is the adversarial one CI runs under TSan:
// eight submitters, a snapshot poller and a live scraper all hammering
// one traced service.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "index/gs_index.hpp"
#include "obs/exposition.hpp"
#include "obs/latency_histogram.hpp"
#include "obs/trace.hpp"
#include "serve/query_service.hpp"
#include "serve/serving_metrics.hpp"

namespace ppscan {
namespace {

using obs::LatencyHistogram;
using serve::QueryResponse;
using serve::QueryService;
using serve::ServiceOptions;
using serve::ServiceSnapshot;

using namespace std::chrono_literals;

// --- histogram arithmetic ----------------------------------------------

TEST(LatencyHistogram, DeltaSinceIsTheGrowthBetweenObservations) {
  LatencyHistogram h;
  h.record(1.0);
  const LatencyHistogram baseline = h;
  h.record(4.0);
  h.record(8.0);
  const LatencyHistogram delta = h.delta_since(baseline);
  EXPECT_EQ(delta.total, 2u);
  EXPECT_DOUBLE_EQ(delta.sum_ms, 12.0);
  // No growth → empty delta.
  const LatencyHistogram none = h.delta_since(h);
  EXPECT_EQ(none.total, 0u);
  EXPECT_DOUBLE_EQ(none.sum_ms, 0.0);
}

TEST(LatencyHistogram, EmptyQuantileIsZero) {
  const LatencyHistogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile_ms(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile_ms(0.99), 0.0);
}

// --- exposition endpoint over a real loopback socket --------------------

TEST(ExpositionServer, ServesMetricsAndHealthzOnAnEphemeralPort) {
  std::atomic<int> renders{0};
  obs::ExpositionServer server(0, [&renders] {
    renders.fetch_add(1, std::memory_order_relaxed);
    std::string out;
    obs::prom_family(out, "ppscan_test_total", "A test counter", "counter");
    obs::prom_sample_u64(out, "ppscan_test_total", 42);
    return out;
  });
  ASSERT_NE(server.port(), 0);  // ephemeral request resolved

  const std::string body = obs::http_get_local(server.port(), "/metrics");
  EXPECT_NE(body.find("# TYPE ppscan_test_total counter"), std::string::npos)
      << body;
  EXPECT_NE(body.find("ppscan_test_total 42"), std::string::npos) << body;
  EXPECT_EQ(renders.load(), 1);

  EXPECT_EQ(obs::http_get_local(server.port(), "/healthz"), "ok\n");
  // /healthz must not invoke the renderer.
  EXPECT_EQ(renders.load(), 1);

  EXPECT_THROW(obs::http_get_local(server.port(), "/nope"),
               std::runtime_error);
  EXPECT_GE(server.requests_served(), 3u);

  server.stop();
  server.stop();  // idempotent
  EXPECT_THROW(obs::http_get_local(server.port(), "/healthz"),
               std::runtime_error);
}

// --- snapshots of a real service -------------------

ScanParams make_params(std::uint64_t num, std::uint32_t mu) {
  ScanParams p;
  p.eps = EpsRational{num, 5};
  p.mu = mu;
  return p;
}

TEST(LiveTelemetry, QueryResponseCarriesTheQueueSplit) {
  const auto g = erdos_renyi(400, 2500, 5);
  const GsIndex index(g);
  ServiceOptions options;
  options.num_threads = 1;
  options.cache_results = true;
  QueryService service(index, options);
  const QueryResponse first = service.submit(make_params(3, 2)).get();
  ASSERT_NE(first.run, nullptr);
  EXPECT_GE(first.queue_seconds, 0.0);
  EXPECT_LE(first.queue_seconds + first.execute_seconds,
            first.latency_seconds + 0.05 * first.latency_seconds + 5e-4);
  // A memoized answer spends nothing executing.
  const QueryResponse hit = service.submit(make_params(3, 2)).get();
  ASSERT_TRUE(hit.cache_hit);
  EXPECT_DOUBLE_EQ(hit.execute_seconds, 0.0);

  // The snapshot's per-query records carry the same split: queue +
  // execute ≤ latency (delivery overhead is the slack the validator also
  // allows).
  const ServiceSnapshot snap = service.snapshot();
  ASSERT_EQ(snap.recent.size(), 2u);
  for (const auto& record : snap.recent) {
    EXPECT_GE(record.queue_ms, 0.0);
    EXPECT_GE(record.execute_ms, 0.0);
    EXPECT_LE(record.queue_ms + record.execute_ms,
              record.latency_ms + record.latency_ms * 0.05 + 0.5);
  }
}

TEST(LiveTelemetry, ExpositionTextReflectsTheSnapshot) {
  const auto g = erdos_renyi(800, 6000, 13);
  const GsIndex index(g);
  ServiceOptions options;
  options.num_threads = 2;
  options.cache_results = true;
  QueryService service(index, options);
  for (int i = 0; i < 4; ++i)
    ASSERT_NE(service.submit(make_params(2, 3)).get().run, nullptr);

  const ServiceSnapshot snap = service.snapshot();
  const std::string text = serve::exposition_text(snap);

  const auto expect_line = [&text](const std::string& line) {
    EXPECT_NE(text.find(line), std::string::npos) << "missing: " << line;
  };
  expect_line("ppscan_serve_submitted_total " +
              std::to_string(snap.submitted));
  expect_line("ppscan_serve_completed_total " +
              std::to_string(snap.completed));
  expect_line("ppscan_serve_cache_hits_total " +
              std::to_string(snap.cache_hits));
  expect_line("# TYPE ppscan_serve_latency_ms histogram");
  expect_line("ppscan_serve_latency_ms_count " +
              std::to_string(snap.latency.total));
  expect_line("ppscan_serve_latency_ms_bucket{le=\"+Inf\"} " +
              std::to_string(snap.latency.total));
  expect_line("ppscan_serve_shed_total{cause=\"queue-full\"}");
  expect_line("ppscan_serve_shed_total{cause=\"overload\"}");
  // Every HELP has a TYPE: the same invariants check_exposition.py holds
  // over the live scrape in CI.
  EXPECT_EQ(std::string::npos, text.find("\n\n"));
}

// A hand-built snapshot pins the whole scrape body byte for byte: family
// order, HELP text, label syntax, number formatting and the histogram's
// cumulative buckets.
TEST(LiveTelemetry, ExpositionTextIsByteExact) {
  ServiceSnapshot s;
  s.submitted = 42;
  s.completed = 40;
  s.cache_hits = 7;
  s.rejected = 3;
  s.partial = 2;
  s.exceptions = 1;
  s.shed_queue_full = 1;
  s.shed_overload = 2;
  s.counters.arcs_touched = 1000;
  s.counters.arcs_predicate_pruned = 100;
  s.counters.sims_computed = 400;
  s.counters.sims_reused = 500;
  for (const double ms : {0.0005, 0.003, 0.75, 1.5, 12.0, 250.0})
    s.latency.record(ms);
  s.uptime_seconds = 12.5;
  s.num_threads = 4;

  const char* const expected = R"prom(# HELP ppscan_serve_submitted_total Queries admitted into the service
# TYPE ppscan_serve_submitted_total counter
ppscan_serve_submitted_total 42
# HELP ppscan_serve_completed_total Queries answered (including cache hits and partials)
# TYPE ppscan_serve_completed_total counter
ppscan_serve_completed_total 40
# HELP ppscan_serve_rejected_total Queries refused at admission (all causes)
# TYPE ppscan_serve_rejected_total counter
ppscan_serve_rejected_total 3
# HELP ppscan_serve_cache_hits_total Answers served from the (eps, mu) result cache
# TYPE ppscan_serve_cache_hits_total counter
ppscan_serve_cache_hits_total 7
# HELP ppscan_serve_partial_total Answers delivered partial (deadline or budget abort)
# TYPE ppscan_serve_partial_total counter
ppscan_serve_partial_total 2
# HELP ppscan_serve_exceptions_total Executions classified AbortReason::Exception by the firewall
# TYPE ppscan_serve_exceptions_total counter
ppscan_serve_exceptions_total 1
# HELP ppscan_serve_shed_total Refusals split by cause
# TYPE ppscan_serve_shed_total counter
ppscan_serve_shed_total{cause="queue-full"} 1
ppscan_serve_shed_total{cause="overload"} 2
# HELP ppscan_serve_arcs_touched_total Arcs triaged across executed queries
# TYPE ppscan_serve_arcs_touched_total counter
ppscan_serve_arcs_touched_total 1000
# HELP ppscan_serve_arcs_pruned_total Arcs decided by the degree predicate alone
# TYPE ppscan_serve_arcs_pruned_total counter
ppscan_serve_arcs_pruned_total 100
# HELP ppscan_serve_sims_computed_total Structural similarities computed
# TYPE ppscan_serve_sims_computed_total counter
ppscan_serve_sims_computed_total 400
# HELP ppscan_serve_sims_reused_total Structural similarities reused from the GS*-Index
# TYPE ppscan_serve_sims_reused_total counter
ppscan_serve_sims_reused_total 500
# HELP ppscan_serve_threads Executor worker threads
# TYPE ppscan_serve_threads gauge
ppscan_serve_threads 4
# HELP ppscan_serve_uptime_seconds Seconds since service construction
# TYPE ppscan_serve_uptime_seconds gauge
ppscan_serve_uptime_seconds 12.5
# HELP ppscan_serve_latency_ms End-to-end query latency since service start (milliseconds)
# TYPE ppscan_serve_latency_ms histogram
ppscan_serve_latency_ms_bucket{le="0.001"} 1
ppscan_serve_latency_ms_bucket{le="0.002"} 1
ppscan_serve_latency_ms_bucket{le="0.004"} 2
ppscan_serve_latency_ms_bucket{le="0.008"} 2
ppscan_serve_latency_ms_bucket{le="0.016"} 2
ppscan_serve_latency_ms_bucket{le="0.032"} 2
ppscan_serve_latency_ms_bucket{le="0.064"} 2
ppscan_serve_latency_ms_bucket{le="0.128"} 2
ppscan_serve_latency_ms_bucket{le="0.256"} 2
ppscan_serve_latency_ms_bucket{le="0.512"} 2
ppscan_serve_latency_ms_bucket{le="1.024"} 3
ppscan_serve_latency_ms_bucket{le="2.048"} 4
ppscan_serve_latency_ms_bucket{le="4.096"} 4
ppscan_serve_latency_ms_bucket{le="8.192"} 4
ppscan_serve_latency_ms_bucket{le="16.384"} 5
ppscan_serve_latency_ms_bucket{le="32.768"} 5
ppscan_serve_latency_ms_bucket{le="65.536"} 5
ppscan_serve_latency_ms_bucket{le="131.072"} 5
ppscan_serve_latency_ms_bucket{le="262.144"} 6
ppscan_serve_latency_ms_bucket{le="524.288"} 6
ppscan_serve_latency_ms_bucket{le="1048.58"} 6
ppscan_serve_latency_ms_bucket{le="2097.15"} 6
ppscan_serve_latency_ms_bucket{le="4194.3"} 6
ppscan_serve_latency_ms_bucket{le="8388.61"} 6
ppscan_serve_latency_ms_bucket{le="16777.2"} 6
ppscan_serve_latency_ms_bucket{le="33554.4"} 6
ppscan_serve_latency_ms_bucket{le="67108.9"} 6
ppscan_serve_latency_ms_bucket{le="134218"} 6
ppscan_serve_latency_ms_bucket{le="+Inf"} 6
ppscan_serve_latency_ms_sum 264.253
ppscan_serve_latency_ms_count 6
)prom";
  EXPECT_EQ(serve::exposition_text(s), expected);
}

// --- the adversarial TSan target ----------------------------------------

TEST(LiveTelemetry, ConcurrentSubmittersPollerAndScraperStayConsistent) {
  const auto g = erdos_renyi(1000, 8000, 17);
  const GsIndex index(g);
  ServiceOptions options;
  options.num_threads = 4;
  options.cache_results = true;
  obs::TraceCollector trace(options.num_threads);
  options.trace = &trace;
  QueryService service(index, options);

  obs::ExpositionServer exposition(
      0, [&service] { return serve::exposition_text(service.snapshot()); });

  constexpr int kSubmitters = 8;
  constexpr int kPerThread = 12;
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<bool> poll_stop{false};

  std::thread poller([&] {
    while (!poll_stop.load(std::memory_order_relaxed)) {
      const auto snap = service.snapshot();
      // Invariants that must hold on every cut, mid-flight included.
      EXPECT_LE(snap.completed, snap.submitted);
      std::this_thread::sleep_for(1ms);
    }
  });
  std::thread scraper([&] {
    while (!poll_stop.load(std::memory_order_relaxed)) {
      try {
        const std::string body =
            obs::http_get_local(exposition.port(), "/metrics");
        EXPECT_NE(body.find("ppscan_serve_submitted_total"),
                  std::string::npos);
      } catch (const std::exception&) {
        // Transient connect failures under load are fine; the scrape that
        // matters is the final one below.
      }
      std::this_thread::sleep_for(2ms);
    }
  });

  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto params =
            make_params(1 + static_cast<std::uint64_t>((t + i) % 4),
                        2 + static_cast<std::uint32_t>(i % 3));
        const QueryResponse response = service.submit(params).get();
        if (response.run != nullptr)
          delivered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : submitters) t.join();
  poll_stop.store(true, std::memory_order_relaxed);
  poller.join();
  scraper.join();

  service.stop();
  const auto snap = service.snapshot();
  const std::uint64_t total = kSubmitters * kPerThread;
  EXPECT_EQ(delivered.load(), total);
  EXPECT_EQ(snap.submitted, total);
  EXPECT_EQ(snap.completed, total);
  EXPECT_EQ(snap.latency.total, total);
  if (obs::kTraceEnabled) {
    // One serve.query span begin per admission (stop() above is the
    // happens-before edge the buffer read needs).
    std::uint64_t begins = 0;
    for (const auto& e : trace.buffer(trace.master_slot()).snapshot()) {
      if (e.kind == obs::TraceEventKind::SpanBegin &&
          std::string_view(e.name) == "serve.query") {
        begins += 1;
      }
    }
    EXPECT_EQ(begins, total);
  }

  // The final scrape renders the settled counters and still lint-clean
  // families (the CI smoke runs check_exposition.py over a live body; here
  // we at least pin the totals).
  const std::string body = obs::http_get_local(exposition.port(), "/metrics");
  EXPECT_NE(
      body.find("ppscan_serve_submitted_total " + std::to_string(total)),
      std::string::npos)
      << body;
  exposition.stop();
  EXPECT_GT(exposition.requests_served(), 0u);
}

}  // namespace
}  // namespace ppscan
