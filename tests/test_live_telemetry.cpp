// Live-telemetry tests (docs/observability.md, "Live telemetry"): the
// windowed-histogram fold/rotate/expiry arithmetic with explicit time
// points (deterministic — no sleeps), the flight recorder's ring and its
// three dump paths against the ppscan-flight-v1 validator, the exposition
// endpoint over a real loopback socket, and the QueryService publisher
// observed through snapshot(). The final test is the adversarial one CI
// runs under TSan: eight submitters, a snapshot poller, a live scraper and
// the publisher thread all hammering one service.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "graph/generators.hpp"
#include "index/gs_index.hpp"
#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/latency_histogram.hpp"
#include "obs/windowed_histogram.hpp"
#include "serve/query_service.hpp"
#include "serve/serving_metrics.hpp"

namespace ppscan {
namespace {

using obs::FlightRecorder;
using obs::JsonValue;
using obs::LatencyHistogram;
using obs::WindowedLatency;
using serve::QueryResponse;
using serve::QueryService;
using serve::ServiceOptions;
using serve::ServiceSnapshot;

using namespace std::chrono_literals;

// --- histogram arithmetic ----------------------------------------------

TEST(LatencyHistogram, MergeAccumulatesBucketsTotalsAndSum) {
  LatencyHistogram a;
  a.record(0.5);
  a.record(2.0);
  LatencyHistogram b;
  b.record(100.0);
  a.merge(b);
  EXPECT_EQ(a.total, 3u);
  EXPECT_DOUBLE_EQ(a.sum_ms, 102.5);
  EXPECT_DOUBLE_EQ(a.max_ms, 100.0);
  std::uint64_t bucket_sum = 0;
  for (const auto c : a.counts) bucket_sum += c;
  EXPECT_EQ(bucket_sum, a.total);
}

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

// --- windowed fold / rotate / expiry (explicit clocks, deterministic) ---

TEST(WindowedLatency, DefaultConstructedIsInert) {
  WindowedLatency w;
  EXPECT_FALSE(w.enabled());
  LatencyHistogram lifetime;
  lifetime.record(1.0);
  const auto now = WindowedLatency::Clock::now();
  w.publish(lifetime, now);  // must be a no-op, not a crash
  EXPECT_EQ(w.publishes(), 0u);
  EXPECT_EQ(w.window(now).total, 0u);
}

TEST(WindowedLatency, PublishFoldsLifetimeDeltasIntoTheWindow) {
  WindowedLatency w(10000ms, 1000ms);
  ASSERT_TRUE(w.enabled());
  EXPECT_EQ(w.horizon(), 10000ms);

  const auto t0 = WindowedLatency::Clock::now();
  LatencyHistogram lifetime;
  lifetime.record(1.0);
  lifetime.record(2.0);
  w.publish(lifetime, t0 + 1s);
  EXPECT_EQ(w.publishes(), 1u);
  EXPECT_EQ(w.last_interval().total, 2u);
  EXPECT_EQ(w.window(t0 + 1s).total, 2u);

  lifetime.record(50.0);
  w.publish(lifetime, t0 + 2s);
  EXPECT_EQ(w.last_interval().total, 1u);  // only the new sample
  EXPECT_DOUBLE_EQ(w.last_interval().sum_ms, 50.0);
  const LatencyHistogram win = w.window(t0 + 2s);
  EXPECT_EQ(win.total, 3u);  // both intervals still inside the horizon
  EXPECT_DOUBLE_EQ(win.sum_ms, 53.0);
  // The windowed quantile sees the full fold: p99 lands in 50 ms's bucket,
  // whose upper bound is at least the sample.
  EXPECT_GE(win.quantile_ms(0.99), 50.0);
}

TEST(WindowedLatency, TrafficAgesOutOfTheWindowAtTheHorizon) {
  WindowedLatency w(10000ms, 1000ms);
  const auto t0 = WindowedLatency::Clock::now();
  LatencyHistogram lifetime;
  lifetime.record(3.0);
  w.publish(lifetime, t0);
  EXPECT_EQ(w.window(t0).total, 1u);
  EXPECT_EQ(w.window(t0 + 9999ms).total, 1u);  // still younger than horizon
  EXPECT_EQ(w.window(t0 + 10s).total, 0u);     // aged out exactly at it
  EXPECT_DOUBLE_EQ(w.window(t0 + 10s).quantile_ms(0.5), 0.0);
}

TEST(WindowedLatency, RingOverwriteKeepsOnlyAHorizonOfDeltas) {
  // 3 s horizon at 1 s cadence → 4 slots; 8 publishes must wrap cleanly
  // and the window must only ever see the last-horizon slice.
  WindowedLatency w(3000ms, 1000ms);
  const auto t0 = WindowedLatency::Clock::now();
  LatencyHistogram lifetime;
  for (int tick = 1; tick <= 8; ++tick) {
    lifetime.record(static_cast<double>(tick));
    w.publish(lifetime, t0 + std::chrono::seconds(tick));
  }
  EXPECT_EQ(w.publishes(), 8u);
  const LatencyHistogram win = w.window(t0 + 8s);
  // Slots stamped at t0+6s, +7 s, +8 s qualify (t0+5 s aged out: 8-5 ≥ 3).
  EXPECT_EQ(win.total, 3u);
  EXPECT_DOUBLE_EQ(win.sum_ms, 6.0 + 7.0 + 8.0);
}

TEST(WindowedLatency, QuietIntervalsDrainTheWindow) {
  // Empty publishes still claim slots — that is what ages traffic out
  // while the service idles, without waiting a full horizon.
  WindowedLatency w(3000ms, 1000ms);
  const auto t0 = WindowedLatency::Clock::now();
  LatencyHistogram lifetime;
  lifetime.record(1.0);
  w.publish(lifetime, t0 + 1s);
  for (int tick = 2; tick <= 6; ++tick)  // no new samples
    w.publish(lifetime, t0 + std::chrono::seconds(tick));
  EXPECT_EQ(w.last_interval().total, 0u);
  EXPECT_EQ(w.window(t0 + 6s).total, 0u);
}

// --- flight recorder ----------------------------------------------------

TEST(FlightRecorder, RingKeepsTheMostRecentEventsOldestFirst) {
  FlightRecorder recorder(4);
  EXPECT_EQ(recorder.capacity(), 4u);
  for (std::uint64_t i = 0; i < 10; ++i)
    recorder.record(FlightRecorder::EventKind::Admission, "serve.query", i);
  EXPECT_EQ(recorder.recorded(), 10u);
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].id, 6u + i);  // 6,7,8,9 — oldest first
    EXPECT_STREQ(events[i].label, "serve.query");
  }
}

TEST(FlightRecorder, LabelsAndDetailsAreTruncatedNotOverrun) {
  FlightRecorder recorder(2);
  const std::string long_label(100, 'L');
  const std::string long_detail(200, 'D');
  recorder.record(FlightRecorder::EventKind::Exception, long_label.c_str(), 1,
                  long_detail.c_str());
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_LT(std::string(events[0].label).size(), FlightRecorder::kLabelBytes);
  EXPECT_LT(std::string(events[0].detail).size(),
            FlightRecorder::kDetailBytes);
}

TEST(FlightRecorder, DumpJsonValidatesAndSurvivesSerialization) {
  FlightRecorder recorder(8);
  recorder.record(FlightRecorder::EventKind::Lifecycle, "serve.start");
  recorder.record(FlightRecorder::EventKind::Admission, "serve.query", 7);
  recorder.record(FlightRecorder::EventKind::Refusal, "serve.shed.overload", 0,
                  "sojourn over target");
  const JsonValue doc = recorder.dump_json("stop");
  std::string error;
  EXPECT_TRUE(obs::validate_flight_json(doc, &error)) << error;
  EXPECT_EQ(doc.at("schema").as_string(), "ppscan-flight-v1");
  EXPECT_EQ(doc.at("reason").as_string(), "stop");
  EXPECT_EQ(doc.at("events").size(), 3u);

  const JsonValue back = JsonValue::parse(doc.dump(2));
  EXPECT_TRUE(obs::validate_flight_json(back, &error)) << error;
}

TEST(FlightRecorder, ValidatorRejectsWrongSchemaAndMalformedEvents) {
  FlightRecorder recorder(4);
  recorder.record(FlightRecorder::EventKind::Refusal, "serve.shed", 0,
                  "overload");
  std::string error;

  JsonValue wrong_schema = recorder.dump_json("stop");
  wrong_schema.set("schema", JsonValue::string("ppscan-flight-v9"));
  EXPECT_FALSE(obs::validate_flight_json(wrong_schema, &error));
  EXPECT_NE(error.find("schema"), std::string::npos) << error;

  JsonValue bad_kind = recorder.dump_json("stop");
  auto events = JsonValue::array();
  auto entry = JsonValue::object();
  entry.set("t_ns", JsonValue::number_u64(1));
  entry.set("kind", JsonValue::string("not-a-kind"));
  entry.set("label", JsonValue::string("x"));
  entry.set("id", JsonValue::number_u64(0));
  entry.set("detail", JsonValue::string(""));
  events.push(std::move(entry));
  bad_kind.set("events", std::move(events));
  EXPECT_FALSE(obs::validate_flight_json(bad_kind, &error));
  EXPECT_NE(error.find("kind"), std::string::npos) << error;
}

TEST(FlightRecorder, DumpToFileWritesAValidDocument) {
  FlightRecorder recorder(4);
  recorder.record(FlightRecorder::EventKind::Lifecycle, "serve.start");
  char path[] = "/tmp/ppscan_flight_XXXXXX";
  const int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  ::close(fd);
  ASSERT_TRUE(recorder.dump_to_file(path, "stop"));
  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  std::string error;
  EXPECT_TRUE(obs::validate_flight_json(JsonValue::parse(body.str()), &error))
      << error;
  std::remove(path);
}

TEST(FlightRecorder, SignalSafeDumpEmitsTheSameSchema) {
  // The crash path: no locks, no allocation — but the bytes it writes must
  // still parse and validate as ppscan-flight-v1.
  FlightRecorder recorder(4);
  recorder.record(FlightRecorder::EventKind::Lifecycle, "serve.start");
  recorder.record(FlightRecorder::EventKind::Exception, "serve.exception", 3,
                  "boom");
  char path[] = "/tmp/ppscan_flight_sig_XXXXXX";
  const int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  recorder.dump_signal_safe(fd, "signal");
  ::close(fd);
  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  std::string error;
  const JsonValue doc = JsonValue::parse(body.str());
  EXPECT_TRUE(obs::validate_flight_json(doc, &error)) << error;
  EXPECT_EQ(doc.at("reason").as_string(), "signal");
  EXPECT_EQ(doc.at("events").size(), 2u);
  std::remove(path);
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

// --- the publisher + snapshot, through a real service -------------------

ScanParams make_params(std::uint64_t num, std::uint32_t mu) {
  ScanParams p;
  p.eps = EpsRational{num, 5};
  p.mu = mu;
  return p;
}

TEST(LiveTelemetry, PublisherFillsWindowedSnapshotFields) {
  const auto g = erdos_renyi(800, 6000, 11);
  const GsIndex index(g);
  ServiceOptions options;
  options.num_threads = 2;
  options.cache_results = false;
  options.stats_interval = 25ms;
  options.window_horizon = 5000ms;
  QueryService service(index, options);

  for (const std::uint64_t num : {1, 2, 3})
    for (const std::uint32_t mu : {2u, 3u})
      ASSERT_NE(service.submit(make_params(num, mu)).get().run, nullptr);

  // The publisher folds on its own cadence; poll instead of trusting one
  // sleep (CI machines stall).
  ServiceSnapshot snap;
  for (int attempt = 0; attempt < 200; ++attempt) {
    snap = service.snapshot();
    if (snap.publishes > 0 && snap.window.total >= 6) break;
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_GT(snap.publishes, 0u);
  EXPECT_DOUBLE_EQ(snap.window_seconds, 5.0);
  EXPECT_EQ(snap.window.total, 6u);  // all six queries inside the horizon
  EXPECT_LE(snap.window.total, snap.latency.total);
  EXPECT_GT(snap.window.quantile_ms(0.99), 0.0);

  // Interval deltas never exceed the lifetime totals they derive from.
  EXPECT_LE(snap.interval_submitted, snap.submitted);
  EXPECT_LE(snap.interval_completed, snap.completed);

  // The per-query split: queue + execute ≤ latency (delivery overhead is
  // the slack the validator also allows).
  ASSERT_FALSE(snap.recent.empty());
  for (const auto& record : snap.recent) {
    EXPECT_GE(record.queue_ms, 0.0);
    EXPECT_GE(record.execute_ms, 0.0);
    EXPECT_LE(record.queue_ms + record.execute_ms,
              record.latency_ms + record.latency_ms * 0.05 + 0.5);
  }

  service.stop();
  // The shutdown tick folds the tail: the final window covers everything.
  const auto last = service.snapshot();
  EXPECT_EQ(last.window.total, last.latency.total);
}

TEST(LiveTelemetry, PublisherOffKeepsWindowedFieldsEmpty) {
  const auto g = erdos_renyi(400, 2500, 3);
  const GsIndex index(g);
  ServiceOptions options;
  options.num_threads = 1;
  QueryService service(index, options);  // stats_interval stays 0
  ASSERT_NE(service.submit(make_params(2, 3)).get().run, nullptr);
  const auto snap = service.snapshot();
  EXPECT_EQ(snap.publishes, 0u);
  EXPECT_DOUBLE_EQ(snap.window_seconds, 0.0);
  EXPECT_EQ(snap.window.total, 0u);
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
}

TEST(LiveTelemetry, ServiceFlightRecorderTracksLifecycleAndAdmissions) {
  const auto g = erdos_renyi(400, 2500, 9);
  const GsIndex index(g);
  ServiceOptions options;
  options.num_threads = 1;
  options.flight_capacity = 32;
  QueryService service(index, options);
  ASSERT_NE(service.flight(), nullptr);
  ASSERT_NE(service.submit(make_params(2, 2)).get().run, nullptr);
  service.stop();

  const auto snap = service.snapshot();
  EXPECT_GE(snap.flight_recorded, 3u);  // start, admission, stop
  bool saw_start = false, saw_admission = false, saw_stop = false;
  for (const auto& event : service.flight()->events()) {
    const std::string label = event.label;
    if (label == "serve.start") saw_start = true;
    if (label == "serve.admit") saw_admission = true;
    if (label == "serve.stop") saw_stop = true;
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_admission);
  EXPECT_TRUE(saw_stop);

  std::string error;
  EXPECT_TRUE(
      obs::validate_flight_json(service.flight()->dump_json("stop"), &error))
      << error;
}

TEST(LiveTelemetry, ExpositionTextReflectsTheSnapshot) {
  const auto g = erdos_renyi(800, 6000, 13);
  const GsIndex index(g);
  ServiceOptions options;
  options.num_threads = 2;
  options.cache_results = true;
  options.stats_interval = 25ms;
  QueryService service(index, options);
  for (int i = 0; i < 4; ++i)
    ASSERT_NE(service.submit(make_params(2, 3)).get().run, nullptr);

  ServiceSnapshot snap;
  for (int attempt = 0; attempt < 200; ++attempt) {
    snap = service.snapshot();
    if (snap.publishes > 0 && snap.window.total >= 1) break;
    std::this_thread::sleep_for(10ms);
  }
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
  expect_line("# TYPE ppscan_serve_window_latency_ms histogram");
  expect_line("ppscan_serve_window_seconds");
  expect_line("ppscan_serve_publishes_total " +
              std::to_string(snap.publishes));
  // Every HELP has a TYPE: the same invariants check_exposition.py holds
  // over the live scrape in CI.
  EXPECT_EQ(std::string::npos, text.find("\n\n"));
}

// --- the adversarial TSan target ----------------------------------------

TEST(LiveTelemetry, ConcurrentSubmittersPollerAndScraperStayConsistent) {
  const auto g = erdos_renyi(1000, 8000, 17);
  const GsIndex index(g);
  ServiceOptions options;
  options.num_threads = 4;
  options.cache_results = true;
  options.stats_interval = 10ms;  // publisher races with everything below
  options.flight_capacity = 64;
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
      EXPECT_LE(snap.window.total, snap.latency.total);
      EXPECT_LE(snap.interval_completed, snap.completed);
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
  EXPECT_EQ(snap.window.total, total);  // the shutdown tick folded the tail
  EXPECT_GT(snap.publishes, 0u);
  EXPECT_GE(snap.flight_recorded, total);  // one admission event per query

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
