// Fault containment & overload resilience (docs/resilience.md).
//
// Three layers under test, adversarially where possible:
//   * The Executor's exception firewall — a throwing task body becomes a
//     classified governed trip (AbortReason::Exception) or, ungoverned, the
//     first exception rethrown at the master's barrier; workers survive and
//     the executor stays reusable either way.
//   * The QueryService's per-query firewall, shedding ladder, circuit
//     breaker and degradation ladder — a poisoned query fails alone while
//     concurrent queries keep returning answers bit-identical to a fresh
//     single-threaded GsIndex::query.
//   * The fault-point chaos harness (PPSCAN_FAULTS=ON builds): per-phase
//     injected throws and a probabilistic soak. Fault-armed tests
//     GTEST_SKIP in default builds; everything else always runs.
//
// Runs under TSan and ASan/UBSan in CI (the `serve` label).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "concurrent/executor.hpp"
#include "concurrent/run_governor.hpp"
#include "graph/generators.hpp"
#include "index/gs_index.hpp"
#include "obs/metrics_json.hpp"
#include "serve/query_service.hpp"
#include "serve/retry_policy.hpp"
#include "serve/serving_metrics.hpp"
#include "util/fault_point.hpp"

namespace ppscan {
namespace {

using serve::AdmissionOutcome;
using serve::QueryResponse;
using serve::QueryService;
using serve::ServiceOptions;

std::vector<TaskRange> unit_ranges(VertexId count) {
  std::vector<TaskRange> tasks;
  tasks.reserve(count);
  for (VertexId i = 0; i < count; ++i) tasks.push_back({i, i + 1});
  return tasks;
}

void expect_identical(const ScanResult& got, const ScanResult& want,
                      const ScanParams& params) {
  const std::string label = "eps=" + std::to_string(params.eps.num) + "/" +
                            std::to_string(params.eps.den) +
                            " mu=" + std::to_string(params.mu);
  ASSERT_EQ(got.roles, want.roles) << label;
  ASSERT_EQ(got.core_cluster_id, want.core_cluster_id) << label;
  ASSERT_EQ(got.noncore_memberships, want.noncore_memberships) << label;
}

// ---------------------------------------------------------------------------
// Executor firewall — no fault points needed, the test supplies the throw.
// ---------------------------------------------------------------------------

TEST(ExecutorFirewall, GovernedThrowBecomesClassifiedTrip) {
  Executor executor(3);
  RunGovernor governor;  // ungoverned limits, but installed: trips classify
  executor.install_governor(&governor);
  const auto tasks = unit_ranges(2000);
  std::atomic<int> ran{0};
  executor.run(tasks.data(), tasks.size(), [&](VertexId beg, VertexId) {
    if (beg == 1017) throw std::runtime_error("poisoned task body");
    ran.fetch_add(1);
  });
  executor.install_governor(nullptr);

  const auto info = governor.abort_info();
  EXPECT_EQ(info.reason, AbortReason::Exception);
  EXPECT_NE(info.detail.find("poisoned task body"), std::string::npos)
      << info.detail;
  const auto stats = executor.stats();
  EXPECT_EQ(stats.tasks_failed, 1u);
  // The trip cancels the run cooperatively: remaining ranges drain as
  // skipped, and the firewall never double-counts the thrower as executed.
  EXPECT_EQ(stats.tasks_executed + stats.tasks_skipped + stats.tasks_failed,
            tasks.size());

  // The executor is reusable after a contained failure.
  std::atomic<int> after{0};
  executor.run(tasks.data(), 100, [&](VertexId, VertexId) {
    after.fetch_add(1);
  });
  EXPECT_EQ(after.load(), 100);
}

TEST(ExecutorFirewall, UngovernedThrowRethrownAtBarrierAfterSiblings) {
  Executor executor(3);
  constexpr VertexId n = 2000;
  const auto tasks = unit_ranges(n);
  std::vector<std::atomic<int>> visited(n);
  for (auto& v : visited) v.store(0);
  try {
    executor.run(tasks.data(), tasks.size(), [&](VertexId beg, VertexId) {
      if (beg == 421) throw std::runtime_error("ungoverned poison");
      visited[beg].fetch_add(1);
    });
    FAIL() << "wait_idle did not rethrow the task exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "ungoverned poison");
  }
  // No governor, so nothing cancels the phase: every sibling ran to
  // completion before the barrier rethrew.
  for (VertexId u = 0; u < n; ++u) {
    if (u == 421) continue;
    ASSERT_EQ(visited[u].load(), 1) << "vertex " << u;
  }
  EXPECT_EQ(executor.stats().tasks_failed, 1u);

  // Reusable: the failure flag was consumed by the rethrow.
  std::atomic<int> after{0};
  executor.run(tasks.data(), 50, [&](VertexId, VertexId) {
    after.fetch_add(1);
  });
  EXPECT_EQ(after.load(), 50);
}

TEST(ExecutorFirewall, FirstUngovernedFailureWinsWhenSeveralThrow) {
  Executor executor(4);
  const auto tasks = unit_ranges(3000);
  EXPECT_THROW(
      executor.run(tasks.data(), tasks.size(),
                   [&](VertexId beg, VertexId) {
                     if (beg % 500 == 0) {
                       throw std::runtime_error("multi poison");
                     }
                   }),
      std::runtime_error);
  EXPECT_EQ(executor.stats().tasks_failed, 6u);  // 0,500,...,2500 all threw
  // Still alive.
  executor.run(tasks.data(), 10, [&](VertexId, VertexId) {});
}

TEST(ExecutorFirewall, NonStdExceptionIsClassifiedToo) {
  Executor executor(2);
  RunGovernor governor;
  executor.install_governor(&governor);
  const auto tasks = unit_ranges(100);
  executor.run(tasks.data(), tasks.size(), [&](VertexId beg, VertexId) {
    if (beg == 7) throw 42;  // not derived from std::exception
  });
  executor.install_governor(nullptr);
  const auto info = governor.abort_info();
  EXPECT_EQ(info.reason, AbortReason::Exception);
  EXPECT_NE(info.detail.find("non-std"), std::string::npos) << info.detail;
}

// ---------------------------------------------------------------------------
// QueryService resilience — no fault points needed.
// ---------------------------------------------------------------------------

TEST(QueryServiceResilience, StoppedServiceThrowsTypedRefusal) {
  const auto g = erdos_renyi(400, 3200, 31);
  const GsIndex index(g);
  QueryService service(index, ServiceOptions{});
  service.stop();
  const auto params = ScanParams::make("0.5", 2);
  EXPECT_THROW(service.submit(params), serve::ServiceStoppedError);
  std::future<QueryResponse> out;
  EXPECT_THROW(service.try_submit(params, RunLimits{}, &out),
               serve::ServiceStoppedError);
  EXPECT_THROW(service.try_submit_ex(params, RunLimits{}, &out),
               serve::ServiceStoppedError);
}

// Regression for the stop() vs futex-parked producer race: a producer
// blocked on backpressure when stop() lands must be woken and given either
// a delivered future or a ServiceStoppedError — never a hang (the ctest
// TIMEOUT converts a regression into a failure).
TEST(QueryServiceResilience, ParkedProducerIsWokenByStop) {
  const auto g = erdos_renyi(4000, 48000, 37);
  const GsIndex index(g);
  ServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 2;
  options.cache_results = false;
  QueryService service(index, options);

  std::atomic<int> delivered{0};
  std::atomic<int> refused{0};
  std::thread producer([&] {
    std::vector<std::future<QueryResponse>> futures;
    for (int i = 0; i < 64; ++i) {
      ScanParams p;
      p.eps = EpsRational{static_cast<std::uint64_t>(i % 19) + 1, 20};
      p.mu = 2;
      try {
        futures.push_back(service.submit(p));  // parks once the queue fills
      } catch (const serve::ServiceStoppedError&) {
        refused.fetch_add(1);
      }
    }
    for (auto& f : futures) {
      const QueryResponse r = f.get();  // every admitted future resolves
      if (r.run != nullptr) delivered.fetch_add(1);
    }
  });
  // Let the producer hit backpressure (slow multi-ms queries behind a
  // 2-slot queue), then stop underneath it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.stop();
  producer.join();
  EXPECT_GT(delivered.load(), 0);
  EXPECT_EQ(delivered.load() + refused.load(), 64);
  const auto snap = service.snapshot();
  EXPECT_EQ(snap.completed, static_cast<std::uint64_t>(delivered.load()));
}

TEST(QueryServiceResilience, OverloadShedsWithRetryAfterHint) {
  // At ε ≤ 0.02 every edge of this graph is similar, so each query answers
  // one cluster of all 64k vertices and walks all 2M arcs on the one
  // worker: the overload is real by construction.
  const auto g = erdos_renyi(64000, 1000000, 41);
  const GsIndex index(g);
  ServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 16;  // bounds the admitted backlog drained below
  options.cache_results = false;
  options.shed_target_delay = std::chrono::milliseconds(1);
  const auto params_of = [](int i) {
    ScanParams p;
    p.eps = EpsRational{static_cast<std::uint64_t>(i % 2) + 1, 100};
    p.mu = 2;
    return p;
  };
  // Precondition: the shed below is guaranteed only while one query costs
  // at least 5x the shed target. A faster index that breaks this fails
  // here, loudly, instead of making the assertions below flaky.
  {
    GsIndex::QueryScratch scratch;
    for (int i = 0; i < 6; ++i) {
      const auto start = std::chrono::steady_clock::now();
      const ScanRun run = index.query(params_of(i), scratch, nullptr);
      const auto cost = std::chrono::steady_clock::now() - start;
      ASSERT_EQ(run.result.num_cores(), g.num_vertices());
      ASSERT_GE(cost, 5 * options.shed_target_delay)
          << "query " << i << " is too cheap to overload one worker";
    }
  }
  obs::TraceCollector trace(options.num_threads);
  options.trace = &trace;
  QueryService service(index, options);

  // Feed faster than one worker can drain, pausing briefly every few
  // submissions so the worker gets to dequeue *something* and publish
  // the observed sojourn — the signal the CoDel gate sheds on. (A pure
  // burst would hit queue-full before the first sojourn update.) The
  // first shed needs the worker to dequeue a second request, so the feed
  // runs until the sheds arrive, however slow the build makes a query,
  // with 30 s as a backstop.
  std::vector<std::future<QueryResponse>> admitted;
  std::uint64_t overloaded = 0;
  std::chrono::milliseconds max_hint{0};
  const auto feed_end =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (int i = 0;
       overloaded < 8 && std::chrono::steady_clock::now() < feed_end; ++i) {
    std::future<QueryResponse> f;
    const auto result = service.try_submit_ex(params_of(i), RunLimits{}, &f);
    if (result.admitted()) {
      admitted.push_back(std::move(f));
    } else if (result.outcome == AdmissionOutcome::Overloaded) {
      overloaded += 1;
      max_hint = std::max(max_hint, result.retry_after);
    }
    if (i % 4 == 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // A single worker running queries of 5 ms or more cannot keep the
  // observed sojourn under 1 ms against a sub-millisecond-cadence producer.
  EXPECT_GE(overloaded, 1u);
  EXPECT_GE(max_hint.count(), 1);  // the hint reflects observed congestion
  for (auto& f : admitted) {
    ASSERT_NE(f.get().run, nullptr);  // accepted work is still answered
  }
  const auto snap = service.snapshot();
  EXPECT_GE(snap.shed_overload, overloaded);
  EXPECT_GE(snap.retries_advised, overloaded);
  EXPECT_GE(snap.rejected, snap.shed_overload);  // total stays the superset

  // Every shed is also a trace event (stop() above is the happens-before
  // edge snapshot() needs; Marks land in the collector's master slot).
  service.stop();
  std::uint64_t shed_marks = 0;
  for (const auto& e : trace.buffer(trace.master_slot()).snapshot()) {
    if (e.kind == obs::TraceEventKind::Mark &&
        std::string_view(e.name) == "serve.shed.overload") {
      shed_marks += 1;
    }
  }
  if (obs::kTraceEnabled) {
    EXPECT_GE(shed_marks, overloaded);
  }
}

TEST(QueryServiceResilience, DegradationLadderServesNearestCachedRun) {
  const auto g = erdos_renyi(1200, 9600, 43);
  const GsIndex index(g);
  ServiceOptions options;
  options.num_threads = 2;
  options.cache_results = true;
  options.degraded_serving = true;
  obs::TraceCollector trace(options.num_threads);
  options.trace = &trace;
  QueryService service(index, options);

  // Warm the cache with a completed neighbor.
  const auto warm_params = ScanParams::make("0.5", 3);
  const QueryResponse warm = service.submit(warm_params).get();
  ASSERT_FALSE(warm.run->partial());

  // Doom a nearby query deterministically (the cancel-at-phase test hook
  // trips it mid-run, timing-independent): instead of its classified
  // partial, the ladder serves the nearest cached complete run, flagged.
  RunLimits limits;
  limits.cancel_at_phase = 2;
  const QueryResponse doomed =
      service.submit(ScanParams::make("0.45", 3), limits).get();

  ASSERT_NE(doomed.run, nullptr);
  EXPECT_TRUE(doomed.degraded);
  EXPECT_FALSE(doomed.run->partial());  // stale-but-whole, never partial
  // The served run *is* the cached neighbor (the cache's only entry).
  EXPECT_EQ(doomed.run.get(), warm.run.get());
  // ...while the reason the real answer was unavailable is preserved.
  EXPECT_EQ(doomed.classified_reason, AbortReason::UserCancelled);
  const auto snap = service.snapshot();
  EXPECT_GE(snap.degraded_hits, 1u);
  bool recorded_degraded = false;
  for (const auto& r : snap.recent) recorded_degraded |= r.degraded;
  EXPECT_TRUE(recorded_degraded);

  // Degradation is a substitution, not an answer: the doomed parameters
  // were never cached, so asking again (un-doomed) runs for real.
  const QueryResponse real = service.submit(ScanParams::make("0.45", 3)).get();
  EXPECT_FALSE(real.cache_hit);
  EXPECT_FALSE(real.degraded);
  expect_identical(real.run->result,
                   index.query(ScanParams::make("0.45", 3)).result,
                   ScanParams::make("0.45", 3));

  // The substitution also left a trace event (read after stop() joins the
  // workers — the snapshot's required happens-before edge).
  service.stop();
  bool degraded_mark = false;
  for (const auto& e : trace.buffer(trace.master_slot()).snapshot()) {
    if (e.kind == obs::TraceEventKind::Mark &&
        std::string_view(e.name) == "serve.degraded") {
      degraded_mark = true;
      EXPECT_EQ(e.arg, doomed.id);
    }
  }
  if (obs::kTraceEnabled) {
    EXPECT_TRUE(degraded_mark);
  }
}

TEST(QueryServiceResilience, ServingMetricsRowCarriesResilienceBlock) {
  const auto g = erdos_renyi(600, 4800, 47);
  const GsIndex index(g);
  QueryService service(index, ServiceOptions{});
  service.submit(ScanParams::make("0.5", 2)).get();
  service.submit(ScanParams::make("0.5", 2)).get();  // cache hit
  service.stop();

  const auto report = serve::make_serving_report(
      "test_resilience", "er600", "0.5", g, service.snapshot(), 0.1);
  ASSERT_TRUE(report.has_resilience);
  EXPECT_EQ(report.resilience.breaker_state, "closed");
  const auto row = obs::metrics_to_json(report);
  EXPECT_EQ(obs::validate_metrics_json(row), "");
  // Round-trip keeps the block.
  const auto back = obs::metrics_from_json(row);
  EXPECT_TRUE(back.has_resilience);
  EXPECT_EQ(back.resilience.exceptions, report.resilience.exceptions);
  EXPECT_EQ(back.queries.size(), report.queries.size());
}

TEST(RetryPolicy, BackoffGrowsHonorsHintAndCaps) {
  serve::RetryOptions opts;
  opts.base_delay = std::chrono::milliseconds(5);
  opts.multiplier = 2.0;
  opts.max_delay = std::chrono::milliseconds(40);
  opts.jitter = 0.0;  // exact arithmetic for this test
  opts.max_attempts = 4;
  serve::RetryPolicy policy(opts);

  EXPECT_TRUE(policy.should_retry());
  EXPECT_EQ(policy.next_delay().count(), 5);
  EXPECT_EQ(policy.next_delay().count(), 10);
  // The service hint dominates a smaller backoff...
  EXPECT_EQ(policy.next_delay(std::chrono::milliseconds(25)).count(), 25);
  // ...and the cap dominates everything.
  EXPECT_EQ(policy.next_delay(std::chrono::milliseconds(500)).count(), 40);
  EXPECT_FALSE(policy.should_retry());  // 4 attempts spent
  policy.reset();
  EXPECT_TRUE(policy.should_retry());
  EXPECT_EQ(policy.next_delay().count(), 5);  // ladder restarted
}

TEST(RetryPolicy, JitterStaysInsideTheConfiguredBand) {
  serve::RetryOptions opts;
  opts.base_delay = std::chrono::milliseconds(100);
  opts.multiplier = 1.0;  // constant base so the band is easy to check
  opts.max_delay = std::chrono::milliseconds(1000);
  opts.jitter = 0.5;
  opts.max_attempts = 0;  // unlimited
  serve::RetryPolicy a(opts, /*seed=*/7);
  serve::RetryPolicy b(opts, /*seed=*/7);
  bool varied = false;
  std::int64_t previous = -1;
  for (int i = 0; i < 32; ++i) {
    const auto d = a.next_delay().count();
    EXPECT_GE(d, 50);
    EXPECT_LE(d, 150);
    EXPECT_EQ(d, b.next_delay().count());  // same seed, same sequence
    varied |= (previous >= 0 && d != previous);
    previous = d;
  }
  EXPECT_TRUE(varied);  // jitter actually jitters
}

// ---------------------------------------------------------------------------
// Fault-point chaos — PPSCAN_FAULTS=ON builds only.
// ---------------------------------------------------------------------------

class FaultArmed : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::compiled_in()) {
      GTEST_SKIP() << "fault points compiled out (PPSCAN_FAULTS=OFF)";
    }
    fault::reset();
  }
  void TearDown() override {
    if (fault::compiled_in()) fault::reset();
  }
};

// The tentpole containment property, per fault site: with exactly one
// injected throw armed, exactly one of ~120 concurrent queries fails
// (classified AbortReason::Exception, detail naming the fault point) and
// every other query returns a result bit-identical to a fresh
// single-threaded GsIndex::query. The service keeps serving afterward.
TEST_F(FaultArmed, OnePoisonedQueryFailsAloneInEachPhase) {
  const auto g = erdos_renyi(1200, 9600, 53);
  const GsIndex index(g);
  std::map<std::pair<std::uint64_t, std::uint32_t>, ScanResult> expected;
  for (std::uint64_t num = 1; num <= 6; ++num) {
    ScanParams p;
    p.eps = EpsRational{num, 10};
    p.mu = 2;
    expected[{num, 2}] = index.query(p).result;
  }

  const char* kSites[] = {"serve.dispatcher", "serve.execute",
                          "index.qcoretest", "index.qcorecluster"};
  for (const char* site : kSites) {
    SCOPED_TRACE(site);
    fault::reset();
    fault::Spec spec;
    spec.max_fires = 1;
    fault::arm(site, spec);

    ServiceOptions options;
    options.num_threads = 4;
    options.cache_results = false;
    QueryService service(index, options);

    constexpr int kQueries = 120;
    std::vector<ScanParams> params;
    std::vector<std::future<QueryResponse>> futures;
    for (int i = 0; i < kQueries; ++i) {
      ScanParams p;
      p.eps = EpsRational{static_cast<std::uint64_t>(i % 6) + 1, 10};
      p.mu = 2;
      params.push_back(p);
      futures.push_back(service.submit(p));
    }

    int exceptions = 0;
    for (int i = 0; i < kQueries; ++i) {
      const QueryResponse r = futures[i].get();
      ASSERT_NE(r.run, nullptr);
      if (r.run->stats.abort_reason == AbortReason::Exception) {
        exceptions += 1;
        EXPECT_NE(r.run->stats.abort_detail.find("fault-point"),
                  std::string::npos)
            << r.run->stats.abort_detail;
        continue;
      }
      ASSERT_EQ(r.run->stats.abort_reason, AbortReason::None);
      expect_identical(r.run->result,
                       expected.at({params[i].eps.num, params[i].mu}),
                       params[i]);
    }
    EXPECT_EQ(exceptions, 1);
    EXPECT_EQ(fault::fire_count(site), 1u);
    EXPECT_EQ(service.snapshot().exceptions, 1u);

    // Still serving, and bit-identically so.
    const auto after = service.submit(params[0]).get();
    ASSERT_EQ(after.run->stats.abort_reason, AbortReason::None);
    expect_identical(after.run->result,
                     expected.at({params[0].eps.num, params[0].mu}),
                     params[0]);
  }
}

TEST_F(FaultArmed, BreakerOpensOnConsecutiveFailuresAndProbesClosed) {
  const auto g = erdos_renyi(800, 6400, 59);
  const GsIndex index(g);
  ServiceOptions options;
  options.num_threads = 2;
  options.cache_results = false;
  options.breaker_failure_threshold = 3;
  options.breaker_cooldown = std::chrono::milliseconds(50);
  QueryService service(index, options);

  fault::arm("serve.execute", fault::Spec{});  // every execution throws

  // Three consecutive classified failures trip the breaker.
  for (int i = 0; i < 3; ++i) {
    std::future<QueryResponse> f;
    const auto result = service.try_submit_ex(
        ScanParams::make("0.5", 2 + i), RunLimits{}, &f);
    ASSERT_TRUE(result.admitted()) << "attempt " << i;
    const QueryResponse r = f.get();
    EXPECT_EQ(r.classified_reason, AbortReason::Exception);
  }
  {
    std::future<QueryResponse> f;
    const auto refused =
        service.try_submit_ex(ScanParams::make("0.5", 7), RunLimits{}, &f);
    EXPECT_EQ(refused.outcome, AdmissionOutcome::BreakerOpen);
    EXPECT_GE(refused.retry_after.count(), 1);
  }
  {
    const auto snap = service.snapshot();
    EXPECT_EQ(snap.breaker_state, "open");
    EXPECT_GE(snap.breaker_transitions, 1u);
    EXPECT_GE(snap.shed_breaker, 1u);
    EXPECT_EQ(snap.exceptions, 3u);
  }

  // Heal the fault, wait out the cooldown: the half-open probe succeeds
  // and the breaker closes.
  fault::reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  std::future<QueryResponse> probe;
  const auto admitted =
      service.try_submit_ex(ScanParams::make("0.5", 9), RunLimits{}, &probe);
  ASSERT_TRUE(admitted.admitted());  // the probe slot
  const QueryResponse healed = probe.get();
  EXPECT_EQ(healed.classified_reason, AbortReason::None);
  EXPECT_EQ(service.snapshot().breaker_state, "closed");

  // Back to normal service.
  std::future<QueryResponse> f;
  EXPECT_TRUE(
      service.try_submit_ex(ScanParams::make("0.5", 11), RunLimits{}, &f)
          .admitted());
  ASSERT_NE(f.get().run, nullptr);
}

// Regression: a half-open probe can be answered by execute()'s *second*
// cache probe (another query cached the same (ε, µ) between the probe's
// admission and its execution). The cache-hit delivery used to skip
// breaker bookkeeping entirely, leaving breaker_probe_in_flight_ set — the
// breaker wedged half-open forever and every later non-cached admission
// was refused BreakerOpen with no probe left to settle it.
TEST_F(FaultArmed, BreakerProbeAnsweredFromCacheDoesNotWedgeHalfOpen) {
  const auto g = erdos_renyi(400, 3200, 67);
  const GsIndex index(g);
  ServiceOptions options;
  options.num_threads = 1;  // the one worker serializes: warm, then probe
  options.cache_results = true;
  options.breaker_failure_threshold = 1;
  options.breaker_cooldown = std::chrono::milliseconds(25);
  QueryService service(index, options);

  // One classified failure opens the breaker.
  {
    fault::Spec spec;
    spec.max_fires = 1;
    fault::arm("serve.execute", spec);
    std::future<QueryResponse> f;
    ASSERT_TRUE(
        service.try_submit_ex(ScanParams::make("0.5", 2), RunLimits{}, &f)
            .admitted());
    EXPECT_EQ(f.get().classified_reason, AbortReason::Exception);
    EXPECT_EQ(service.snapshot().breaker_state, "open");
  }
  fault::reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Occupy the worker with a slow *blocking* query (submit() bypasses
  // the breaker by contract) for a fresh (ε, µ)...
  {
    fault::Spec slow;
    slow.action = fault::Action::Sleep;
    slow.sleep_ms = 500;
    slow.max_fires = 1;
    fault::arm("serve.execute", slow);
  }
  auto warm = service.submit(ScanParams::make("0.5", 3));
  // ...and admit the same parameters non-blocking while it runs. This
  // admission misses the cache (the warm run has not finished yet), so it
  // passes the gate and becomes the half-open probe — but by the time the
  // worker executes it the warm run has been cached, so the probe
  // resolves as a cache hit.
  std::future<QueryResponse> probe;
  ASSERT_TRUE(
      service.try_submit_ex(ScanParams::make("0.5", 3), RunLimits{}, &probe)
          .admitted());
  EXPECT_EQ(warm.get().classified_reason, AbortReason::None);
  const QueryResponse probe_r = probe.get();
  ASSERT_NE(probe_r.run, nullptr);
  EXPECT_TRUE(probe_r.cache_hit);  // the scenario under test actually ran

  // The probe slot must have been released: a fresh, uncached non-blocking
  // admission is the *new* probe (still half-open), not a BreakerOpen
  // refusal; its success closes the breaker.
  std::future<QueryResponse> next;
  const auto result =
      service.try_submit_ex(ScanParams::make("0.5", 4), RunLimits{}, &next);
  EXPECT_TRUE(result.admitted()) << to_string(result.outcome);
  EXPECT_EQ(next.get().classified_reason, AbortReason::None);
  EXPECT_EQ(service.snapshot().breaker_state, "closed");
}

// Head-of-line regression: one slow query must not hold up the queries
// admitted behind it while another worker is free. With a batch barrier B
// and C would each wait in the queue until A's 300 ms sleep ends.
TEST_F(FaultArmed, SlowQueryDoesNotBlockTheQueueBehindIt) {
  const auto g = erdos_renyi(800, 6400, 71);
  const GsIndex index(g);
  ServiceOptions options;
  options.num_threads = 2;
  options.cache_results = false;
  QueryService service(index, options);

  fault::Spec slow;
  slow.action = fault::Action::Sleep;
  slow.sleep_ms = 300;
  slow.max_fires = 1;
  fault::arm("serve.execute", slow);
  auto a = service.submit(ScanParams::make("0.5", 2));
  // A is asleep inside execute() once its fault has fired.
  while (fault::fire_count("serve.execute") == 0) std::this_thread::yield();

  std::vector<QueryResponse> behind;
  std::thread client([&] {
    behind.push_back(service.submit(ScanParams::make("0.4", 3)).get());
    behind.push_back(service.submit(ScanParams::make("0.6", 2)).get());
  });
  client.join();
  // B and C really overlapped A's sleep.
  EXPECT_EQ(a.wait_for(std::chrono::seconds(0)), std::future_status::timeout);
  for (const QueryResponse& r : behind) {
    EXPECT_EQ(r.classified_reason, AbortReason::None);
    EXPECT_LT(r.queue_seconds, 0.050);
    EXPECT_LT(r.latency_seconds, 0.150);
  }
  EXPECT_EQ(a.get().classified_reason, AbortReason::None);
}

// Probabilistic soak: several sites armed at low probability (from
// PPSCAN_FAULT when the chaos lane sets it, else a built-in mix), many
// clients, every future must resolve and the service must stay coherent.
TEST_F(FaultArmed, ChaosSoakEveryFutureResolves) {
  // reset() in SetUp marked the env consumed, so re-arm explicitly; honor
  // the lane's spec when present so CI can steer the mix.
  const char* env = std::getenv("PPSCAN_FAULT");
  const std::string spec =
      (env != nullptr && env[0] != '\0')
          ? env
          : "serve.execute:throw:p=0.10;index.qcoretest:throw:p=0.05;"
            "index.qcorecluster:bad-alloc:p=0.05;serve.dispatcher:sleep-ms=1:"
            "p=0.02";
  ASSERT_EQ(fault::arm_from_string(spec), "") << spec;

  const auto g = erdos_renyi(1000, 8000, 61);
  const GsIndex index(g);
  ServiceOptions options;
  options.num_threads = 4;
  options.cache_results = false;
  QueryService service(index, options);

  constexpr int kClients = 4;
  constexpr int kPerClient = 40;
  std::atomic<int> delivered{0};
  std::atomic<int> refused{0};
  std::atomic<int> exceptions{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        ScanParams p;
        p.eps = EpsRational{static_cast<std::uint64_t>((c + i) % 8) + 1, 10};
        p.mu = 2;
        QueryResponse r;
        try {
          r = service.submit(p).get();
        } catch (...) {
          // A lane-supplied PPSCAN_FAULT may arm serve.admission, which
          // fires in the *client's* stack — a refusal, not a delivery.
          refused.fetch_add(1);
          continue;
        }
        if (r.run == nullptr) continue;
        delivered.fetch_add(1);
        if (r.run->stats.abort_reason == AbortReason::Exception) {
          exceptions.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(delivered.load() + refused.load(), kClients * kPerClient);
  const auto snap = service.snapshot();
  EXPECT_EQ(snap.completed, static_cast<std::uint64_t>(delivered.load()));
  EXPECT_EQ(snap.exceptions, static_cast<std::uint64_t>(exceptions.load()));
  // The soak only proves something if chaos actually happened; with the
  // built-in mix (p=0.10 over 160 queries) a zero is astronomically
  // unlikely, and fired_sites() pinpoints a dead registry immediately.
  EXPECT_FALSE(fault::fired_sites().empty());

  // Recovery: disarm and verify bit-identical service.
  fault::reset();
  const auto p = ScanParams::make("0.5", 2);
  const QueryResponse clean = service.submit(p).get();
  ASSERT_EQ(clean.run->stats.abort_reason, AbortReason::None);
  expect_identical(clean.run->result, index.query(p).result, p);
}

}  // namespace
}  // namespace ppscan
