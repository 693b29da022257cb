// Concurrency and correctness tests for serve::QueryService: N client
// threads hammering one shared immutable index must each get answers
// bit-identical to a fresh single-threaded GsIndex::query — the serving
// layer adds worker threads, pooled scratch and caching but must never
// change a result. Runs under TSan in CI (the `serve` label), so the admission
// queue, its condition variables and the stats mutex are exercised
// adversarially.
#include "serve/query_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "index/gs_index.hpp"
#include "obs/trace.hpp"

namespace ppscan {
namespace {

using serve::QueryResponse;
using serve::QueryService;
using serve::ServiceOptions;

/// Bit-identical, not merely equivalent: the service must return the very
/// vectors a fresh single-threaded query produces, cluster-id convention
/// included.
void expect_identical(const ScanResult& got, const ScanResult& want,
                      const ScanParams& params) {
  const std::string label = "eps=" + std::to_string(params.eps.num) + "/" +
                            std::to_string(params.eps.den) +
                            " mu=" + std::to_string(params.mu);
  ASSERT_EQ(got.roles, want.roles) << label;
  ASSERT_EQ(got.core_cluster_id, want.core_cluster_id) << label;
  ASSERT_EQ(got.noncore_memberships, want.noncore_memberships) << label;
}

std::vector<ScanParams> mixed_workload() {
  std::vector<ScanParams> grid;
  for (const std::uint64_t num : {1, 2, 3, 4}) {
    for (const std::uint32_t mu : {2u, 3u, 5u}) {
      ScanParams p;
      p.eps = EpsRational{num, 5};
      p.mu = mu;
      grid.push_back(p);
    }
  }
  return grid;
}

TEST(QueryService, ConcurrentMixedQueriesMatchSingleThreadedQuery) {
  const auto g = erdos_renyi(1500, 12000, 7);
  const GsIndex index(g);
  const auto grid = mixed_workload();

  // Ground truth from the ungoverned single-caller path, computed before
  // any concurrency exists.
  std::map<std::pair<std::uint64_t, std::uint32_t>, ScanResult> expected;
  for (const auto& params : grid) {
    expected[{params.eps.num, params.mu}] = index.query(params).result;
  }

  ServiceOptions options;
  options.num_threads = 4;
  options.cache_results = false;  // every query runs, concurrently
  QueryService service(index, options);

  constexpr int kClients = 4;
  constexpr int kRounds = 3;  // each client sweeps the grid thrice
  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        // Stagger the sweep so concurrent workers mix parameters.
        for (std::size_t i = 0; i < grid.size(); ++i) {
          const auto& params = grid[(i + static_cast<std::size_t>(c)) %
                                    grid.size()];
          const QueryResponse response = service.submit(params).get();
          if (response.run == nullptr ||
              response.run->stats.abort_reason != AbortReason::None) {
            failures[c] = "ungoverned query did not complete";
            return;
          }
          const auto& want = expected.at({params.eps.num, params.mu});
          const auto& got = response.run->result;
          if (got.roles != want.roles ||
              got.core_cluster_id != want.core_cluster_id ||
              got.noncore_memberships != want.noncore_memberships) {
            failures[c] = "answer diverged from single-threaded query";
            return;
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(failures[c], "") << "client " << c;

  const auto snap = service.snapshot();
  const std::uint64_t total = kClients * kRounds * grid.size();
  EXPECT_EQ(snap.submitted, total);
  EXPECT_EQ(snap.completed, total);
  EXPECT_EQ(snap.cache_hits, 0u);
  EXPECT_EQ(snap.partial, 0u);
  EXPECT_EQ(snap.latency.total, total);
  // The aggregated funnel keeps the library invariant.
  EXPECT_EQ(snap.counters.arcs_touched,
            snap.counters.arcs_predicate_pruned +
                snap.counters.sims_computed + snap.counters.sims_reused);
  EXPECT_GT(snap.counters.arcs_touched, 0u);
  EXPECT_EQ(snap.counters.sims_computed, 0u);  // index queries never intersect
}

TEST(QueryService, CacheHitsAliasTheStoredRunAndAreCounted) {
  const auto g = erdos_renyi(800, 6400, 13);
  const GsIndex index(g);
  ServiceOptions options;
  options.num_threads = 2;
  QueryService service(index, options);

  const auto params = ScanParams::make("0.4", 3);
  const QueryResponse first = service.submit(params).get();
  const QueryResponse second = service.submit(params).get();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  // A hit aliases the memoized run rather than copying or recomputing it.
  EXPECT_EQ(first.run.get(), second.run.get());
  EXPECT_EQ(second.execute_seconds, 0.0);

  const auto snap = service.snapshot();
  EXPECT_EQ(snap.cache_hits, 1u);
  ASSERT_EQ(snap.recent.size(), 2u);
  // The ring carries precomputed result-shape fields, identical across the
  // miss and the hit.
  EXPECT_EQ(snap.recent[0].num_clusters, snap.recent[1].num_clusters);
  EXPECT_EQ(snap.recent[0].num_cores, snap.recent[1].num_cores);
  EXPECT_EQ(snap.recent[1].cache_hit, true);
  EXPECT_EQ(snap.recent[0].eps, "2/5");
}

TEST(QueryService, CancelAtPhaseReturnsClassifiedPartial) {
  const auto g = erdos_renyi(600, 4800, 17);
  const GsIndex index(g);
  // Second input: the cache already holds a complete run for a
  // neighbouring (ε, µ). A doomed query still gets its own partial, never
  // that neighbour — every answer is for the (ε, µ) that was asked.
  for (const bool warm_neighbour : {false, true}) {
    SCOPED_TRACE(warm_neighbour ? "neighbour cached" : "cold cache");
    ServiceOptions options;
    options.num_threads = 2;
    options.cache_results = true;
    QueryService service(index, options);

    std::shared_ptr<const ScanRun> neighbour;
    if (warm_neighbour) {
      neighbour = service.submit(ScanParams::make("0.35", 2)).get().run;
      ASSERT_NE(neighbour, nullptr);
      ASSERT_FALSE(neighbour->partial());
    }

    const auto params = ScanParams::make("0.3", 2);
    RunLimits limits;
    limits.cancel_at_phase = 2;  // QCoreTest completes, QCoreCluster never
    const QueryResponse partial = service.submit(params, limits).get();
    ASSERT_NE(partial.run, nullptr);
    EXPECT_NE(partial.run, neighbour);
    EXPECT_FALSE(partial.cache_hit);
    EXPECT_TRUE(partial.run->partial());
    EXPECT_EQ(partial.run->stats.abort_reason, AbortReason::UserCancelled);
    EXPECT_EQ(partial.run->stats.abort_phase, "QCoreCluster");
    EXPECT_EQ(partial.run->stats.phases_completed, 1u);
    // The decided portion is final: every role classified, no clustering
    // yet.
    for (const Role role : partial.run->result.roles) {
      EXPECT_NE(role, Role::Unknown);
    }
    EXPECT_TRUE(partial.run->result.noncore_memberships.empty());
    {
      const auto snap = service.snapshot();
      ASSERT_FALSE(snap.recent.empty());
      EXPECT_EQ(snap.recent.back().eps, "3/10");
      EXPECT_EQ(snap.recent.back().abort_reason, AbortReason::UserCancelled);
    }

    // Partials are never memoized and the pooled scratch is reusable: the
    // same parameters now run to completion and match a fresh query.
    const QueryResponse full = service.submit(params).get();
    ASSERT_NE(full.run, nullptr);
    EXPECT_FALSE(full.cache_hit);
    EXPECT_FALSE(full.run->partial());
    expect_identical(full.run->result, index.query(params).result, params);

    const auto snap = service.snapshot();
    EXPECT_EQ(snap.partial, 1u);
  }
}

TEST(QueryService, DeadlinedQueriesReturnClassifiedPartials) {
  // The 32 queries queued ahead of the deadlined one all run at ε = 0.1,
  // where each answers one large cluster of this graph, so the queue ahead
  // outlasts the 1 ms budget by construction (the deadline counts from
  // submit); the trip lands either at admission or mid-run, both
  // classified DeadlineExpired.
  const auto g = erdos_renyi(4000, 48000, 11);
  const GsIndex index(g);
  ServiceOptions options;
  options.num_threads = 1;
  options.cache_results = false;
  constexpr int kQueued = 32;
  ScanParams queued;
  queued.eps = EpsRational{1, 10};
  queued.mu = 2;
  RunLimits limits;
  limits.deadline = std::chrono::milliseconds(1);
  // Precondition: the partial below is guaranteed only while the queue
  // ahead costs at least 5x the budget. A faster index that breaks this
  // fails here, loudly, instead of making the assertions below flaky.
  {
    GsIndex::QueryScratch scratch;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kQueued; ++i) {
      const ScanRun run = index.query(queued, scratch, nullptr);
      ASSERT_FALSE(run.partial());
    }
    const auto cost = std::chrono::steady_clock::now() - start;
    ASSERT_GE(cost, 5 * limits.deadline)
        << "the queued queries are too cheap to spend the budget";
  }
  QueryService service(index, options);

  std::vector<std::future<QueryResponse>> warm;
  for (int i = 0; i < kQueued; ++i) warm.push_back(service.submit(queued));
  auto deadlined = service.submit(ScanParams::make("0.5", 3), limits);

  for (auto& f : warm) {
    const QueryResponse r = f.get();
    ASSERT_NE(r.run, nullptr);
    EXPECT_FALSE(r.run->partial());
  }
  const QueryResponse r = deadlined.get();
  ASSERT_NE(r.run, nullptr);
  EXPECT_TRUE(r.run->partial());
  EXPECT_EQ(r.run->stats.abort_reason, AbortReason::DeadlineExpired);
  EXPECT_FALSE(r.run->stats.abort_phase.empty());
  // A partial is still a classified result over the whole vertex set.
  EXPECT_EQ(r.run->result.roles.size(), g.num_vertices());
  EXPECT_EQ(r.run->result.core_cluster_id.size(), g.num_vertices());
  EXPECT_GE(r.latency_seconds * 1e3, 1.0);  // the budget was truly spent

  const auto snap = service.snapshot();
  EXPECT_GE(snap.partial, 1u);
}

TEST(QueryService, TrySubmitShedsLoadWhenSaturated) {
  const auto g = erdos_renyi(4000, 48000, 19);
  const GsIndex index(g);
  ServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 2;
  options.cache_results = false;
  QueryService service(index, options);

  std::vector<std::future<QueryResponse>> admitted;
  bool saw_rejection = false;
  for (int i = 0; i < 5000 && !saw_rejection; ++i) {
    ScanParams p;
    p.eps = EpsRational{static_cast<std::uint64_t>(i % 99) + 1, 100};
    p.mu = 2;
    std::future<QueryResponse> f;
    if (service.try_submit(p, RunLimits{}, &f)) {
      admitted.push_back(std::move(f));
    } else {
      saw_rejection = true;
    }
  }
  // A 2-slot queue behind a single worker running multi-ms queries cannot
  // absorb a microsecond-cadence producer.
  EXPECT_TRUE(saw_rejection);
  // Every admitted request is still answered.
  for (auto& f : admitted) {
    const QueryResponse r = f.get();
    ASSERT_NE(r.run, nullptr);
  }
  const auto snap = service.snapshot();
  EXPECT_GE(snap.rejected, 1u);
  EXPECT_EQ(snap.submitted, admitted.size());
  EXPECT_EQ(snap.completed, admitted.size());
}

TEST(QueryService, StopDrainsQueuedRequestsAndRefusesNewOnes) {
  const auto g = erdos_renyi(1000, 8000, 23);
  const GsIndex index(g);
  ServiceOptions options;
  options.num_threads = 2;
  options.cache_results = false;
  QueryService service(index, options);

  std::vector<std::future<QueryResponse>> pending;
  for (std::uint64_t i = 0; i < 16; ++i) {
    ScanParams p;
    p.eps = EpsRational{(i % 9) + 1, 10};
    p.mu = 2;
    pending.push_back(service.submit(p));
  }
  service.stop();
  // Lossless shutdown: everything that reached the queue is answered.
  for (auto& f : pending) {
    const QueryResponse r = f.get();
    ASSERT_NE(r.run, nullptr);
    EXPECT_FALSE(r.run->partial());
  }
  EXPECT_THROW(service.submit(ScanParams::make("0.5", 2)),
               serve::ServiceStoppedError);
  service.stop();  // idempotent

  const auto snap = service.snapshot();
  EXPECT_EQ(snap.submitted, 16u);
  EXPECT_EQ(snap.completed, 16u);
}

// The record ring's cluster count skips ScanResult::num_clusters()'s
// canonicalization on complete runs (it counts cores labelled with their
// own id); it must agree with the canonical count on every grid point.
TEST(QueryService, RecordedClusterCountsMatchCanonicalCounts) {
  const auto g = erdos_renyi(1500, 12000, 31);
  const GsIndex index(g);
  ServiceOptions options;
  options.cache_results = false;
  QueryService service(index, options);

  const auto grid = mixed_workload();
  std::map<std::uint64_t, ScanParams> by_id;
  for (const auto& p : grid) {
    const QueryResponse r = service.submit(p).get();
    ASSERT_FALSE(r.run->partial());
    by_id[r.id] = p;
  }
  const auto snap = service.snapshot();
  ASSERT_EQ(snap.recent.size(), grid.size());
  std::size_t with_clusters = 0;
  for (const auto& record : snap.recent) {
    const ScanResult want = index.query(by_id.at(record.id)).result;
    EXPECT_EQ(record.num_clusters, want.num_clusters()) << record.eps;
    EXPECT_EQ(record.num_cores, want.num_cores()) << record.eps;
    if (record.num_clusters > 0) ++with_clusters;
  }
  EXPECT_GT(with_clusters, 0u);  // the grid is not all-noise
}

// A refused request must leave nothing behind: no `serve.query` span that
// never closes, no flight-recorder admission, no gap in the dense ids.
// Admission, counting, tracing and the queue slot share one critical
// section, so a refusal happens before any of them.
TEST(QueryService, RefusedRequestsLeaveNoSpanAdmissionOrIdGap) {
  const auto g = erdos_renyi(4000, 48000, 19);
  const GsIndex index(g);
  obs::TraceCollector trace(1, 1 << 15);
  ServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 2;
  options.cache_results = false;
  options.flight_capacity = 4096;
  options.trace = &trace;
  QueryService service(index, options);

  std::vector<std::future<QueryResponse>> admitted;
  int refused = 0;
  for (int i = 0; i < 5000 && refused < 8; ++i) {
    ScanParams p;
    p.eps = EpsRational{static_cast<std::uint64_t>(i % 99) + 1, 100};
    p.mu = 2;
    std::future<QueryResponse> f;
    if (service.try_submit(p, RunLimits{}, &f)) {
      admitted.push_back(std::move(f));
    } else {
      refused += 1;
    }
  }
  ASSERT_GT(refused, 0);  // the 2-slot queue really saturated
  service.stop();

  const auto snap = service.snapshot();
  ASSERT_EQ(snap.submitted, admitted.size());
  std::vector<std::uint64_t> ids;
  for (auto& f : admitted) ids.push_back(f.get().id);
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);

  std::uint64_t admit_events = 0;
  for (const auto& event : service.flight()->events()) {
    if (std::string_view(event.label) == "serve.admit") admit_events += 1;
  }
  EXPECT_EQ(admit_events, snap.submitted);

  if (obs::kTraceEnabled) {
    std::map<std::uint64_t, int> begins, ends;
    for (const auto& e : trace.buffer(trace.master_slot()).snapshot()) {
      if (std::string_view(e.name) != "serve.query") continue;
      if (e.kind == obs::TraceEventKind::SpanBegin) begins[e.arg] += 1;
      if (e.kind == obs::TraceEventKind::SpanEnd) ends[e.arg] += 1;
    }
    std::uint64_t total_begins = 0;
    for (const auto& [id, count] : begins) {
      EXPECT_EQ(count, 1) << "span " << id;
      EXPECT_EQ(ends[id], 1) << "span " << id << " never closed";
      total_begins += static_cast<std::uint64_t>(count);
    }
    EXPECT_EQ(ends.size(), begins.size());
    EXPECT_EQ(total_begins, snap.submitted);
  }
}

TEST(QueryService, RejectsAZeroQueueCapacity) {
  const auto g = erdos_renyi(300, 1200, 3);
  const GsIndex index(g);
  ServiceOptions options;
  options.queue_capacity = 0;
  EXPECT_THROW(QueryService(index, options), std::invalid_argument);
}

// Lossless stop() with several workers and several blocking producers in
// flight: every admitted future resolves, nothing is counted twice or
// lost, and nothing hangs (ctest's TIMEOUT turns a hang into a failure).
TEST(QueryService, StopMidStreamWithFourWorkersIsLossless) {
  const auto g = erdos_renyi(3000, 30000, 37);
  const GsIndex index(g);
  ServiceOptions options;
  options.num_threads = 4;
  options.queue_capacity = 8;  // small: producers also park on backpressure
  options.cache_results = false;
  QueryService service(index, options);

  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 200;
  std::atomic<int> delivered{0};
  std::atomic<int> refused{0};
  std::atomic<int> admitted{0};
  std::vector<std::thread> submitters;
  for (int c = 0; c < kSubmitters; ++c) {
    submitters.emplace_back([&, c] {
      std::vector<std::future<QueryResponse>> futures;
      for (int i = 0; i < kPerSubmitter; ++i) {
        ScanParams p;
        p.eps = EpsRational{static_cast<std::uint64_t>((c + i) % 9) + 1, 10};
        p.mu = 2 + static_cast<std::uint32_t>(i % 3);
        try {
          futures.push_back(service.submit(p));
          admitted.fetch_add(1);
        } catch (const serve::ServiceStoppedError&) {
          refused.fetch_add(1);
        }
      }
      for (auto& f : futures) {
        if (f.get().run != nullptr) delivered.fetch_add(1);
      }
    });
  }
  // Land stop() once the stream is flowing but long before it is done.
  while (admitted.load() < 16) std::this_thread::yield();
  service.stop();
  for (auto& t : submitters) t.join();

  EXPECT_EQ(delivered.load(), admitted.load());
  EXPECT_EQ(delivered.load() + refused.load(), kSubmitters * kPerSubmitter);
  EXPECT_GT(refused.load(), 0);  // stop() really landed mid-stream
  const auto snap = service.snapshot();
  EXPECT_EQ(snap.completed, static_cast<std::uint64_t>(delivered.load()));
  EXPECT_EQ(snap.submitted, static_cast<std::uint64_t>(delivered.load()));
}

TEST(QueryService, RefusesAnAbortedIndexConstruction) {
  const auto g = erdos_renyi(500, 4000, 29);
  GsIndex::BuildOptions build;
  build.limits.memory_budget_bytes = 1;  // construction cannot charge a byte
  const GsIndex aborted(g, build);
  ASSERT_FALSE(aborted.complete());
  EXPECT_THROW(QueryService(aborted, ServiceOptions{}), std::logic_error);
}

}  // namespace
}  // namespace ppscan
