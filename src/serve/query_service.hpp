// QueryService — long-lived concurrent (ε, µ) serving over one immutable
// GS*-Index (ROADMAP item 1; after Tseng–Dhulipala–Shun's index-then-serve
// design, PAPERS.md).
//
// The index's reason to exist is answering *many* queries against one
// construction pass, but until this layer every caller built an index,
// asked one question and exited. The service owns the missing machinery:
//
//   * Admission — submit() enqueues a request into a bounded MPMC queue
//     (mpmc_queue.hpp) and returns a std::future. A full queue blocks the
//     producer on a futex epoch (backpressure), or try_submit() refuses
//     without blocking (load shedding, counted as rejected).
//   * Run-to-completion execution — num_threads service-owned workers
//     dequeue from the queue themselves and run each query to completion;
//     no batch barrier makes a query wait for another's straggler.
//   * Scratch pooling — one GsIndex::QueryScratch per worker, reused
//     across every query that worker executes: steady-state serving does
//     no full-graph allocations per query (the original motivation for the
//     QueryScratch refactor in index/gs_index.hpp).
//   * Per-query governance — each request may carry RunLimits; the deadline
//     is measured from *submission*, so time spent queued counts against
//     it. A query whose budget is exhausted before it starts is aborted at
//     admission (phase "QAdmission"); one tripped mid-run returns the
//     library's classified partial result (scan_common.hpp). Partial
//     results are delivered to their caller, never cached.
//   * Result caching — an index query is a pure function of the immutable
//     index and (ε, µ), so completed runs are memoized behind shared_ptr
//     under their exact rational parameters. Repeated-parameter workloads
//     (the realistic serving mix: dashboards re-asking the same few
//     settings) are answered without touching the index at all.
//   * Observability — per-query latency lands in a geometric histogram and
//     a bounded ring of per-query records; snapshot() returns the whole
//     picture and serve/serving_metrics.hpp renders it as schema-v2 metrics
//     JSON rows (queries[] + latency_histogram fields).
//   * Fault containment & overload resilience (docs/resilience.md) —
//     a query whose execution throws becomes a *classified per-query
//     failure* (AbortReason::Exception, detail = e.what()) delivered to its
//     own caller; the workers and every other in-flight query are
//     untouched. Under sustained overload the non-blocking admission path
//     sheds CoDel-style — when the observed queue sojourn exceeds
//     shed_target_delay, not only when the queue is full — with a
//     retry-after hint. A doomed query (deadline spent in the queue, a
//     governed trip, an exception) gets its own classified partial — every
//     answer is for the (ε, µ) that was asked.
//
// Threading contract: submit()/try_submit() are safe from any thread.
// snapshot() is safe from any thread. stop() joins the workers, drains
// queued requests, and is idempotent; submit()/try_submit() after stop()
// throw ServiceStoppedError — including producers that were *parked on
// backpressure* when stop() landed (they are woken, and any request a
// racing producer slips past the final drain is executed by that producer
// itself, so no admitted future is ever left hanging). Futures obtained
// from requests that were still queued when the service was *destroyed*
// (not stopped) report std::future_error(broken_promise).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "concurrent/run_governor.hpp"
#include "index/gs_index.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/latency_histogram.hpp"
#include "obs/trace.hpp"
#include "scan/scan_common.hpp"
#include "serve/mpmc_queue.hpp"
#include "util/thread_safety.hpp"

namespace ppscan::serve {

/// Thrown by submit()/try_submit() once stop() has been requested — a
/// *refusal*, distinct from any per-query failure: no request was admitted
/// and no future exists. Derives from std::runtime_error so pre-existing
/// catch sites keep working.
class ServiceStoppedError : public std::runtime_error {
 public:
  explicit ServiceStoppedError(const char* what_arg)
      : std::runtime_error(what_arg) {}
};

struct ServiceOptions {
  /// Service workers answering queries, each running one query at a time.
  int num_threads = 1;
  /// Bounded admission queue capacity (rounded up to a power of two).
  std::size_t queue_capacity = 1024;
  /// Memoize completed runs under their exact (ε num/den, µ) key.
  bool cache_results = true;
  /// Distinct parameter combinations kept before the cache is wholesale
  /// cleared (parameter spaces are tiny; LRU would be ceremony).
  std::size_t cache_capacity = 64;
  /// Limits applied to requests submitted without their own (default:
  /// ungoverned).
  RunLimits default_limits;
  /// Per-query records kept for snapshot() (a ring of the most recent).
  std::size_t max_recorded_queries = 1024;
  /// CoDel-style adaptive shedding (0 = off): when the queue sojourn a
  /// worker last observed (the wait of the request it last dequeued)
  /// exceeds this target, try_submit()/try_submit_ex() refuse with
  /// Overloaded + a retry-after hint *before* the queue is full — bounding
  /// the queueing delay of accepted requests instead of letting a standing
  /// queue push every latency to the deadline. Blocking submit() is never
  /// shed: its contract is backpressure.
  std::chrono::milliseconds shed_target_delay{0};
  /// Optional resilience trace hook (docs/resilience.md): shed and
  /// exception events are emitted as instant Mark events into the
  /// collector's master slot, arg = request id. Every emission happens with the
  /// service's stats mutex held, so writers are serialized — the
  /// buffer's single-writer rule is met by mutual exclusion, and any
  /// worker count fits. The collector must outlive the service. With a
  /// collector installed the service also emits per-query `serve.query`
  /// async spans (SpanBegin at admission, SpanEnd at delivery, arg =
  /// query id) plus execution-start marks, so the Perfetto export shows one
  /// swimlane per in-flight query (docs/observability.md).
  obs::TraceCollector* trace = nullptr;
  /// Flight-recorder ring capacity (0 = recorder off): recent serving
  /// events (admissions, refusals, exceptions) retained for post-mortem
  /// dumps.
  std::size_t flight_capacity = 256;
  /// When non-empty, the flight recorder dumps schema-valid JSON here on
  /// stop(). Fatal-signal dumps are the CLI's job:
  /// obs::install_flight_signal_dump(service.flight(), path).
  std::string flight_dump_path;
};

/// What a fulfilled query future carries.
struct QueryResponse {
  /// The run; shared because cache hits alias one stored result. Never
  /// null on a delivered response. partial() classifies governed trips.
  std::shared_ptr<const ScanRun> run;
  /// Submission → delivery, including queue wait (seconds).
  double latency_seconds = 0;
  /// Execution alone (0 on a cache hit).
  double execute_seconds = 0;
  /// Submission → execution start (0 on an admission-time cache hit).
  /// queue_seconds + execute_seconds ≤ latency_seconds — the remainder is
  /// delivery overhead.
  double queue_seconds = 0;
  bool cache_hit = false;
  /// Always false; kept only because bench/e2e's answer check reads it.
  bool degraded = false;
  /// Service-assigned id, dense in submission order.
  std::uint64_t id = 0;
};

/// Why non-blocking admission refused (or didn't). The overload shed is
/// checked before queue capacity.
enum class AdmissionOutcome : std::uint8_t {
  Admitted = 0,    ///< enqueued (or answered from cache); *out is valid
  QueueFull = 1,   ///< bounded queue at capacity
  Overloaded = 2,  ///< queue sojourn above shed_target_delay (CoDel shed)
};

const char* to_string(AdmissionOutcome outcome);

/// Result of try_submit_ex(): the refusal cause plus a backoff hint sized
/// from the observed congestion. retry_after is zero on admission.
struct AdmissionResult {
  AdmissionOutcome outcome = AdmissionOutcome::Admitted;
  std::chrono::milliseconds retry_after{0};
  [[nodiscard]] bool admitted() const {
    return outcome == AdmissionOutcome::Admitted;
  }
};

/// One row of the snapshot's per-query ring (also the metrics `queries[]`
/// row, serving_metrics.hpp).
struct QueryRecord {
  std::uint64_t id = 0;
  std::string eps;  ///< "num/den" — exact, unlike a rounded double
  std::uint32_t mu = 0;
  double latency_ms = 0;
  /// Queue-wait / execution split of latency_ms (metrics `queue_ms` /
  /// `execute_ms`; queue_ms + execute_ms ≤ latency_ms up to delivery
  /// overhead — the validator holds the inequality with slack).
  double queue_ms = 0;
  double execute_ms = 0;
  std::uint64_t num_clusters = 0;
  std::uint64_t num_cores = 0;
  AbortReason abort_reason = AbortReason::None;
  bool cache_hit = false;
};

struct ServiceSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< delivered, including partials and hits
  std::uint64_t cache_hits = 0;
  std::uint64_t rejected = 0;   ///< all non-blocking refusals (any cause)
  std::uint64_t partial = 0;    ///< delivered with abort_reason != None
  /// Resilience funnel (docs/resilience.md). rejected above stays the
  /// total for back-compat; the shed_* fields split it by cause.
  std::uint64_t exceptions = 0;        ///< firewall-classified failures
  std::uint64_t shed_queue_full = 0;   ///< refusals: queue at capacity
  std::uint64_t shed_overload = 0;     ///< refusals: sojourn over target
  /// Funnel aggregated over executed (non-cache-hit) queries.
  obs::AlgoCounters counters;
  /// Lifetime latency distribution. A window over it is the difference
  /// of two snapshots (latency.delta_since(earlier.latency)), which is
  /// what a scraper's rate() over the exposed buckets computes.
  obs::LatencyHistogram latency;
  /// Flight-recorder events ever recorded (0 when disabled).
  std::uint64_t flight_recorded = 0;
  /// Most recent per-query records, oldest first.
  std::vector<QueryRecord> recent;
  double uptime_seconds = 0;
  int num_threads = 1;
};

class QueryService {
 public:
  /// The index (and the graph it references) must outlive the service.
  QueryService(const GsIndex& index, ServiceOptions options);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Enqueues a query under the service default limits. Blocks only when
  /// the admission queue is full; throws ServiceStoppedError after stop()
  /// (a parked producer is woken by stop() and gets the same classified
  /// refusal — never a hang). Blocking submission is exempt from the
  /// overload shed: its contract is backpressure.
  std::future<QueryResponse> submit(const ScanParams& params);
  std::future<QueryResponse> submit(const ScanParams& params,
                                    const RunLimits& limits);

  /// Non-blocking admission: false (and one `rejected` count) on any
  /// refusal — queue full or overload shed. On success *out
  /// is the response future. Throws ServiceStoppedError after stop().
  bool try_submit(const ScanParams& params, const RunLimits& limits,
                  std::future<QueryResponse>* out);

  /// Non-blocking admission with the full refusal taxonomy and a
  /// retry-after hint (see AdmissionResult). Cache hits are
  /// always admitted — a memoized answer costs nothing to serve, so
  /// shedding it would only manufacture failures.
  AdmissionResult try_submit_ex(const ScanParams& params,
                                const RunLimits& limits,
                                std::future<QueryResponse>* out);

  /// Joins the workers, drains every queued request, idempotent.
  void stop() PPSCAN_EXCLUDES(stop_mutex_);

  [[nodiscard]] ServiceSnapshot snapshot() const
      PPSCAN_EXCLUDES(stats_mutex_);
  [[nodiscard]] int num_threads() const { return options_.num_threads; }
  [[nodiscard]] const GsIndex& index() const { return index_; }
  /// The black box (nullptr when flight_capacity == 0). Valid for the
  /// service's lifetime; safe to hand to install_flight_signal_dump.
  [[nodiscard]] const obs::FlightRecorder* flight() const {
    return flight_.get();
  }

 private:
  struct Request {
    ScanParams params;
    RunLimits limits;
    std::chrono::steady_clock::time_point submit_time;
    std::uint64_t id = 0;
    std::promise<QueryResponse> promise;
  };

  struct CacheKey {
    std::uint64_t num, den;
    std::uint32_t mu;
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const {
      std::uint64_t h = k.num * 0x9e3779b97f4a7c15ULL;
      h ^= k.den + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h ^= k.mu + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };
  /// Cached entry: the run plus its cluster/core counts, computed once at
  /// execution so a cache hit never pays the O(n) num_clusters() scan.
  struct CachedResult {
    std::shared_ptr<const ScanRun> run;
    std::uint64_t num_clusters = 0;
    std::uint64_t num_cores = 0;
  };

  /// Everything respond() needs to deliver one response.
  struct Delivery {
    std::shared_ptr<const ScanRun> run;
    bool cache_hit = false;
    double execute_seconds = 0;
    double queue_seconds = 0;
    std::uint64_t num_clusters = 0;
    std::uint64_t num_cores = 0;
  };

  std::future<QueryResponse> enqueue(Request request);
  /// Worker: dequeue, execute to completion, repeat; parks on
  /// submitted_epoch_ when the queue is empty and returns once it finds the
  /// queue empty after stop().
  void worker_loop();
  /// Dispatch firewall: runs execute() and answers the request with a
  /// "QDispatch"-classified failure if anything escapes it.
  void execute_guarded(Request& request, GsIndex::QueryScratch& scratch);
  void execute(Request& request, GsIndex::QueryScratch& scratch);
  /// Delivers the response: records stats under the mutex, then fulfills
  /// the promise (after the lock — the waiter may run
  /// immediately).
  void respond(Request& request, Delivery delivery)
      PPSCAN_EXCLUDES(stats_mutex_);
  std::optional<CachedResult> cache_lookup(const CacheKey& key)
      PPSCAN_EXCLUDES(cache_mutex_);
  void cache_store(const CacheKey& key, CachedResult value)
      PPSCAN_EXCLUDES(cache_mutex_);
  /// CoDel overload shed for non-blocking admission: Overloaded with a
  /// retry-after hint when the last observed queue sojourn exceeds
  /// shed_target_delay, else Admitted.
  [[nodiscard]] AdmissionResult admission_gate() const;
  /// Post-enqueue stop-race repair (see stop()): if stop() finished its
  /// final drain before our enqueue landed, nobody will ever dequeue it —
  /// the producer drains and executes leftovers itself.
  void drain_if_stopped() PPSCAN_EXCLUDES(stop_mutex_);
  /// All-Unknown classified partial for a query whose deadline was already
  /// spent in the queue (abort phase "QAdmission").
  [[nodiscard]] ScanRun admission_aborted_run() const;
  /// All-Unknown classified failure for a query whose execution threw —
  /// the firewall's per-query result (abort_reason Exception).
  [[nodiscard]] ScanRun exception_aborted_run(const char* phase,
                                              const char* what) const;
  /// Emits one per-query trace event into the collector's master slot.
  /// The _locked form is for call sites already inside stats_mutex_; the
  /// unlocked form takes it (the master-slot single-writer rule is met by
  /// mutual exclusion under stats_mutex_, see ServiceOptions::trace).
  void trace_query_locked(obs::TraceEventKind kind, const char* name,
                          std::uint64_t id) PPSCAN_REQUIRES(stats_mutex_);
  void trace_query(obs::TraceEventKind kind, const char* name,
                   std::uint64_t id) PPSCAN_EXCLUDES(stats_mutex_);

  const GsIndex& index_;
  const ServiceOptions options_;
  const std::chrono::steady_clock::time_point start_time_;

  MpmcQueue<Request> queue_;
  std::vector<std::thread> workers_;

  // protocol: relaxed-counter — dense query ids, order has no consumers.
  std::atomic<std::uint64_t> next_id_{0};
  // protocol: futex-epoch — bumped per enqueue; the idle workers' park
  // word.
  std::atomic<std::uint64_t> submitted_epoch_{0};
  // protocol: futex-epoch — bumped per dequeued request; blocked
  // producers' park word (backpressure release).
  std::atomic<std::uint64_t> drained_epoch_{0};
  // protocol: release-acquire — set once by stop(); consumers are the
  // workers' empty-queue exit check and submit()'s admission check.
  std::atomic<bool> stop_requested_{false};
  // Queue sojourn a worker last observed (ns): the wait of the request it
  // just dequeued, 0 whenever a worker finds the queue empty. Admission
  // compares it against shed_target_delay — the CoDel-style congestion
  // signal.
  // protocol: relaxed-guarded — N writers (the workers, last store wins),
  // advisory readers (admission); a stale read merely sheds or admits one
  // request on old congestion data, which the next dequeue corrects.
  std::atomic<std::uint64_t> queue_sojourn_ns_{0};

  // guards: cache_ — the memoized-results map.
  mutable CheckedMutex cache_mutex_;
  std::unordered_map<CacheKey, CachedResult, CacheKeyHash> cache_
      PPSCAN_GUARDED_BY(cache_mutex_);

  // Everything below is guarded by stats_mutex_ (plain fields, no atomics:
  // the stats path is off the per-entry hot loops and a snapshot wants a
  // consistent cut anyway).
  // guards: the serving counters, the latency histogram and the per-query
  // record ring.
  mutable CheckedMutex stats_mutex_;
  std::uint64_t submitted_ PPSCAN_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t completed_ PPSCAN_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t cache_hits_ PPSCAN_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t rejected_ PPSCAN_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t partial_ PPSCAN_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t exceptions_ PPSCAN_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t shed_queue_full_ PPSCAN_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t shed_overload_ PPSCAN_GUARDED_BY(stats_mutex_) = 0;
  obs::AlgoCounters counters_ PPSCAN_GUARDED_BY(stats_mutex_);
  obs::LatencyHistogram latency_ PPSCAN_GUARDED_BY(stats_mutex_);
  /// Ring buffer of the most recent per-query records.
  std::vector<QueryRecord> recent_ PPSCAN_GUARDED_BY(stats_mutex_);
  std::size_t recent_head_ PPSCAN_GUARDED_BY(stats_mutex_) = 0;

  /// The black box (obs/flight_recorder.hpp); internally synchronized, so
  /// record() is safe from any serving path. Null when disabled.
  std::unique_ptr<obs::FlightRecorder> flight_;

  // guards: stopped_ — serializes stop() callers against each other and
  // against drain_if_stopped()'s leftover-execution repair.
  CheckedMutex stop_mutex_;
  bool stopped_ PPSCAN_GUARDED_BY(stop_mutex_) = false;
};

}  // namespace ppscan::serve
