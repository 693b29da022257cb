// QueryService — long-lived concurrent (ε, µ) serving over one immutable
// GS*-Index (after Tseng–Dhulipala–Shun's index-then-serve design,
// PAPERS.md).
//
// The index's reason to exist is answering *many* queries against one
// construction pass, but until this layer every caller built an index,
// asked one question and exited. The service owns the missing machinery:
//
//   * Admission — submit() appends a request to a bounded deque and
//     returns a std::future. A full queue blocks the producer on a
//     condition variable (backpressure), or try_submit() refuses without
//     blocking (load shedding, counted as rejected). The deque, the
//     counters and the trace admission events share one mutex
//     (stats_mutex_), so a request is either admitted whole — id, count,
//     span and queue slot — or leaves no trace at all.
//   * Run-to-completion execution — num_threads service-owned workers
//     pop from the queue themselves and run each query to completion;
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
// snapshot() is safe from any thread. stop() lets the workers drain every
// queued request, joins them, and is idempotent (the destructor calls it);
// submit()/try_submit() after stop() throw ServiceStoppedError — including
// producers that were *parked on backpressure* when stop() landed. Nothing
// is admitted once stop() has begun, so every admitted future resolves.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "concurrent/run_governor.hpp"
#include "index/gs_index.hpp"
#include "obs/latency_histogram.hpp"
#include "obs/trace.hpp"
#include "scan/scan_common.hpp"
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
  /// Bounded admission queue capacity, exact; must be at least 1.
  std::size_t queue_capacity = 1024;
  /// Memoize completed runs under their exact (ε num/den, µ) key.
  bool cache_results = true;
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
  /// collector's master slot, arg = request id (0 on a shed mark: a
  /// refused request gets no id). Every emission happens with the
  /// service's stats mutex held, so writers are serialized — the
  /// buffer's single-writer rule is met by mutual exclusion, and any
  /// worker count fits. The collector must outlive the service. With a
  /// collector installed the service also emits per-query `serve.query`
  /// async spans (SpanBegin at admission, SpanEnd at delivery, arg =
  /// query id) plus execution-start marks, so the Perfetto export shows one
  /// swimlane per in-flight query (docs/observability.md).
  obs::TraceCollector* trace = nullptr;
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

  /// Refuses new requests, lets the workers drain every queued one, joins
  /// them. Idempotent; a concurrent caller returns only after the join.
  void stop() PPSCAN_EXCLUDES(stats_mutex_);

  [[nodiscard]] ServiceSnapshot snapshot() const
      PPSCAN_EXCLUDES(stats_mutex_);
  [[nodiscard]] int num_threads() const { return options_.num_threads; }
  [[nodiscard]] const GsIndex& index() const { return index_; }

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

  /// The one admission path behind submit() (blocking: waits out a full
  /// queue) and try_submit_ex() (refuses instead, CoDel gate first).
  AdmissionResult admit(const ScanParams& params, const RunLimits& limits,
                        bool blocking, std::future<QueryResponse>* out)
      PPSCAN_EXCLUDES(stats_mutex_, cache_mutex_);
  /// Worker: pop, execute to completion, repeat; waits on not_empty_ while
  /// the queue is empty and returns once it finds it empty after stop().
  void worker_loop() PPSCAN_EXCLUDES(stats_mutex_);
  /// Pops the next request (nullopt: queue empty and stopping), recording
  /// its sojourn and its execution-start mark in the same critical section.
  std::optional<Request> pop() PPSCAN_EXCLUDES(stats_mutex_);
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
  /// Non-blocking admission gate: Overloaded when the last observed queue
  /// sojourn exceeds shed_target_delay (CoDel), else QueueFull at capacity,
  /// else Admitted. A refusal's retry-after hint is that sojourn, floored
  /// at 1ms.
  [[nodiscard]] AdmissionResult admission_gate() const
      PPSCAN_REQUIRES(stats_mutex_);
  /// All-Unknown classified partial for a query whose deadline was already
  /// spent in the queue (abort phase "QAdmission").
  [[nodiscard]] ScanRun admission_aborted_run() const;
  /// All-Unknown classified failure for a query whose execution threw —
  /// the firewall's per-query result (abort_reason Exception).
  [[nodiscard]] ScanRun exception_aborted_run(const char* phase,
                                              const char* what) const;
  /// Emits one trace event into the collector's master slot (the
  /// master-slot single-writer rule is met by mutual exclusion under
  /// stats_mutex_, see ServiceOptions::trace).
  void trace_query(obs::TraceEventKind kind, const char* name,
                   std::uint64_t id) PPSCAN_REQUIRES(stats_mutex_);

  const GsIndex& index_;
  const ServiceOptions options_;
  const std::chrono::steady_clock::time_point start_time_;

  /// Distinct parameter combinations kept before the cache is wholesale
  /// cleared (parameter spaces are tiny; LRU would be ceremony).
  static constexpr std::size_t kCacheCapacity = 64;

  // guards: cache_ — the memoized-results map.
  mutable CheckedMutex cache_mutex_;
  std::unordered_map<CacheKey, CachedResult, CacheKeyHash> cache_
      PPSCAN_GUARDED_BY(cache_mutex_);

  // Everything below is guarded by stats_mutex_ (plain fields, no atomics:
  // every request crosses this lock at admission, pop and delivery anyway,
  // and a snapshot wants a consistent cut).
  // guards: the admission queue and its stop flag, the serving counters,
  // the latency histogram and the per-query record ring.
  mutable CheckedMutex stats_mutex_;
  /// Admitted requests no worker has popped yet, at most queue_capacity.
  std::deque<Request> queue_ PPSCAN_GUARDED_BY(stats_mutex_);
  /// Set once by stop(): admission refuses, workers exit on an empty queue.
  bool stopping_ PPSCAN_GUARDED_BY(stats_mutex_) = false;
  /// Signalled per push (idle workers wait) and by stop().
  std::condition_variable not_empty_;
  /// Signalled per pop (backpressured submit() waits) and by stop().
  std::condition_variable not_full_;
  /// Queue sojourn a worker last observed (ns): the wait of the request it
  /// just popped, 0 whenever a worker finds the queue empty. Admission
  /// compares it against shed_target_delay — the CoDel congestion signal.
  std::uint64_t sojourn_ns_ PPSCAN_GUARDED_BY(stats_mutex_) = 0;
  /// Admitted requests; also the next request id, so ids are dense.
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

  /// stop() runs once; concurrent callers block until it has finished.
  std::once_flag stopped_;

  /// Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace ppscan::serve
