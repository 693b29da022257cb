#include "serve/query_service.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/fault_point.hpp"

namespace ppscan::serve {
namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string eps_text(const EpsRational& eps) {
  return std::to_string(eps.num) + "/" + std::to_string(eps.den);
}

std::uint64_t ns_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Clusters of a complete run without canonicalizing: a cluster's id is
/// its minimum core id, so each cluster has exactly one core labelled with
/// itself. (ScanResult::num_clusters() builds a std::map to get the same
/// count.)
std::uint64_t count_clusters(const ScanResult& result) {
  std::uint64_t clusters = 0;
  for (std::size_t u = 0; u < result.roles.size(); ++u) {
    if (result.roles[u] == Role::Core && result.core_cluster_id[u] == u) {
      ++clusters;
    }
  }
  return clusters;
}

}  // namespace

const char* to_string(AdmissionOutcome outcome) {
  switch (outcome) {
    case AdmissionOutcome::Admitted: return "admitted";
    case AdmissionOutcome::QueueFull: return "queue-full";
    case AdmissionOutcome::Overloaded: return "overloaded";
  }
  return "?";
}

QueryService::QueryService(const GsIndex& index, ServiceOptions options)
    : index_(index),
      options_(options),
      start_time_(std::chrono::steady_clock::now()) {
  if (!index_.complete()) {
    throw std::logic_error(
        "QueryService: refusing an aborted index construction");
  }
  if (options_.num_threads < 1) {
    throw std::invalid_argument("QueryService: need at least one thread");
  }
  if (options_.queue_capacity == 0) {
    throw std::invalid_argument("QueryService: need a queue capacity >= 1");
  }
  workers_.reserve(static_cast<std::size_t>(options_.num_threads));
  for (int w = 0; w < options_.num_threads; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

QueryService::~QueryService() { stop(); }

std::future<QueryResponse> QueryService::submit(const ScanParams& params) {
  return submit(params, options_.default_limits);
}

std::future<QueryResponse> QueryService::submit(const ScanParams& params,
                                                const RunLimits& limits) {
  std::future<QueryResponse> future;
  admit(params, limits, /*blocking=*/true, &future);
  return future;
}

bool QueryService::try_submit(const ScanParams& params,
                              const RunLimits& limits,
                              std::future<QueryResponse>* out) {
  return try_submit_ex(params, limits, out).admitted();
}

AdmissionResult QueryService::try_submit_ex(const ScanParams& params,
                                            const RunLimits& limits,
                                            std::future<QueryResponse>* out) {
  return admit(params, limits, /*blocking=*/false, out);
}

AdmissionResult QueryService::admission_gate() const {
  const auto hint = std::chrono::milliseconds(
      std::max<std::uint64_t>(1, sojourn_ns_ / 1'000'000));
  const auto target_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          options_.shed_target_delay)
          .count());
  if (target_ns > 0 && sojourn_ns_ > target_ns) {
    return {AdmissionOutcome::Overloaded, hint};
  }
  if (queue_.size() >= options_.queue_capacity) {
    return {AdmissionOutcome::QueueFull, hint};
  }
  return {AdmissionOutcome::Admitted, std::chrono::milliseconds(0)};
}

AdmissionResult QueryService::admit(const ScanParams& params,
                                    const RunLimits& limits, bool blocking,
                                    std::future<QueryResponse>* out) {
  const char* const stopped_what =
      blocking ? "QueryService::submit after stop()"
               : "QueryService::try_submit after stop()";
  PPSCAN_FAULT_POINT("serve.admission");
  Request request;
  request.params = params;
  request.limits = limits;
  request.submit_time = std::chrono::steady_clock::now();
  auto future = request.promise.get_future();

  // A memoized result answers without touching the queue at all (the whole
  // point of caching), so it is probed before the admission lock.
  std::optional<CachedResult> hit;
  if (options_.cache_results) {
    hit = cache_lookup({params.eps.num, params.eps.den, params.mu});
  }
  {
    CheckedLock lock(stats_mutex_);
    if (stopping_) throw ServiceStoppedError(stopped_what);
    if (!hit && blocking) {
      // Backpressure: blocking submission is never shed, only made to wait.
      while (queue_.size() >= options_.queue_capacity) {
        not_full_.wait(lock.native());
        if (stopping_) throw ServiceStoppedError(stopped_what);
      }
    }
    const AdmissionResult gate =
        (hit || blocking) ? AdmissionResult{} : admission_gate();
    if (!gate.admitted()) {
      const bool overload = gate.outcome == AdmissionOutcome::Overloaded;
      const char* const label =
          overload ? "serve.shed.overload" : "serve.shed.queue-full";
      rejected_ += 1;
      (overload ? shed_overload_ : shed_queue_full_) += 1;
      // A refused request gets no id: its events carry 0.
      trace_query(obs::TraceEventKind::Mark, label, 0);
      return gate;
    }
    request.id = submitted_++;
    trace_query(obs::TraceEventKind::SpanBegin, "serve.query", request.id);
    if (!hit) queue_.push_back(std::move(request));
  }
  if (hit) {
    Delivery delivery;
    delivery.run = std::move(hit->run);
    delivery.cache_hit = true;
    delivery.num_clusters = hit->num_clusters;
    delivery.num_cores = hit->num_cores;
    respond(request, std::move(delivery));
  } else {
    not_empty_.notify_one();
  }
  *out = std::move(future);
  return {AdmissionOutcome::Admitted, std::chrono::milliseconds(0)};
}

std::optional<QueryService::Request> QueryService::pop() {
  std::optional<Request> request;
  {
    CheckedLock lock(stats_mutex_);
    while (queue_.empty()) {
      // Queue observed empty: clear the congestion signal so the overload
      // shed never acts on a sojourn from a backlog that already drained.
      sojourn_ns_ = 0;
      if (stopping_) return std::nullopt;
      not_empty_.wait(lock.native());
    }
    request.emplace(std::move(queue_.front()));
    queue_.pop_front();
    // CoDel signal: this request's wait is what a newly admitted request
    // should expect to sojourn (admission compares it against
    // shed_target_delay).
    sojourn_ns_ =
        ns_between(request->submit_time, std::chrono::steady_clock::now());
    trace_query(obs::TraceEventKind::Mark, "serve.query.execute",
                request->id);
  }
  not_full_.notify_one();
  return request;
}

void QueryService::worker_loop() {
  GsIndex::QueryScratch scratch;
  while (std::optional<Request> request = pop()) {
    execute_guarded(*request, scratch);
  }
}

void QueryService::execute_guarded(Request& request,
                                   GsIndex::QueryScratch& scratch) {
  // Dispatch firewall: execute() contains per-query exceptions from the
  // index walk itself, but anything else that escapes it (a fault at the
  // serve.dispatcher site, a bad_alloc outside execute's own try) must
  // still answer this request, and the worker must keep serving.
  const auto fail = [&](const char* what) {
    Delivery delivery;
    delivery.run = std::make_shared<const ScanRun>(
        exception_aborted_run("QDispatch", what));
    respond(request, std::move(delivery));
  };
  try {
    PPSCAN_FAULT_POINT("serve.dispatcher");
    execute(request, scratch);
  } catch (const std::exception& e) {
    fail(e.what());
  } catch (...) {
    fail("non-std exception");
  }
}

void QueryService::execute(Request& request,
                           GsIndex::QueryScratch& scratch) {
  const auto exec_start = std::chrono::steady_clock::now();
  // Queue wait: submission → execution start. Threaded through every
  // Delivery built here so the metrics rows can split latency into
  // queue_ms / execute_ms (docs/observability.md).
  const double queue_seconds =
      seconds_between(request.submit_time, exec_start);
  const CacheKey key{request.params.eps.num, request.params.eps.den,
                     request.params.mu};
  if (options_.cache_results) {
    // Second probe: another worker may have populated the entry since
    // admission.
    if (auto hit = cache_lookup(key)) {
      Delivery delivery;
      delivery.run = std::move(hit->run);
      delivery.cache_hit = true;
      delivery.queue_seconds = queue_seconds;
      delivery.num_clusters = hit->num_clusters;
      delivery.num_cores = hit->num_cores;
      respond(request, std::move(delivery));
      return;
    }
  }

  RunLimits limits = request.limits;
  bool admission_expired = false;
  if (limits.deadline.count() > 0) {
    // The deadline governs submission → delivery, so queue wait counts:
    // hand the governor only what is left.
    const auto waited =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            exec_start - request.submit_time);
    if (waited >= limits.deadline) {
      admission_expired = true;
    } else {
      limits.deadline -= waited;
    }
  }

  if (admission_expired) {
    Delivery delivery;
    delivery.run = std::make_shared<const ScanRun>(admission_aborted_run());
    delivery.queue_seconds = queue_seconds;
    respond(request, std::move(delivery));
    return;
  }

  RunGovernor governor(limits, nullptr);
  // Query-boundary exception firewall: whatever the index walk throws is
  // *this query's* failure, classified through the same governor machinery
  // as a deadline or budget trip (AbortReason::Exception + e.what()), and
  // delivered to this caller alone. The worker and every other in-flight
  // query continue untouched — the containment test
  // pins that concurrent results stay bit-identical.
  ScanRun result;
  try {
    PPSCAN_FAULT_POINT("serve.execute");
    result = index_.query(request.params, scratch, &governor);
  } catch (const std::exception& e) {
    governor.record_exception(e.what());
    result = exception_aborted_run(nullptr, nullptr);
    record_governance(governor, result.stats);
  } catch (...) {
    governor.record_exception("non-std exception");
    result = exception_aborted_run(nullptr, nullptr);
    record_governance(governor, result.stats);
  }
  const double exec_seconds =
      seconds_between(exec_start, std::chrono::steady_clock::now());
  const bool complete = !result.partial();
  // count_clusters() relies on complete labels; partial runs (rare) may
  // leave cores unlabelled, so they keep num_clusters()'s canonical count.
  const std::uint64_t clusters = complete ? count_clusters(result.result)
                                          : result.result.num_clusters();
  const std::uint64_t cores = result.result.num_cores();
  auto run = std::make_shared<const ScanRun>(std::move(result));
  // Only complete runs are memoizable — a partial is an artifact of this
  // query's budget, not a property of (ε, µ).
  if (complete && options_.cache_results) {
    cache_store(key, {run, clusters, cores});
  }
  Delivery delivery;
  delivery.run = std::move(run);
  delivery.execute_seconds = exec_seconds;
  delivery.queue_seconds = queue_seconds;
  delivery.num_clusters = clusters;
  delivery.num_cores = cores;
  respond(request, std::move(delivery));
}

void QueryService::respond(Request& request, Delivery delivery) {
  QueryResponse response;
  response.latency_seconds = seconds_between(
      request.submit_time, std::chrono::steady_clock::now());
  response.execute_seconds = delivery.execute_seconds;
  response.queue_seconds = delivery.queue_seconds;
  response.cache_hit = delivery.cache_hit;
  response.id = request.id;
  response.run = std::move(delivery.run);

  const AbortReason reason = response.run->stats.abort_reason;
  {
    CheckedLock lock(stats_mutex_);
    completed_ += 1;
    if (delivery.cache_hit) cache_hits_ += 1;
    if (response.run->partial()) partial_ += 1;
    if (reason == AbortReason::Exception) {
      exceptions_ += 1;
      trace_query(obs::TraceEventKind::Mark, "serve.exception", request.id);
    }
    if (!delivery.cache_hit) counters_ += response.run->stats.counters;
    const double ms = response.latency_seconds * 1e3;
    latency_.record(ms);
    if (options_.max_recorded_queries > 0) {
      QueryRecord record;
      record.id = request.id;
      record.eps = eps_text(request.params.eps);
      record.mu = request.params.mu;
      record.latency_ms = ms;
      record.queue_ms = delivery.queue_seconds * 1e3;
      record.execute_ms = delivery.execute_seconds * 1e3;
      record.num_clusters = delivery.num_clusters;
      record.num_cores = delivery.num_cores;
      record.abort_reason = reason;
      record.cache_hit = delivery.cache_hit;
      if (recent_.size() < options_.max_recorded_queries) {
        recent_.push_back(std::move(record));
      } else {
        recent_[recent_head_] = std::move(record);
        recent_head_ = (recent_head_ + 1) % recent_.size();
      }
    }
    trace_query(obs::TraceEventKind::SpanEnd, "serve.query", request.id);
  }
  // Fulfill outside the lock: the waiting thread may run immediately.
  request.promise.set_value(std::move(response));
}

std::optional<QueryService::CachedResult> QueryService::cache_lookup(
    const CacheKey& key) {
  CheckedLock lock(cache_mutex_);
  const auto it = cache_.find(key);
  if (it == cache_.end()) return std::nullopt;
  return it->second;
}

void QueryService::cache_store(const CacheKey& key, CachedResult value) {
  CheckedLock lock(cache_mutex_);
  if (cache_.size() >= kCacheCapacity &&
      cache_.find(key) == cache_.end()) {
    // Wholesale eviction: parameter spaces are tiny, an LRU chain would be
    // bookkeeping for its own sake.
    cache_.clear();
  }
  cache_[key] = std::move(value);
}

ScanRun QueryService::admission_aborted_run() const {
  ScanRun run;
  const VertexId n = index_.graph().num_vertices();
  run.result.roles.assign(n, Role::Unknown);
  run.result.core_cluster_id.assign(n, kInvalidVertex);
  run.stats.abort_reason = AbortReason::DeadlineExpired;
  run.stats.abort_phase = "QAdmission";
  return run;
}

ScanRun QueryService::exception_aborted_run(const char* phase,
                                            const char* what) const {
  ScanRun run;
  const VertexId n = index_.graph().num_vertices();
  run.result.roles.assign(n, Role::Unknown);
  run.result.core_cluster_id.assign(n, kInvalidVertex);
  run.stats.abort_reason = AbortReason::Exception;
  if (phase != nullptr) run.stats.abort_phase = phase;
  if (what != nullptr) run.stats.abort_detail = what;
  return run;
}

void QueryService::stop() {
  std::call_once(stopped_, [this] {
    {
      CheckedLock lock(stats_mutex_);
      stopping_ = true;
    }
    // Admission checks stopping_ under the same lock it pushes under, so
    // nothing lands from here on, and a worker exits only on an empty
    // queue: the join below is a lossless drain.
    not_empty_.notify_all();
    not_full_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  });
}

void QueryService::trace_query(obs::TraceEventKind kind, const char* name,
                               std::uint64_t id) {
  PPSCAN_TRACE_MASTER_EVENT(options_.trace, kind, name, id);
#if !PPSCAN_TRACE_ENABLED
  (void)kind;
  (void)name;
  (void)id;
#endif
}

ServiceSnapshot QueryService::snapshot() const {
  ServiceSnapshot snap;
  {
    CheckedLock lock(stats_mutex_);
    snap.submitted = submitted_;
    snap.completed = completed_;
    snap.cache_hits = cache_hits_;
    snap.rejected = rejected_;
    snap.partial = partial_;
    snap.exceptions = exceptions_;
    snap.shed_queue_full = shed_queue_full_;
    snap.shed_overload = shed_overload_;
    snap.counters = counters_;
    snap.latency = latency_;
    snap.recent.reserve(recent_.size());
    for (std::size_t i = 0; i < recent_.size(); ++i) {
      snap.recent.push_back(recent_[(recent_head_ + i) % recent_.size()]);
    }
  }
  snap.uptime_seconds =
      seconds_between(start_time_, std::chrono::steady_clock::now());
  snap.num_threads = options_.num_threads;
  return snap;
}

}  // namespace ppscan::serve
