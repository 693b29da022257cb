#include "serve/query_service.hpp"

#include <algorithm>
#include <cmath>
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
    case AdmissionOutcome::BreakerOpen: return "breaker-open";
  }
  return "?";
}

QueryService::QueryService(const GsIndex& index, ServiceOptions options)
    : index_(index),
      options_(options),
      start_time_(std::chrono::steady_clock::now()),
      queue_(options.queue_capacity) {
  if (!index_.complete()) {
    throw std::logic_error(
        "QueryService: refusing an aborted index construction");
  }
  if (options_.num_threads < 1) {
    throw std::invalid_argument("QueryService: need at least one thread");
  }
  if (options_.flight_capacity > 0) {
    flight_ = std::make_unique<obs::FlightRecorder>(options_.flight_capacity);
    flight_->record(obs::FlightRecorder::EventKind::Lifecycle, "serve.start");
  }
  if (options_.stats_interval.count() > 0) {
    // Live telemetry on: size the windowed ring to the configured horizon
    // at the publisher's cadence, then start the publisher.
    CheckedLock lock(stats_mutex_);
    windowed_ =
        obs::WindowedLatency(options_.window_horizon, options_.stats_interval);
    last_publish_time_ = start_time_;
  }
  workers_.reserve(static_cast<std::size_t>(options_.num_threads));
  for (int w = 0; w < options_.num_threads; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (options_.stats_interval.count() > 0) {
    publisher_ = std::thread([this] { publisher_loop(); });
  }
}

QueryService::~QueryService() {
  // Requests that raced a concurrent submit() past the final drain are
  // destroyed with their promise unfulfilled — the waiter sees
  // broken_promise rather than a hang.
  stop();
}

std::future<QueryResponse> QueryService::submit(const ScanParams& params) {
  return submit(params, options_.default_limits);
}

std::future<QueryResponse> QueryService::submit(const ScanParams& params,
                                                const RunLimits& limits) {
  Request request;
  request.params = params;
  request.limits = limits;
  request.submit_time = std::chrono::steady_clock::now();
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  return enqueue(std::move(request));
}

bool QueryService::try_submit(const ScanParams& params,
                              const RunLimits& limits,
                              std::future<QueryResponse>* out) {
  return try_submit_ex(params, limits, out).admitted();
}

AdmissionResult QueryService::admission_gate(Request& request) {
  // The shed decision reads only what an admission already pays for: the
  // stats mutex (held by our caller) and one relaxed load of the workers'
  // last sojourn observation.
  const auto now = request.submit_time;
  if (options_.breaker_failure_threshold > 0) {
    if (breaker_state_ == BreakerState::Open) {
      const auto elapsed = now - breaker_opened_at_;
      if (elapsed < options_.breaker_cooldown) {
        const auto remaining =
            std::chrono::ceil<std::chrono::milliseconds>(
                options_.breaker_cooldown - elapsed);
        return {AdmissionOutcome::BreakerOpen,
                std::max(remaining, std::chrono::milliseconds(1))};
      }
      breaker_state_ = BreakerState::HalfOpen;
      breaker_probe_in_flight_ = false;
      breaker_transitions_ += 1;
      PPSCAN_TRACE_MASTER_EVENT(options_.trace, obs::TraceEventKind::Mark,
                                "serve.breaker.half-open", request.id);
      if (flight_) {
        flight_->record(obs::FlightRecorder::EventKind::Breaker,
                        "serve.breaker.half-open", request.id,
                        "cooldown elapsed");
      }
    }
    if (breaker_state_ == BreakerState::HalfOpen) {
      if (breaker_probe_in_flight_) {
        return {AdmissionOutcome::BreakerOpen, options_.breaker_cooldown};
      }
      // This admission IS the probe; its outcome settles the breaker.
      breaker_probe_in_flight_ = true;
      request.breaker_probe = true;
    }
  }
  if (options_.shed_target_delay.count() > 0) {
    const std::uint64_t sojourn_ns =
        queue_sojourn_ns_.load(std::memory_order_relaxed);
    const auto target_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            options_.shed_target_delay)
            .count());
    if (sojourn_ns > target_ns) {
      // Hint: come back once the current backlog has had a chance to
      // drain — the observed sojourn itself, floored at 1ms.
      const auto hint = std::chrono::milliseconds(
          std::max<std::uint64_t>(1, sojourn_ns / 1'000'000));
      if (request.breaker_probe) {
        // Shed probes don't resolve the breaker; rearm for the next try.
        breaker_probe_in_flight_ = false;
        request.breaker_probe = false;
      }
      return {AdmissionOutcome::Overloaded, hint};
    }
  }
  return {AdmissionOutcome::Admitted, std::chrono::milliseconds(0)};
}

AdmissionResult QueryService::try_submit_ex(const ScanParams& params,
                                            const RunLimits& limits,
                                            std::future<QueryResponse>* out) {
  if (stop_requested_.load(std::memory_order_acquire)) {
    throw ServiceStoppedError("QueryService::try_submit after stop()");
  }
  PPSCAN_FAULT_POINT("serve.admission");
  Request request;
  request.params = params;
  request.limits = limits;
  request.submit_time = std::chrono::steady_clock::now();
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  auto future = request.promise.get_future();

  // Admission-side cache probe: a memoized result answers without touching
  // the queue at all (and cannot be refused — the whole point of caching,
  // so it also bypasses the shed/breaker gate).
  if (options_.cache_results) {
    const CacheKey key{params.eps.num, params.eps.den, params.mu};
    if (auto hit = cache_lookup(key)) {
      {
        CheckedLock lock(stats_mutex_);
        submitted_ += 1;
        trace_query_locked(obs::TraceEventKind::SpanBegin, "serve.query",
                           request.id);
      }
      Delivery delivery;
      delivery.run = std::move(hit->run);
      delivery.cache_hit = true;
      delivery.num_clusters = hit->num_clusters;
      delivery.num_cores = hit->num_cores;
      respond(request, std::move(delivery));
      *out = std::move(future);
      return {AdmissionOutcome::Admitted, std::chrono::milliseconds(0)};
    }
  }
  AdmissionResult gate;
  {
    CheckedLock lock(stats_mutex_);
    gate = admission_gate(request);
    if (gate.admitted()) {
      submitted_ += 1;
      trace_query_locked(obs::TraceEventKind::SpanBegin, "serve.query",
                         request.id);
      if (flight_) {
        flight_->record(obs::FlightRecorder::EventKind::Admission,
                        "serve.admit", request.id);
      }
    } else {
      rejected_ += 1;
      retries_advised_ += 1;
      if (gate.outcome == AdmissionOutcome::Overloaded) {
        shed_overload_ += 1;
        PPSCAN_TRACE_MASTER_EVENT(options_.trace, obs::TraceEventKind::Mark,
                                  "serve.shed.overload", request.id);
        if (flight_) {
          flight_->record(obs::FlightRecorder::EventKind::Refusal,
                          "serve.shed.overload", request.id);
        }
      } else {
        shed_breaker_ += 1;
        PPSCAN_TRACE_MASTER_EVENT(options_.trace, obs::TraceEventKind::Mark,
                                  "serve.shed.breaker", request.id);
        if (flight_) {
          flight_->record(obs::FlightRecorder::EventKind::Refusal,
                          "serve.shed.breaker", request.id);
        }
      }
    }
  }
  if (!gate.admitted()) return gate;

  if (!queue_.try_enqueue(std::move(request))) {
    const auto sojourn_ms = std::max<std::uint64_t>(
        1, queue_sojourn_ns_.load(std::memory_order_relaxed) / 1'000'000);
    CheckedLock lock(stats_mutex_);
    submitted_ -= 1;  // refused, not admitted
    rejected_ += 1;
    shed_queue_full_ += 1;
    retries_advised_ += 1;
    PPSCAN_TRACE_MASTER_EVENT(options_.trace, obs::TraceEventKind::Mark,
                              "serve.shed.queue-full", request.id);
    if (flight_) {
      flight_->record(obs::FlightRecorder::EventKind::Refusal,
                      "serve.shed.queue-full", request.id);
    }
    if (request.breaker_probe) breaker_probe_in_flight_ = false;
    return {AdmissionOutcome::QueueFull,
            std::chrono::milliseconds(sojourn_ms)};
  }
  submitted_epoch_.fetch_add(1, std::memory_order_release);
  submitted_epoch_.notify_one();
  drain_if_stopped();
  *out = std::move(future);
  return {AdmissionOutcome::Admitted, std::chrono::milliseconds(0)};
}

std::future<QueryResponse> QueryService::enqueue(Request request) {
  if (stop_requested_.load(std::memory_order_acquire)) {
    throw ServiceStoppedError("QueryService::submit after stop()");
  }
  PPSCAN_FAULT_POINT("serve.admission");
  auto future = request.promise.get_future();
  {
    CheckedLock lock(stats_mutex_);
    submitted_ += 1;
    trace_query_locked(obs::TraceEventKind::SpanBegin, "serve.query",
                       request.id);
    if (flight_) {
      flight_->record(obs::FlightRecorder::EventKind::Admission,
                      "serve.admit", request.id);
    }
  }
  if (options_.cache_results) {
    const CacheKey key{request.params.eps.num, request.params.eps.den,
                       request.params.mu};
    if (auto hit = cache_lookup(key)) {
      Delivery delivery;
      delivery.run = std::move(hit->run);
      delivery.cache_hit = true;
      delivery.num_clusters = hit->num_clusters;
      delivery.num_cores = hit->num_cores;
      respond(request, std::move(delivery));
      return future;
    }
  }
  for (;;) {
    const std::uint64_t epoch =
        drained_epoch_.load(std::memory_order_acquire);
    if (queue_.try_enqueue(std::move(request))) break;
    if (stop_requested_.load(std::memory_order_acquire)) {
      CheckedLock lock(stats_mutex_);
      submitted_ -= 1;  // refused after all, not admitted
      throw ServiceStoppedError("QueryService::submit after stop()");
    }
    // Backpressure: park until a worker dequeues. The epoch was read
    // before the failed attempt, so a dequeue that lands in between changes
    // the word and the wait returns immediately.
    drained_epoch_.wait(epoch, std::memory_order_acquire);
  }
  submitted_epoch_.fetch_add(1, std::memory_order_release);
  submitted_epoch_.notify_one();
  // A producer woken from the backpressure park by stop() can win the
  // enqueue into a queue stop() already drained (its try_enqueue succeeds
  // against freed capacity). Without the repair below that request — and
  // its future — would hang until destruction.
  drain_if_stopped();
  return future;
}

void QueryService::drain_if_stopped() {
  if (!stop_requested_.load(std::memory_order_acquire)) {
    // If stop() had completed its final drain before our enqueue, this
    // load would see true (the flag is set before the drain): reading
    // false proves the enqueue landed before that drain, so the request
    // is covered by stop() itself (or by the still-running workers).
    return;
  }
  // Serialize with stop(): once we hold stop_mutex_, stop()'s join+drain
  // has finished and no worker exists — whatever is still queued is ours
  // to answer, on this thread, exactly like stop()'s own drain.
  CheckedLock stop_lock(stop_mutex_);
  GsIndex::QueryScratch scratch;
  Request request;
  while (queue_.try_dequeue(&request)) execute_guarded(request, scratch);
}

void QueryService::worker_loop() {
  GsIndex::QueryScratch scratch;
  Request request;
  for (;;) {
    // Read the park word first: an enqueue that lands after this load
    // bumps the epoch and the wait falls through (no missed wakeup).
    const std::uint64_t epoch =
        submitted_epoch_.load(std::memory_order_acquire);
    if (!queue_.try_dequeue(&request)) {
      // Queue observed empty: clear the congestion signal so the overload
      // shed never acts on a sojourn from a backlog that already drained.
      queue_sojourn_ns_.store(0, std::memory_order_relaxed);
      if (stop_requested_.load(std::memory_order_acquire)) return;
      submitted_epoch_.wait(epoch, std::memory_order_acquire);
      continue;
    }
    // CoDel signal: this request's wait is what a newly admitted request
    // should expect to sojourn (admission compares it against
    // shed_target_delay).
    queue_sojourn_ns_.store(
        ns_between(request.submit_time, std::chrono::steady_clock::now()),
        std::memory_order_relaxed);
    // Space freed: release any producer parked on backpressure.
    drained_epoch_.fetch_add(1, std::memory_order_release);
    drained_epoch_.notify_all();
    execute_guarded(request, scratch);
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
    delivery.classified = AbortReason::Exception;
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
  trace_query(obs::TraceEventKind::Mark, "serve.query.execute", request.id);
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
    if (auto degraded = degraded_delivery(key, AbortReason::DeadlineExpired)) {
      degraded->queue_seconds = queue_seconds;
      respond(request, std::move(*degraded));
      return;
    }
    Delivery delivery;
    delivery.run = std::make_shared<const ScanRun>(admission_aborted_run());
    delivery.queue_seconds = queue_seconds;
    delivery.classified = AbortReason::DeadlineExpired;
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
  const AbortReason classified = result.stats.abort_reason;
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
  if (!complete) {
    if (auto degraded = degraded_delivery(key, classified)) {
      degraded->queue_seconds = queue_seconds;
      degraded->execute_seconds = exec_seconds;
      respond(request, std::move(*degraded));
      return;
    }
  }
  Delivery delivery;
  delivery.run = std::move(run);
  delivery.execute_seconds = exec_seconds;
  delivery.queue_seconds = queue_seconds;
  delivery.num_clusters = clusters;
  delivery.num_cores = cores;
  delivery.classified = classified;
  respond(request, std::move(delivery));
}

void QueryService::respond(Request& request, Delivery delivery) {
  QueryResponse response;
  response.latency_seconds = seconds_between(
      request.submit_time, std::chrono::steady_clock::now());
  response.execute_seconds = delivery.execute_seconds;
  response.queue_seconds = delivery.queue_seconds;
  response.cache_hit = delivery.cache_hit;
  response.degraded = delivery.degraded;
  response.classified_reason = delivery.classified;
  response.id = request.id;
  response.run = std::move(delivery.run);

  // Set when this delivery transitions the breaker to Open; the flight
  // dump happens after the lock is released (no file I/O under stats).
  bool breaker_opened_now = false;
  {
    CheckedLock lock(stats_mutex_);
    completed_ += 1;
    if (delivery.cache_hit) cache_hits_ += 1;
    if (response.run->partial()) partial_ += 1;
    if (delivery.degraded) {
      degraded_hits_ += 1;
      PPSCAN_TRACE_MASTER_EVENT(options_.trace, obs::TraceEventKind::Mark,
                                "serve.degraded", request.id);
      if (flight_) {
        flight_->record(obs::FlightRecorder::EventKind::Degraded,
                        "serve.degraded", request.id);
      }
    }
    if (delivery.classified == AbortReason::Exception) {
      exceptions_ += 1;
      PPSCAN_TRACE_MASTER_EVENT(options_.trace, obs::TraceEventKind::Mark,
                                "serve.exception", request.id);
      if (flight_) {
        flight_->record(obs::FlightRecorder::EventKind::Exception,
                        "serve.exception", request.id,
                        response.run->stats.abort_detail.c_str());
      }
    }
    if (!delivery.cache_hit) counters_ += response.run->stats.counters;
    // Circuit-breaker feedback: only executed (non-cache-hit) outcomes
    // count — a memoized answer says nothing about execution health. The
    // half-open probe's outcome settles the breaker; a streak of
    // exception-classified failures opens it.
    if (options_.breaker_failure_threshold > 0 && delivery.cache_hit) {
      // A half-open probe can be answered by execute()'s second cache
      // probe (another query populated the entry between admission and
      // execution). That outcome says nothing about execution health, but
      // the probe slot MUST be released: leaving breaker_probe_in_flight_
      // set wedges the breaker half-open forever — every later non-cached
      // admission refused BreakerOpen with no probe left to settle it.
      // Stay HalfOpen so the next admission becomes a fresh probe.
      if (request.breaker_probe) breaker_probe_in_flight_ = false;
    }
    if (options_.breaker_failure_threshold > 0 && !delivery.cache_hit) {
      const bool failed = delivery.classified == AbortReason::Exception;
      if (request.breaker_probe) {
        breaker_probe_in_flight_ = false;
        if (breaker_state_ == BreakerState::HalfOpen) {
          breaker_state_ = failed ? BreakerState::Open : BreakerState::Closed;
          if (failed) breaker_opened_at_ = std::chrono::steady_clock::now();
          breaker_consecutive_failures_ = 0;
          breaker_transitions_ += 1;
          breaker_opened_now = failed;
          PPSCAN_TRACE_MASTER_EVENT(
              options_.trace, obs::TraceEventKind::Mark,
              failed ? "serve.breaker.open" : "serve.breaker.closed",
              request.id);
          if (flight_) {
            flight_->record(
                obs::FlightRecorder::EventKind::Breaker,
                failed ? "serve.breaker.open" : "serve.breaker.closed",
                request.id, "probe");
          }
        }
      } else if (failed) {
        breaker_consecutive_failures_ += 1;
        if (breaker_state_ == BreakerState::Closed &&
            breaker_consecutive_failures_ >=
                options_.breaker_failure_threshold) {
          breaker_state_ = BreakerState::Open;
          breaker_opened_at_ = std::chrono::steady_clock::now();
          breaker_transitions_ += 1;
          breaker_opened_now = true;
          PPSCAN_TRACE_MASTER_EVENT(options_.trace, obs::TraceEventKind::Mark,
                                    "serve.breaker.open", request.id);
          if (flight_) {
            flight_->record(obs::FlightRecorder::EventKind::Breaker,
                            "serve.breaker.open", request.id,
                            "failure streak");
          }
        }
      } else {
        breaker_consecutive_failures_ = 0;
      }
    }
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
      record.abort_reason = delivery.classified;
      record.cache_hit = delivery.cache_hit;
      record.degraded = delivery.degraded;
      if (recent_.size() < options_.max_recorded_queries) {
        recent_.push_back(std::move(record));
      } else {
        recent_[recent_head_] = std::move(record);
        recent_head_ = (recent_head_ + 1) % recent_.size();
      }
    }
    trace_query_locked(obs::TraceEventKind::SpanEnd, "serve.query",
                       request.id);
  }
  if (breaker_opened_now && flight_ && !options_.flight_dump_path.empty()) {
    // Breaker-open is exactly when a post-mortem wants the last seconds of
    // admission history; snapshot it while the evidence is fresh.
    flight_->dump_to_file(options_.flight_dump_path, "breaker-open");
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
  if (cache_.size() >= options_.cache_capacity &&
      cache_.find(key) == cache_.end()) {
    // Wholesale eviction: parameter spaces are tiny, an LRU chain would be
    // bookkeeping for its own sake.
    cache_.clear();
  }
  cache_[key] = std::move(value);
}

std::optional<QueryService::CachedResult> QueryService::cache_nearest(
    const CacheKey& key) {
  CheckedLock lock(cache_mutex_);
  if (cache_.empty()) return std::nullopt;
  const double eps =
      static_cast<double>(key.num) / static_cast<double>(key.den);
  const CachedResult* best = nullptr;
  double best_eps_dist = 0;
  double best_mu_dist = 0;
  for (const auto& [k, v] : cache_) {
    const double eps_dist = std::fabs(
        static_cast<double>(k.num) / static_cast<double>(k.den) - eps);
    const double mu_dist = std::fabs(static_cast<double>(k.mu) -
                                     static_cast<double>(key.mu));
    if (best == nullptr || eps_dist < best_eps_dist ||
        (eps_dist == best_eps_dist && mu_dist < best_mu_dist)) {
      best = &v;
      best_eps_dist = eps_dist;
      best_mu_dist = mu_dist;
    }
  }
  return *best;
}

std::optional<QueryService::Delivery> QueryService::degraded_delivery(
    const CacheKey& key, AbortReason reason) {
  if (!options_.degraded_serving || !options_.cache_results) {
    return std::nullopt;
  }
  auto nearest = cache_nearest(key);
  if (!nearest.has_value()) return std::nullopt;
  Delivery delivery;
  delivery.run = std::move(nearest->run);
  delivery.degraded = true;
  delivery.num_clusters = nearest->num_clusters;
  delivery.num_cores = nearest->num_cores;
  delivery.classified = reason;
  return delivery;
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
  CheckedLock stop_lock(stop_mutex_);
  if (stopped_) return;
  stopped_ = true;
  stop_requested_.store(true, std::memory_order_release);
  submitted_epoch_.fetch_add(1, std::memory_order_release);
  submitted_epoch_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Unblock producers parked on backpressure; their retry observes the
  // stop flag and throws.
  drained_epoch_.fetch_add(1, std::memory_order_release);
  drained_epoch_.notify_all();
  // Lossless shutdown for everything that made it into the queue: requests
  // no worker took are answered here, on the stopping thread, with its own
  // scratch (no concurrency left).
  GsIndex::QueryScratch scratch;
  Request request;
  while (queue_.try_dequeue(&request)) execute_guarded(request, scratch);
  if (publisher_.joinable()) {
    {
      CheckedLock pub_lock(publisher_mutex_);
      publisher_stop_ = true;
    }
    publisher_cv_.notify_all();
    publisher_.join();
  }
  if (flight_) {
    flight_->record(obs::FlightRecorder::EventKind::Lifecycle, "serve.stop");
    if (!options_.flight_dump_path.empty()) {
      flight_->dump_to_file(options_.flight_dump_path, "stop");
    }
  }
}

void QueryService::publisher_loop() {
  // Fixed-cadence ticks anchored to the service start so a slow tick does
  // not smear the window grid. The wait is an explicit while-loop on the
  // native handle (docs/memory_model.md rule 3); publish_tick() runs with
  // no publisher lock held, so the only lock edge here is 15 → nothing.
  auto next_tick = start_time_ + options_.stats_interval;
  for (;;) {
    {
      CheckedLock lock(publisher_mutex_);
      while (!publisher_stop_ &&
             std::chrono::steady_clock::now() < next_tick) {
        publisher_cv_.wait_until(lock.native(), next_tick);
      }
      if (publisher_stop_) break;
    }
    publish_tick();
    next_tick += options_.stats_interval;
    // If ticks fell behind (suspended VM, debugger), realign rather than
    // burst-publish a pile of empty windows.
    const auto now = std::chrono::steady_clock::now();
    if (next_tick < now) next_tick = now + options_.stats_interval;
  }
  // One final fold so the tail of traffic lands in the last window before
  // snapshot() consumers read it post-stop.
  publish_tick();
}

void QueryService::publish_tick() {
  const auto now = std::chrono::steady_clock::now();
  CheckedLock lock(stats_mutex_);
  windowed_.publish(latency_, now);
  interval_seconds_ = seconds_between(last_publish_time_, now);
  last_publish_time_ = now;
  // Saturating deltas: submitted_ transiently steps back on a queue-full
  // refund, so a naive subtract could wrap.
  const auto delta = [](std::uint64_t cur, std::uint64_t prev) {
    return cur >= prev ? cur - prev : 0;
  };
  interval_submitted_ = delta(submitted_, pub_submitted_);
  interval_completed_ = delta(completed_, pub_completed_);
  interval_rejected_ = delta(rejected_, pub_rejected_);
  pub_submitted_ = submitted_;
  pub_completed_ = completed_;
  pub_rejected_ = rejected_;
}

void QueryService::trace_query_locked(obs::TraceEventKind kind,
                                      const char* name, std::uint64_t id) {
  PPSCAN_TRACE_MASTER_EVENT(options_.trace, kind, name, id);
#if !PPSCAN_TRACE_ENABLED
  (void)kind;
  (void)name;
  (void)id;
#endif
}

void QueryService::trace_query(obs::TraceEventKind kind, const char* name,
                               std::uint64_t id) {
  if (options_.trace == nullptr) return;
  CheckedLock lock(stats_mutex_);
  trace_query_locked(kind, name, id);
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
    snap.shed_breaker = shed_breaker_;
    snap.retries_advised = retries_advised_;
    snap.breaker_transitions = breaker_transitions_;
    switch (breaker_state_) {
      case BreakerState::Closed: snap.breaker_state = "closed"; break;
      case BreakerState::Open: snap.breaker_state = "open"; break;
      case BreakerState::HalfOpen: snap.breaker_state = "half-open"; break;
    }
    snap.degraded_hits = degraded_hits_;
    snap.counters = counters_;
    snap.latency = latency_;
    if (windowed_.enabled()) {
      snap.window = windowed_.window(std::chrono::steady_clock::now());
      snap.window_seconds =
          std::chrono::duration_cast<std::chrono::duration<double>>(
              windowed_.horizon())
              .count();
      snap.publishes = windowed_.publishes();
      snap.interval_seconds = interval_seconds_;
      snap.interval_submitted = interval_submitted_;
      snap.interval_completed = interval_completed_;
      snap.interval_rejected = interval_rejected_;
    }
    snap.recent.reserve(recent_.size());
    for (std::size_t i = 0; i < recent_.size(); ++i) {
      snap.recent.push_back(recent_[(recent_head_ + i) % recent_.size()]);
    }
  }
  if (flight_) snap.flight_recorded = flight_->recorded();
  snap.uptime_seconds =
      seconds_between(start_time_, std::chrono::steady_clock::now());
  snap.num_threads = options_.num_threads;
  return snap;
}

}  // namespace ppscan::serve
