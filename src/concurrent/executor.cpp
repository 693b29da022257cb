#include "concurrent/executor.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "concurrent/run_governor.hpp"
#include "util/fault_point.hpp"

namespace ppscan {
namespace {

using Clock = std::chrono::steady_clock;

/// Consecutive empty scans a worker tolerates (with yields) before parking
/// on the futex. Small: phases are dense, so an empty scan usually means
/// the phase tail is draining and the next wake is the phase barrier.
constexpr int kSpinRounds = 64;

constexpr std::uint64_t kLow32 = 0xffffffffull;

std::uint64_t tag_of(std::uint64_t packed) { return packed >> 32; }

std::uint64_t elapsed_ns(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

// Identifies the calling thread as worker `t_index` of executor `t_owner`
// (set once per worker thread; foreign threads keep the nullptr default).
thread_local const Executor* t_owner = nullptr;
thread_local int t_index = -1;

}  // namespace

Executor::Executor(int num_threads) : num_workers_(num_threads) {
  if (num_threads < 1) {
    throw std::invalid_argument("Executor: need at least one thread");
  }
  const auto n = static_cast<std::size_t>(num_threads);
  workers_.reserve(n);
  for (int i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (int i = 0; i < num_threads; ++i) {
    workers_[static_cast<std::size_t>(i)]->thread =
        std::thread([this, i] { worker_loop(i); });
  }
}

Executor::~Executor() {
  stop_.store(true, std::memory_order_release);
  wake_workers();
  for (auto& w : workers_) w->thread.join();
}

int Executor::current_worker() const {
  return t_owner == this ? t_index : -1;
}

void Executor::run(const TaskRange* tasks, std::size_t count, RangeFn fn,
                   void* ctx) {
  fn_ = fn;
  ctx_ = ctx;
  tasks_ = tasks;
  const std::uint32_t p = phase_.load(std::memory_order_relaxed) + 1;
  if (count > 0) {
    pending_.fetch_add(static_cast<std::uint32_t>(count),
                       std::memory_order_relaxed);
    // Contiguous per-worker segments of the flat task array: worker w owns
    // [count*w/W, count*(w+1)/W). Claims are CASes on the tagged cursors,
    // so exhausted workers drain neighbors' segments with the same
    // one-CAS operation (= stealing).
    const auto total = static_cast<std::uint64_t>(count);
    const auto workers = static_cast<std::uint64_t>(num_workers_);
    for (std::uint64_t w = 0; w < workers; ++w) {
      const std::uint64_t beg = total * w / workers;
      const std::uint64_t end = total * (w + 1) / workers;
      Worker& worker = *workers_[static_cast<std::size_t>(w)];
      worker.segment_end.store((static_cast<std::uint64_t>(p) << 32) | end,
                               std::memory_order_relaxed);
      worker.cursor.store((static_cast<std::uint64_t>(p) << 32) | beg,
                          std::memory_order_relaxed);
    }
  }
  phase_.store(p, std::memory_order_release);
  if (count > 0) wake_workers();
  wait_idle();
}

void Executor::record_task_failure(RunGovernor* gov) {
  const std::exception_ptr failure = std::current_exception();
  if (gov != nullptr) {
    // Governed run: the exception becomes a classified abort, first trip
    // wins exactly like a deadline or budget trip. Re-raise to recover the
    // typed what() — this catch never escapes.
    try {
      std::rethrow_exception(failure);
    } catch (const std::exception& e) {
      gov->record_exception(e.what());
    } catch (...) {
      gov->record_exception("non-std exception");
    }
    return;
  }
  {
    CheckedLock lock(failure_mutex_);
    if (!first_failure_) first_failure_ = failure;
  }
  task_failed_.store(true, std::memory_order_release);
}

void Executor::wait_idle() {
  // Plain futex park even under governance: the workers poll the deadline
  // themselves, so the master adds no periodic wakeups (and no
  // barrier-latency quantization) to governed runs.
  std::uint32_t outstanding = pending_.load(std::memory_order_acquire);
  while (outstanding != 0) {
    pending_.wait(outstanding, std::memory_order_acquire);
    outstanding = pending_.load(std::memory_order_acquire);
  }
  // Ungoverned firewall delivery: every task has finished (the check above
  // drained), so siblings of the failing task ran to completion; now the
  // first captured exception surfaces on the master. Cleared so the
  // executor stays reusable for the next phase.
  if (task_failed_.load(std::memory_order_acquire)) {
    std::exception_ptr failure;
    {
      CheckedLock lock(failure_mutex_);
      failure = first_failure_;
      first_failure_ = nullptr;
    }
    // Release keeps the clear inside the protocol's store set; the next
    // failing worker's acquire-free CAS-less publish path only needs the
    // flag itself, so the ordering is free correctness margin, not cost —
    // this runs once per failed phase, never per task.
    task_failed_.store(false, std::memory_order_release);
    if (failure) std::rethrow_exception(failure);
  }
}

void Executor::wake_workers() {
  epoch_.fetch_add(1, std::memory_order_release);
  // libstdc++ tracks waiters per futex word and skips the syscall when no
  // worker is parked.
  epoch_.notify_all();
}

void Executor::finish_one_task() {
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Phase drained: wake the master (pending_) and any worker parked
    // mid-phase (epoch_) so it can close its idle stopwatch.
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    pending_.notify_all();
  }
}

bool Executor::claim_from_segment(int victim, std::uint32_t tag,
                                  std::uint32_t* out) {
  Worker& w = *workers_[static_cast<std::size_t>(victim)];
  const std::uint64_t end_packed =
      w.segment_end.load(std::memory_order_relaxed);
  if (tag_of(end_packed) != tag) return false;
  const std::uint64_t end = end_packed & kLow32;
  std::uint64_t cur = w.cursor.load(std::memory_order_relaxed);
  while (tag_of(cur) == tag && (cur & kLow32) < end) {
    // Same-tag increment never carries into the tag bits: index < end.
    if (w.cursor.compare_exchange_weak(cur, cur + 1,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
      *out = static_cast<std::uint32_t>(cur & kLow32);
      return true;
    }
  }
  return false;
}

bool Executor::try_claim(int self, TaskRange* out) {
  // Visibility: this acquire pairs with the release store in run(), so a
  // tag-validated claim below implies fn_/ctx_/tasks_ of that phase are
  // visible.
  const auto p = phase_.load(std::memory_order_acquire);
  std::uint32_t index;
  if (claim_from_segment(self, p, &index)) {
    *out = tasks_[index];
    return true;
  }
  // Ring scan over every other worker: self + 1, self + 2, … mod n.
  for (int d = 1; d < num_workers_; ++d) {
    const int victim = (self + d) % num_workers_;
    if (claim_from_segment(victim, p, &index)) {
      workers_[static_cast<std::size_t>(self)]->steals.fetch_add(
          1, std::memory_order_relaxed);
      record_steal(self, victim);
      *out = tasks_[index];
      return true;
    }
  }
  return false;
}

void Executor::execute(TaskRange range, Worker& self, int self_index) {
  // Claim boundary: token poll and deadline poll on every claim (one
  // relaxed load, plus one clock read only when a deadline is set), so the
  // cancellation drain costs one claim + one counter per remaining task,
  // no locks.
  RunGovernor* gov = governor_.load(std::memory_order_acquire);
  const bool stop = gov != nullptr && gov->poll_deadline();
  if (stop) {
    self.skipped.fetch_add(1, std::memory_order_relaxed);
#if PPSCAN_TRACE_ENABLED
    if (obs::TraceCollector* tc = trace_.load(std::memory_order_acquire);
        tc != nullptr && tc->task_events()) {
      tc->emit(self_index, obs::TraceEventKind::TaskSkip, tc->phase_name(),
               range.beg);
    }
#endif
  } else {
    const auto t0 = Clock::now();
    // Exception firewall: the task boundary is the containment line. A
    // throwing body never unwinds the worker loop — it is caught here,
    // classified (governed → AbortReason::Exception trip, which makes the
    // rest of the phase skip-drain; ungoverned → captured for wait_idle's
    // master-side rethrow), and the worker keeps claiming.
    bool ok = true;
    try {
      PPSCAN_FAULT_POINT("executor.task");
      fn_(ctx_, range.beg, range.end);
    } catch (...) {
      ok = false;
      record_task_failure(gov);
    }
    const auto t1 = Clock::now();
    self.busy_ns.fetch_add(elapsed_ns(t0, t1), std::memory_order_relaxed);
    if (ok) {
      self.executed.fetch_add(1, std::memory_order_relaxed);
    } else {
      self.failed.fetch_add(1, std::memory_order_relaxed);
    }
#if PPSCAN_TRACE_ENABLED
    // Reuses the busy-stopwatch clock reads, so tracing adds no extra
    // Clock::now() per task — only the record() when a collector is
    // installed and per-task events are on.
    if (obs::TraceCollector* tc = trace_.load(std::memory_order_acquire);
        tc != nullptr && tc->task_events()) {
      if (ok) {
        tc->buffer(self_index)
            .record(obs::TraceEventKind::TaskRun, tc->phase_name(),
                    tc->since_epoch_ns(t0), elapsed_ns(t0, t1), range.beg);
      } else {
        tc->emit(self_index, obs::TraceEventKind::Mark, "task-exception",
                 range.beg);
      }
    }
#endif
  }
#if !PPSCAN_TRACE_ENABLED
  (void)self_index;
#endif
  finish_one_task();
}

void Executor::worker_loop(int index) {
  t_owner = this;
  t_index = index;
  Worker& self = *workers_[static_cast<std::size_t>(index)];

  // Idle stopwatch: runs from the first failed scan while a phase is in
  // flight until the next claim (or the phase barrier), so it measures load
  // imbalance rather than master-side serial gaps between phases.
  bool idling = false;
  Clock::time_point idle_start;
  const auto flush_idle = [&] {
    if (idling) {
      self.idle_ns.fetch_add(elapsed_ns(idle_start, Clock::now()),
                             std::memory_order_relaxed);
      idling = false;
    }
  };

  int failures = 0;
  TaskRange range;
  for (;;) {
    const std::uint32_t seen = epoch_.load(std::memory_order_acquire);
    // run() is a full barrier, so nothing is outstanding once stop_ is set.
    if (stop_.load(std::memory_order_relaxed)) return;
    if (try_claim(index, &range)) {
      flush_idle();
      failures = 0;
      execute(range, self, index);
      continue;
    }
    if (pending_.load(std::memory_order_relaxed) != 0) {
      if (!idling) {
        idling = true;
        idle_start = Clock::now();
      }
      if (++failures < kSpinRounds) {
        std::this_thread::yield();
        continue;
      }
    } else {
      flush_idle();
    }
    failures = 0;
    // epoch_ was read before the scan, so any work published after that
    // read makes this wait return immediately — no missed wakeup.
    epoch_.wait(seen, std::memory_order_acquire);
  }
}

ExecutorStats Executor::stats() const {
  ExecutorStats s;
  for (const auto& w : workers_) {
    s.tasks_executed += w->executed.load(std::memory_order_relaxed);
    s.tasks_skipped += w->skipped.load(std::memory_order_relaxed);
    s.tasks_failed += w->failed.load(std::memory_order_relaxed);
    s.steals += w->steals.load(std::memory_order_relaxed);
    s.busy_seconds +=
        static_cast<double>(w->busy_ns.load(std::memory_order_relaxed)) *
        1e-9;
    s.idle_seconds +=
        static_cast<double>(w->idle_ns.load(std::memory_order_relaxed)) *
        1e-9;
  }
  return s;
}

}  // namespace ppscan
