// Lock-free work-stealing execution runtime for the phase-structured
// algorithms (ppSCAN, SCAN-XP, anySCAN, GS*-Index construction).
//
// It is the only parallel runtime in the tree. A central mutex/condvar queue
// of std::function tasks would make each degree-bundled task pay a heap
// allocation, a global lock on submit and a second on completion; this
// executor drives that overhead to near zero:
//
//   * Persistent workers — spawned once, parked on a futex (C++20
//     std::atomic::wait) between phases, no condvar and no mutex anywhere.
//   * Flat phases — the master precomputes the task boundaries of a phase
//     into a flat TaskRange array and calls run(); each worker owns a
//     contiguous segment of task indices and claims them one CAS at a time
//     from a per-worker (phase-tagged) cursor. When its segment drains it
//     claims from neighbors' cursors instead: stealing is the same one-CAS
//     operation, so load balance costs nothing extra.
//   * Inline task storage — a task is the POD pair {beg, end}, read in place
//     from the caller's array; the per-phase body is installed once as a
//     plain function pointer + context. The per-task hot path performs zero
//     allocations and acquires zero mutexes.
//   * One barrier — run() returns when an atomic outstanding-task counter
//     reaches zero; the master parks on it with a futex wait and is woken by
//     the worker whose decrement gets there.
//
// Per-worker counters (tasks executed, steals, busy/idle nanoseconds) are
// accumulated with relaxed atomics and aggregated by stats() at a barrier,
// feeding the scheduler-ablation and scalability harnesses.
//
// Run governance (install_governor): with a RunGovernor installed, workers
// poll the cancel token and the wall-clock deadline at every claim boundary
// — a tripped run drains in O(one task) per worker, each remaining claimed
// range counted as skipped instead of executed — and the scheduled phase
// bodies poll both again every kGovernorPollStride vertices inside a range
// (task_scheduler.hpp), so a deadline also cuts one long range short. The
// executor runs no thread besides its workers. Without a governor every
// governed branch is a single null-pointer test on the claim path.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/thread_safety.hpp"
#include "util/types.hpp"

namespace ppscan {

class RunGovernor;

/// One task: a half-open vertex range. POD, claimed in place from the
/// caller's array so the hot path never allocates.
struct TaskRange {
  VertexId beg;
  VertexId end;
};

/// Per-phase task body, type-erased without allocation.
using RangeFn = void (*)(void* ctx, VertexId beg, VertexId end);

/// Aggregate runtime counters since construction (ppSCAN constructs one
/// executor per clustering call, so these are per-run numbers).
struct ExecutorStats {
  std::uint64_t tasks_executed = 0;  ///< ranges claimed and run by workers
  std::uint64_t tasks_skipped = 0;   ///< ranges drained by a cancelled run
  /// Ranges whose body threw: the exception firewall caught it at the task
  /// boundary, classified it (governor → AbortReason::Exception; no
  /// governor → rethrown from the master's run()), and the worker
  /// carried on. Disjoint from tasks_executed.
  std::uint64_t tasks_failed = 0;
  std::uint64_t steals = 0;          ///< claims taken from another worker
  double busy_seconds = 0;           ///< summed in-task time over workers
  double idle_seconds = 0;           ///< summed mid-phase scan/park time
};

class Executor {
 public:
  /// Spawns `num_threads` persistent workers (>= 1). Workers float freely
  /// (no pinning); an idle worker scans its victims in ring order,
  /// self + 1, self + 2, … mod num_threads.
  explicit Executor(int num_threads);

  /// Stops and joins the workers. run() is a full barrier, so no work is
  /// outstanding here.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  [[nodiscard]] int num_threads() const { return num_workers_; }

  /// Runs `fn(ctx, r.beg, r.end)` for every range in [tasks, tasks + count),
  /// then returns (full barrier; the executor stays usable for the next
  /// phase). The array must stay alive for the duration of the call; it is
  /// claimed in place — nothing is copied, allocated, or locked per task.
  ///
  /// Exception firewall: a task body that throws never unwinds a worker —
  /// the worker catches at the task boundary, counts the range as failed,
  /// and keeps claiming. With a governor installed the exception becomes a
  /// classified trip (AbortReason::Exception, detail = e.what()) and the
  /// rest of the phase skip-drains like any other cancellation; without
  /// one, the FIRST exception is captured and rethrown *here*, on the
  /// master, after every other in-flight task has finished — so sibling
  /// tasks always complete and the executor stays reusable either way.
  void run(const TaskRange* tasks, std::size_t count, RangeFn fn, void* ctx);

  /// Same, with any callable `body(VertexId beg, VertexId end)`.
  template <typename Body>
  void run(const TaskRange* tasks, std::size_t count, Body&& body) {
    using B = std::remove_reference_t<Body>;
    run(tasks, count,
        [](void* ctx, VertexId beg, VertexId end) {
          (*static_cast<B*>(ctx))(beg, end);
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(body))));
  }

  /// Index of the calling thread if it is a worker of *this* executor,
  /// -1 otherwise (master / foreign threads). Worker-local data structures
  /// (e.g. the phase-7 membership buffers) key on this.
  [[nodiscard]] int current_worker() const;

  /// Aggregated counters; call at a barrier for exact numbers.
  [[nodiscard]] ExecutorStats stats() const;

  /// Installs (or clears, with nullptr) the run governor. Master only, at a
  /// barrier — not while a phase is in flight. The governor must outlive
  /// every subsequent run() until replaced.
  void install_governor(RunGovernor* governor) {
    governor_.store(governor, std::memory_order_release);
  }
  [[nodiscard]] RunGovernor* governor() const {
    return governor_.load(std::memory_order_acquire);
  }

  /// Installs (or clears, with nullptr) the trace collector. Master only,
  /// at a barrier, same lifetime contract as install_governor: the
  /// collector must outlive every subsequent run() until replaced. Workers record TaskRun/TaskSkip/Steal events into their own
  /// slot. A no-op (beyond the pointer swap) when tracing is compiled out.
  void install_trace(obs::TraceCollector* trace) {
    trace_.store(trace, std::memory_order_release);
  }
  [[nodiscard]] obs::TraceCollector* trace() const {
    return trace_.load(std::memory_order_acquire);
  }

 private:
  // One cache line per worker: the phase-tagged claim cursor plus the
  // owner-written counters and the thread handle.
  struct alignas(64) Worker {
    /// (phase_tag << 32) | next_task_index. Claims CAS the low half up; a
    /// tag mismatch means the slot belongs to another phase and is empty.
    /// protocol: relaxed-guarded — visibility of the tasks array comes from
    /// the phase_ release/acquire pair; the tag check rejects stale claims.
    std::atomic<std::uint64_t> cursor{0};
    /// (phase_tag << 32) | one_past_last_task_index. Tagged like cursor so
    /// a stale cursor can never be validated against a fresh end (the
    /// cross-phase claim race): a claim needs tag(cursor) == tag(end) ==
    /// the phase the claimer read.
    /// protocol: relaxed-guarded — same phase-tag protocol as cursor.
    std::atomic<std::uint64_t> segment_end{0};
    std::atomic<std::uint64_t> executed{0};  // protocol: relaxed-counter
    std::atomic<std::uint64_t> skipped{0};   // protocol: relaxed-counter
    /// Task bodies that threw (caught by the exception firewall).
    std::atomic<std::uint64_t> failed{0};    // protocol: relaxed-counter
    std::atomic<std::uint64_t> steals{0};   // protocol: relaxed-counter
    std::atomic<std::uint64_t> busy_ns{0};  // protocol: relaxed-counter
    std::atomic<std::uint64_t> idle_ns{0};  // protocol: relaxed-counter
    std::thread thread;
  };

  void worker_loop(int index);
  /// Claims one range: own segment, then every other worker's segment in
  /// ring order. Counts steals on `self`.
  bool try_claim(int self, TaskRange* out);
  /// CAS-claims one task index from `victim`'s segment for phase `tag`.
  bool claim_from_segment(int victim, std::uint32_t tag, std::uint32_t* out);
  void execute(TaskRange range, Worker& self, int self_index);
  /// Firewall sink, called from execute()'s catch block (so
  /// std::current_exception() is live). Governor installed → classified
  /// trip; none → capture the first exception_ptr for wait_idle's rethrow.
  void record_task_failure(RunGovernor* gov);
  /// Trace hook for a successful steal (compiled out with PPSCAN_TRACE=OFF;
  /// the relaxed steals counter is unconditional either way).
  void record_steal(int self, int victim) {
#if PPSCAN_TRACE_ENABLED
    if (obs::TraceCollector* tc = trace_.load(std::memory_order_acquire);
        tc != nullptr && tc->task_events()) {
      tc->emit(self, obs::TraceEventKind::Steal, "steal",
               static_cast<std::uint64_t>(victim));
    }
#else
    (void)self;
    (void)victim;
#endif
  }
  void finish_one_task();
  void wake_workers();
  /// Blocks until every outstanding range has finished (futex park, no
  /// mutex), then rethrows the first ungoverned task exception, if any —
  /// the tail of run().
  void wait_idle();

  const int num_workers_;
  std::vector<std::unique_ptr<Worker>> workers_;

  // Phase state: written by the master between barriers, published by the
  // release store to phase_ and read by workers after the matching acquire.
  RangeFn fn_ = nullptr;
  void* ctx_ = nullptr;
  const TaskRange* tasks_ = nullptr;
  // protocol: release-acquire — phase tag publishing fn_/ctx_/tasks_;
  // publisher=master (release store), consumers=workers (acquire in
  // try_claim); the master's own reads are relaxed.
  std::atomic<std::uint32_t> phase_{0};

  // protocol: completion-count — outstanding (unfinished) tasks; doubles as
  // the master's futex word, acq_rel on the final decrement.
  std::atomic<std::uint32_t> pending_{0};
  // protocol: futex-epoch — bumped on new work; workers' futex word.
  std::atomic<std::uint32_t> epoch_{0};
  // protocol: release-acquire — shutdown flag; workers read it relaxed
  // because the epoch_ acquire in the same scan provides the edge.
  std::atomic<bool> stop_{false};
  // Governor and trace collector: written by the master at barriers, read
  // by workers per claim; atomic so a worker spinning between phases never
  // races the install.
  // protocol: release-acquire — publisher=master in install_governor
  // (release store), consumers=workers (acquire load per claim).
  std::atomic<RunGovernor*> governor_{nullptr};
  // protocol: release-acquire — publisher=master in install_trace (release
  // store), consumers=workers (acquire load per use).
  std::atomic<obs::TraceCollector*> trace_{nullptr};

  // Ungoverned-run exception firewall: first_failure_ holds the first
  // exception a task body threw (workers race for it under failure_mutex_;
  // losers are dropped, matching "first trip wins" on the governed path)
  // and wait_idle() rethrows it on the master. task_failed_ lets the
  // master skip the mutex entirely on the clean path.
  // protocol: release-acquire — publisher=failing worker (release store
  // after filling first_failure_), consumer=master in wait_idle (acquire
  // load after pending_ hit zero, which already orders the write).
  std::atomic<bool> task_failed_{false};
  // guards: first_failure_ — workers race to fill it, master swaps it out.
  CheckedMutex failure_mutex_;
  std::exception_ptr first_failure_ PPSCAN_GUARDED_BY(failure_mutex_);
};

}  // namespace ppscan
