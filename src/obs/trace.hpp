// Per-worker event tracing: fixed-capacity ring buffers a run can carry
// through the executor and every algorithm phase, exported afterwards as a
// Chrome/Perfetto trace (obs/trace_json.hpp).
//
// Design constraints, in order:
//   1. Zero allocation and no synchronization on the hot path. Every
//      TraceBuffer has exactly one writer (worker i writes buffer i, the
//      orchestrating thread writes the master slot), so an event record is
//      two plain stores and a relaxed cursor bump into pre-allocated,
//      cache-line-padded storage.
//   2. Fully compiled out when configured with -DPPSCAN_TRACE=OFF: record()
//      and the PPSCAN_TRACE_* macros expand to nothing, buffers allocate
//      nothing. The types stay defined so callers need no #ifdefs.
//   3. Readers (the exporters) run strictly after the run's join/barrier,
//      which is the happens-before edge that publishes the plain event
//      payloads; snapshot() documents this contract.
//
// See docs/observability.md for the event catalog and Perfetto how-to.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#if !defined(PPSCAN_TRACE_ENABLED)
// Builds that bypass CMake (e.g. single-TU experiments) default to ON.
#define PPSCAN_TRACE_ENABLED 1
#endif

namespace ppscan::obs {

/// True when the tracing hooks were compiled in (CMake -DPPSCAN_TRACE=ON,
/// the default). When false every TraceBuffer stays empty and the CLI
/// warns that --trace-out will produce an event-free trace.
inline constexpr bool kTraceEnabled = PPSCAN_TRACE_ENABLED != 0;

/// What happened. The catalog (with the meaning of `arg` per kind) is
/// documented in docs/observability.md; keep the two in sync.
enum class TraceEventKind : std::uint8_t {
  PhaseBegin,      ///< algorithm phase entered (master slot)
  PhaseEnd,        ///< algorithm phase left (master slot)
  TaskRun,         ///< executor task executed; dur_ns is the fn_ call span
  TaskSkip,        ///< executor task skipped because the governor tripped
  Steal,           ///< successful steal; arg = victim worker index
  GovernorTrip,    ///< governor abort observed; arg = AbortReason value
  KernelDispatch,  ///< SIMD kernel resolved for a run; arg = IntersectKind
  Mark,            ///< free-form instant (name carries the meaning)
  SpanBegin,       ///< async span opened; arg = span id (e.g. query id)
  SpanEnd,         ///< async span closed; arg = matching span id
};

/// One recorded event. `name` must point at storage that outlives the
/// collector — in practice string literals (phase names, event labels).
struct TraceEvent {
  std::uint64_t t_ns = 0;    ///< start, steady-clock ns since collector epoch
  std::uint64_t dur_ns = 0;  ///< span length; 0 for instant events
  std::uint64_t arg = 0;     ///< kind-specific payload
  const char* name = nullptr;
  TraceEventKind kind = TraceEventKind::Mark;
};

/// Fixed-capacity single-writer ring of TraceEvents. The cursor counts
/// every record() ever made; once it exceeds the capacity the ring keeps
/// only the newest `capacity()` events (overwrite-oldest, which for a
/// trace is the right half to lose: the tail shows where time went).
class TraceBuffer {
 public:
  /// Capacity is rounded up to a power of two, minimum 64. With tracing
  /// compiled out nothing is allocated and record() is a no-op.
  explicit TraceBuffer(std::size_t capacity);

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  /// Hot path. Single writer only — two plain stores plus a relaxed
  /// cursor bump; concurrent record() calls on the SAME buffer are a data
  /// race by design (each thread owns its own buffer).
  void record(TraceEventKind kind, const char* name, std::uint64_t t_ns,
              std::uint64_t dur_ns = 0, std::uint64_t arg = 0) {
#if PPSCAN_TRACE_ENABLED
    const std::uint64_t seq = cursor_.load(std::memory_order_relaxed);
    TraceEvent& slot = events_[static_cast<std::size_t>(seq) & mask_];
    slot.t_ns = t_ns;
    slot.dur_ns = dur_ns;
    slot.arg = arg;
    slot.name = name;
    slot.kind = kind;
    cursor_.store(seq + 1, std::memory_order_relaxed);
#else
    (void)kind;
    (void)name;
    (void)t_ns;
    (void)dur_ns;
    (void)arg;
#endif
  }

  /// Total events ever recorded (may exceed capacity; the difference is
  /// the number of overwritten/lost oldest events).
  [[nodiscard]] std::uint64_t recorded() const {
    return cursor_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const { return events_.size(); }

  /// Copies the retained events oldest-first. NOT safe concurrently with
  /// record(): callers must hold a happens-before edge from the writer
  /// (thread join, the barrier at the end of Executor::run, or an external
  /// release/acquire handoff as in tests/test_trace_buffer_mt.cpp).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

 private:
  std::vector<TraceEvent> events_;
  std::size_t mask_ = 0;
  // Single-writer event count. Both sides relaxed: the cursor orders
  // nothing — readers are published by an external happens-before edge
  // (join/barrier), and the writer is alone, so plain increments suffice.
  // protocol: relaxed-counter
  std::atomic<std::uint64_t> cursor_{0};
};

/// Owns one TraceBuffer per participating thread plus the collector-wide
/// steady-clock epoch. Slot layout: [0, num_workers) = executor workers,
/// master_slot() = the orchestrating (calling) thread. Each slot has
/// exactly one writer.
class TraceCollector {
 public:
  /// `capacity` 0 reads PPSCAN_TRACE_CAP (events per buffer, default
  /// 16384; see util/env.hpp for the parse rules).
  explicit TraceCollector(int num_workers, std::size_t capacity = 0);

  [[nodiscard]] int num_workers() const { return num_workers_; }
  [[nodiscard]] int master_slot() const { return num_workers_; }
  [[nodiscard]] int num_slots() const { return num_workers_ + 1; }

  [[nodiscard]] TraceBuffer& buffer(int slot) { return *buffers_[slot]; }
  [[nodiscard]] const TraceBuffer& buffer(int slot) const {
    return *buffers_[slot];
  }

  /// Steady-clock ns since the collector was constructed.
  [[nodiscard]] std::uint64_t now_ns() const {
    return since_epoch_ns(std::chrono::steady_clock::now());
  }

  /// Converts a caller-measured time_point (e.g. the executor's existing
  /// busy-time stopwatch reads) onto the collector's epoch.
  [[nodiscard]] std::uint64_t since_epoch_ns(
      std::chrono::steady_clock::time_point tp) const {
    if (tp <= epoch_) return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(tp - epoch_)
            .count());
  }

  /// Current phase label, set by the orchestrating thread at the phase
  /// barrier and read by workers to label their TaskRun events.
  void set_phase(const char* name) {
    current_phase_.store(name, std::memory_order_release);
  }
  [[nodiscard]] const char* phase_name() const {
    const char* p = current_phase_.load(std::memory_order_acquire);
    return p == nullptr ? "(no phase)" : p;
  }

  /// Whether per-task events (TaskRun/TaskSkip/Steal) are recorded.
  /// Phase spans are always cheap; per-task events cost one record() per
  /// executed task range, so PPSCAN_TRACE_TASKS=0 turns them off.
  [[nodiscard]] bool task_events() const { return task_events_; }

  /// Records an instant (or Begin/End) event timestamped now.
  void emit(int slot, TraceEventKind kind, const char* name,
            std::uint64_t arg = 0) {
    buffer(slot).record(kind, name, now_ns(), 0, arg);
  }

 private:
  int num_workers_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
  std::chrono::steady_clock::time_point epoch_;
  bool task_events_ = true;
  // Phase label handoff master → workers. The release store at the phase
  // barrier pairs with the acquire load in the executor's task loop; the
  // payload is a string literal so only the pointer itself needs the edge.
  // protocol: release-acquire
  std::atomic<const char*> current_phase_{nullptr};
};

}  // namespace ppscan::obs

// Emit macros. These compile to nothing with PPSCAN_TRACE=OFF, so an
// annotated call site costs literally zero there; with tracing on they
// cost a null check when no collector is installed.
//
// Hot-path discipline: these macros must NOT appear in src/setops/ — the
// intersection kernels are the innermost loops of every algorithm and a
// per-element event would drown both the buffer and the run. Kernel
// dispatch is recorded once per run at the algorithm layer instead
// (TraceEventKind::KernelDispatch). Enforced by the `trace-hotpath` rule
// in tools/lint/ppscan_lint.py.
#if PPSCAN_TRACE_ENABLED
#define PPSCAN_TRACE_MASTER_EVENT(tc, kind, name, arg)              \
  do {                                                              \
    ::ppscan::obs::TraceCollector* pp_trace_tc_ = (tc);             \
    if (pp_trace_tc_ != nullptr) {                                  \
      pp_trace_tc_->emit(pp_trace_tc_->master_slot(), (kind), (name), \
                         static_cast<std::uint64_t>(arg));          \
    }                                                               \
  } while (0)
#define PPSCAN_TRACE_SET_PHASE(tc, name)                \
  do {                                                  \
    ::ppscan::obs::TraceCollector* pp_trace_tc_ = (tc); \
    if (pp_trace_tc_ != nullptr) {                      \
      pp_trace_tc_->set_phase(name);                    \
    }                                                   \
  } while (0)
#else
#define PPSCAN_TRACE_MASTER_EVENT(tc, kind, name, arg) \
  do {                                                 \
    (void)sizeof(tc);                                  \
  } while (0)
#define PPSCAN_TRACE_SET_PHASE(tc, name) \
  do {                                   \
    (void)sizeof(tc);                    \
  } while (0)
#endif
