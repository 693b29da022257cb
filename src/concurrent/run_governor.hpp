// Run governance for the execution runtime: cooperative cancellation,
// wall-clock deadlines and memory budgets.
//
// A governed clustering call can be stopped before it completes: by a
// wall-clock deadline, by a memory budget that would otherwise let a
// similarity array on a web-scale graph kill the process, or by an external
// canceller such as a signal handler. The RunGovernor turns each of those
// into a *labeled partial result*:
//
//   * CancelToken — a single atomic word encoding
//     {running, user-cancelled, deadline-expired, budget-exceeded,
//     exception}. Tripping is one CAS (first reason wins) and is
//     async-signal-safe, so a SIGINT handler can trip it directly. Polling
//     is one relaxed load. Workers poll at task-claim boundaries and phase
//     bodies poll at range granularity, so a cancelled run drains in
//     O(one task) without locks.
//   * RunLimits.deadline — a monotonic-clock check made by the threads that
//     do the work: at every executor task claim, every kGovernorPollStride
//     vertices inside a scheduled range, and at every phase entry, so the
//     deadline fires even while every worker is inside a long range.
//   * RunLimits.memory_budget_bytes — a counting hook the algorithms charge
//     before each big phase allocation (similarity arrays, membership
//     slots, union-find, reverse index). Overshoot — or an actual
//     std::bad_alloc — trips the token with BudgetExceeded instead of
//     crashing; the run returns a partial result labeled with the phase
//     and the attempted byte count.
//
// Cooperation contract: governance is *cooperative*. A task body that never
// returns and never polls the token cannot be reclaimed safely (killing a
// thread that may hold arbitrary state is worse than reporting), so every
// phase body in this library polls the token and no body blocks: in-tree
// runs always drain.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace ppscan {

/// Why a governed run stopped early. None = ran to completion.
enum class AbortReason : std::uint8_t {
  None = 0,
  UserCancelled = 1,    // external trip (SIGINT/SIGTERM, caller request)
  DeadlineExpired = 2,  // RunLimits::deadline
  BudgetExceeded = 3,   // RunLimits::memory_budget_bytes (or bad_alloc)
  // 4 is retired; the values are stable because trace args record them.
  Exception = 5,        // a phase/task body threw; the firewall classified it
};

const char* to_string(AbortReason reason);

/// The single atomic word of the governance layer. 0 = running; any other
/// value is the AbortReason that tripped it. First trip wins; later trips
/// (e.g. the deadline firing after a SIGINT) are ignored so the recorded
/// reason is the root cause.
class CancelToken {
 public:
  /// One CAS; returns true when this call performed the trip. Lock-free
  /// and allocation-free, therefore safe from a signal handler.
  bool trip(AbortReason reason) {
    std::uint32_t expected = 0;
    return state_.compare_exchange_strong(
        expected, static_cast<std::uint32_t>(reason),
        std::memory_order_acq_rel, std::memory_order_acquire);
  }

  /// Hot-path poll: one relaxed load of one word.
  [[nodiscard]] bool cancelled() const {
    return state_.load(std::memory_order_relaxed) != 0;
  }

  [[nodiscard]] AbortReason reason() const {
    return static_cast<AbortReason>(state_.load(std::memory_order_acquire));
  }

  /// Re-arm for another run. Caller must be at a barrier (no concurrent
  /// pollers that still care about the previous run).
  void reset() { state_.store(0, std::memory_order_release); }

 private:
  // protocol: cancel-token — 0 = running, else the AbortReason; first-trip-
  // wins acq_rel CAS, relaxed hot-path polls, release store only in reset().
  std::atomic<std::uint32_t> state_{0};
};

/// Resource limits of one governed run. Zero values mean "unlimited" — a
/// default-constructed RunLimits governs nothing and costs (almost) nothing.
struct RunLimits {
  /// Wall-clock budget from RunGovernor construction. 0 = none.
  std::chrono::milliseconds deadline{0};
  /// Byte budget for the big phase allocations. 0 = none.
  std::uint64_t memory_budget_bytes = 0;
  /// Deterministic test hook: trip UserCancelled when the run *enters* the
  /// phase with this 1-based ordinal (so phases < N complete, phase N and
  /// later never execute). -1 = off.
  int cancel_at_phase = -1;

  [[nodiscard]] bool any_set() const {
    return deadline.count() > 0 || memory_budget_bytes > 0 ||
           cancel_at_phase >= 0;
  }
};

/// Typed description of an aborted run, recorded into RunStats and printed
/// by the CLI. reason == None means the run completed.
struct RunAborted {
  AbortReason reason = AbortReason::None;
  std::string phase;        // phase active when the trip happened
  std::uint64_t bytes = 0;  // attempted charge for BudgetExceeded
  std::string detail;       // e.what() (truncated) for Exception

  [[nodiscard]] std::string describe() const;
};

/// Per-run governance state shared by the master, the workers and (via a
/// pointer) an external canceller such as a signal handler. One governor
/// per clustering call; thread-safe for the operations the hot paths use
/// (token polls, deadline polls, charges).
class RunGovernor {
 public:
  /// Ungoverned: no limits, owns its token. should_stop() stays false
  /// unless someone trips the token explicitly.
  RunGovernor() : RunGovernor(RunLimits{}, nullptr) {}

  /// `external` (optional) supplies the token — the caller keeps ownership
  /// and may trip it from outside (signal handlers, other threads). The
  /// governor never outlives a run, the token may.
  explicit RunGovernor(const RunLimits& limits,
                       CancelToken* external = nullptr);

  RunGovernor(const RunGovernor&) = delete;
  RunGovernor& operator=(const RunGovernor&) = delete;

  [[nodiscard]] CancelToken& token() { return *token_; }
  [[nodiscard]] const CancelToken& token() const { return *token_; }
  [[nodiscard]] const RunLimits& limits() const { return limits_; }

  /// Hot-path poll: one relaxed load.
  [[nodiscard]] bool should_stop() const { return token_->cancelled(); }

  /// Reads the monotonic clock and trips DeadlineExpired when the budget is
  /// spent. No-op (no clock read) without a deadline. Returns should_stop().
  /// Inline: the executor calls it on every claim and the scheduled range
  /// bodies every kGovernorPollStride vertices.
  bool poll_deadline() {
    if (limits_.deadline.count() > 0 && !token_->cancelled() &&
        std::chrono::steady_clock::now() - start_ >= limits_.deadline &&
        token_->trip(AbortReason::DeadlineExpired)) {
      abort_phase_.store(phase_name_.load(std::memory_order_acquire),
                         std::memory_order_release);
    }
    return should_stop();
  }

  /// Sequential-loop checkpoint: polls the token every call and the
  /// deadline every `kCheckpointStride` calls, so tight per-vertex loops
  /// pay a clock read only occasionally. Returns should_stop().
  bool checkpoint();

  /// Memory budget: charge `bytes` before performing a big allocation.
  /// Returns false — and trips BudgetExceeded, recording the attempted
  /// size and `what` — when the charge would overshoot the budget.
  bool try_charge(std::uint64_t bytes, const char* what);
  void uncharge(std::uint64_t bytes);
  [[nodiscard]] std::uint64_t bytes_charged() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }

  /// Converts a caught std::bad_alloc into a BudgetExceeded trip (the
  /// "would-be crash" path when no explicit budget is set).
  void record_alloc_failure(std::uint64_t bytes, const char* what);

  /// Exception firewall: converts a caught exception escaping a phase or
  /// task body into an Exception trip, recording a truncated copy of
  /// `what` for abort_info().detail. First trip wins, like every other
  /// reason — a deadline that already fired keeps its classification.
  void record_exception(const char* what);

  /// Phase bookkeeping. `enter_phase` bumps the 1-based ordinal, publishes
  /// the name for the abort report, and applies the
  /// cancel_at_phase test hook. `finish_phase` counts a completed phase —
  /// call it only when the phase ran to its barrier uncancelled.
  void enter_phase(const char* name);
  void finish_phase();
  [[nodiscard]] const char* current_phase() const {
    const char* name = phase_name_.load(std::memory_order_acquire);
    return name != nullptr ? name : "";
  }
  [[nodiscard]] int phase_ordinal() const {
    return phase_ordinal_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int phases_completed() const {
    return phases_completed_.load(std::memory_order_relaxed);
  }

  /// Snapshot of why/where the run aborted (reason None when it did not).
  [[nodiscard]] RunAborted abort_info() const;

 private:
  static constexpr std::uint64_t kCheckpointStride = 1024;

  RunLimits limits_;
  CancelToken owned_token_;
  CancelToken* token_;
  std::chrono::steady_clock::time_point start_;

  // protocol: relaxed-counter — charge ledger; exactness comes from the
  // fetch_add return values, reads are barrier-side reporting.
  std::atomic<std::uint64_t> bytes_{0};
  // protocol: relaxed-counter — monotone CAS-max of bytes_.
  std::atomic<std::uint64_t> peak_bytes_{0};
  // protocol: relaxed-counter — attempted charge recorded at the trip; read
  // only after the run has drained.
  std::atomic<std::uint64_t> abort_bytes_{0};
  // protocol: relaxed-counter — checkpoint stride clock.
  std::atomic<std::uint64_t> checkpoint_ops_{0};

  // Phase names are string literals (static storage), so publishing the
  // pointer is enough — a tripping worker may read it at any time.
  // protocol: release-acquire — publisher=master in enter_phase,
  // consumers=tripping workers/abort reporting.
  std::atomic<const char*> phase_name_{nullptr};
  // protocol: release-acquire — phase active when the trip happened.
  std::atomic<const char*> abort_phase_{nullptr};
  // protocol: relaxed-counter — 1-based phase ordinal (master-written).
  std::atomic<int> phase_ordinal_{0};
  // protocol: relaxed-counter — phases that reached their barrier.
  std::atomic<int> phases_completed_{0};

  // Exception detail. Plain storage, not atomic: only the thread that WINS
  // the Exception trip CAS writes it (record_exception), and abort_info()
  // readers run strictly after the run has drained — the executor's
  // completion barrier (or the delivered future) already orders the write
  // before any read, the same argument RunStats itself relies on.
  static constexpr std::size_t kExceptionWhatCap = 160;
  char exception_what_[kExceptionWhatCap] = {};
};

}  // namespace ppscan
