#include "concurrent/run_governor.hpp"

namespace ppscan {

const char* to_string(AbortReason reason) {
  switch (reason) {
    case AbortReason::None: return "none";
    case AbortReason::UserCancelled: return "user-cancelled";
    case AbortReason::DeadlineExpired: return "deadline-expired";
    case AbortReason::BudgetExceeded: return "budget-exceeded";
    case AbortReason::Exception: return "exception";
  }
  return "?";
}

std::string RunAborted::describe() const {
  if (reason == AbortReason::None) return "completed";
  std::string text = to_string(reason);
  if (!phase.empty()) text += " in phase " + phase;
  if (reason == AbortReason::BudgetExceeded && bytes > 0) {
    text += " (" + std::to_string(bytes) + " bytes requested)";
  }
  if (reason == AbortReason::Exception && !detail.empty()) {
    text += " (" + detail + ")";
  }
  return text;
}

RunGovernor::RunGovernor(const RunLimits& limits, CancelToken* external)
    : limits_(limits),
      token_(external != nullptr ? external : &owned_token_),
      start_(std::chrono::steady_clock::now()) {}

bool RunGovernor::checkpoint() {
  if (limits_.deadline.count() > 0 &&
      (checkpoint_ops_.fetch_add(1, std::memory_order_relaxed) %
       kCheckpointStride) == 0) {
    return poll_deadline();
  }
  return should_stop();
}

bool RunGovernor::try_charge(std::uint64_t bytes, const char* what) {
  const std::uint64_t total =
      bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::uint64_t peak = peak_bytes_.load(std::memory_order_relaxed);
  while (total > peak && !peak_bytes_.compare_exchange_weak(
                             peak, total, std::memory_order_relaxed)) {
  }
  if (limits_.memory_budget_bytes > 0 &&
      total > limits_.memory_budget_bytes) {
    bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    record_alloc_failure(bytes, what);
    return false;
  }
  return true;
}

void RunGovernor::uncharge(std::uint64_t bytes) {
  bytes_.fetch_sub(bytes, std::memory_order_relaxed);
}

void RunGovernor::record_alloc_failure(std::uint64_t bytes,
                                       const char* what) {
  (void)what;  // the phase label already locates the failure
  if (token_->trip(AbortReason::BudgetExceeded)) {
    abort_bytes_.store(bytes, std::memory_order_relaxed);
    abort_phase_.store(phase_name_.load(std::memory_order_acquire),
                       std::memory_order_release);
  }
}

void RunGovernor::record_exception(const char* what) {
  if (token_->trip(AbortReason::Exception)) {
    if (what != nullptr) {
      std::size_t i = 0;
      for (; i + 1 < kExceptionWhatCap && what[i] != '\0'; ++i) {
        exception_what_[i] = what[i];
      }
      exception_what_[i] = '\0';
    }
    abort_phase_.store(phase_name_.load(std::memory_order_acquire),
                       std::memory_order_release);
  }
}

void RunGovernor::enter_phase(const char* name) {
  const int ordinal =
      phase_ordinal_.fetch_add(1, std::memory_order_relaxed) + 1;
  phase_name_.store(name, std::memory_order_release);
  if (limits_.cancel_at_phase >= 0 && ordinal >= limits_.cancel_at_phase) {
    if (token_->trip(AbortReason::UserCancelled)) {
      abort_phase_.store(name, std::memory_order_release);
    }
  }
}

void RunGovernor::finish_phase() {
  phases_completed_.fetch_add(1, std::memory_order_relaxed);
}

RunAborted RunGovernor::abort_info() const {
  RunAborted info;
  info.reason = token_->reason();
  if (info.reason == AbortReason::None) return info;
  const char* phase = abort_phase_.load(std::memory_order_acquire);
  if (phase == nullptr) {
    // Externally tripped token (signal handler): the trip site could not
    // record a phase, so the phase active now is the best label.
    phase = phase_name_.load(std::memory_order_acquire);
  }
  if (phase != nullptr) info.phase = phase;
  info.bytes = abort_bytes_.load(std::memory_order_relaxed);
  if (info.reason == AbortReason::Exception) {
    info.detail = exception_what_;
  }
  return info;
}

}  // namespace ppscan
