// Clang Thread Safety Analysis plumbing: the macro layer and the checked
// mutex/lock wrappers every mutex-guarded structure in src/ uses.
//
// PR 4 machine-checked the *atomics* half of our concurrency protocols
// (`// protocol:` annotations, ppscan_lint atomics pass). This header is
// the *mutex* half: guard relationships ("cache_ is guarded by
// cache_mutex_") become compiler-checked contracts under
// `clang -Wthread-safety` instead of prose comments. The analysis is
// purely static — zero runtime cost — and the attributes compile away to
// nothing on non-clang compilers (GCC would reject them under
// -Wattributes -Werror), so local GCC builds are unaffected; the pinned
// clang-18 `lint` CI job runs the actual check
// (tools/lint/check_thread_safety.sh, -Wthread-safety -Werror).
//
// Three rules keep the analysis sound, and ppscan_lint's lock pass
// enforces the parts clang cannot see:
//
//  1. Mutex members are `CheckedMutex`, not raw `std::mutex` (the
//     lock-raw rule). Raw std::mutex carries no capability attribute, so
//     clang silently checks nothing.
//  2. Locking goes through `CheckedLock` (or explicit lock()/unlock()
//     pairs on CheckedMutex). A `std::lock_guard<std::mutex>` over
//     `mu.native()` is invisible to the analysis.
//  3. Condition-variable waits use `CheckedLock::native()` with an
//     *explicit* while-loop, never a predicate lambda reading guarded
//     fields — lambdas don't inherit the enclosing function's capability
//     set, so `cv.wait(lock, [&]{ return guarded_; })` is a false
//     positive under -Wthread-safety. Restructure it as
//     `while (!guarded_) cv.wait(lock.native());`.
//
// Lock *ordering* is deliberately out of scope here: clang's
// acquired_before/acquired_after attributes are still flagged
// experimental and miss cross-TU cycles. The declared hierarchy lives in
// tools/lint/lock_protocol.toml and is enforced by ppscan_lint's
// lock-order rule over actual acquisition sites.
#pragma once

#include <mutex>

// ---------------------------------------------------------------------------
// Attribute macros (no-ops off clang).
// ---------------------------------------------------------------------------

#if defined(__clang__) && (!defined(SWIG))
#define PPSCAN_TSA(x) __attribute__((x))
#else
#define PPSCAN_TSA(x)  // no-op: GCC/MSVC don't implement -Wthread-safety
#endif

/// Marks a type as a lockable capability ("mutex" names it in clang's
/// diagnostics: "acquiring mutex 'stats_mutex_' ...").
#define PPSCAN_CAPABILITY(x) PPSCAN_TSA(capability(x))

/// Marks a RAII type whose constructor acquires and destructor releases.
#define PPSCAN_SCOPED_CAPABILITY PPSCAN_TSA(scoped_lockable)

/// Declares that a data member is only read/written with `x` held.
#define PPSCAN_GUARDED_BY(x) PPSCAN_TSA(guarded_by(x))

/// Declares that the *pointee* of a pointer member is guarded by `x`.
#define PPSCAN_PT_GUARDED_BY(x) PPSCAN_TSA(pt_guarded_by(x))

/// Declares that callers must hold `...` before calling this function.
#define PPSCAN_REQUIRES(...) \
  PPSCAN_TSA(requires_capability(__VA_ARGS__))

/// Declares that this function acquires `...` (and does not release it).
#define PPSCAN_ACQUIRE(...) \
  PPSCAN_TSA(acquire_capability(__VA_ARGS__))

/// Declares that this function releases `...`.
#define PPSCAN_RELEASE(...) \
  PPSCAN_TSA(release_capability(__VA_ARGS__))

/// Declares that this function acquires `...` only when it returns true.
#define PPSCAN_TRY_ACQUIRE(...) \
  PPSCAN_TSA(try_acquire_capability(__VA_ARGS__))

/// Declares that callers must NOT hold `...` (deadlock prevention for
/// functions that acquire it themselves).
#define PPSCAN_EXCLUDES(...) PPSCAN_TSA(locks_excluded(__VA_ARGS__))

/// Function-attribute form for functions returning a reference to a
/// guarded object.
#define PPSCAN_RETURN_CAPABILITY(x) PPSCAN_TSA(lock_returned(x))

namespace ppscan {

// ---------------------------------------------------------------------------
// CheckedMutex: std::mutex wearing the capability attribute.
// ---------------------------------------------------------------------------

/// Drop-in std::mutex replacement that participates in -Wthread-safety.
/// `native()` exposes the underlying std::mutex for the rare API that
/// demands one (std::condition_variable via CheckedLock::native()); it
/// must never be locked directly — ppscan_lint's lock-raw rule catches
/// `std::lock_guard`/`std::unique_lock` over native handles.
class PPSCAN_CAPABILITY("mutex") CheckedMutex {
 public:
  CheckedMutex() = default;
  CheckedMutex(const CheckedMutex&) = delete;
  CheckedMutex& operator=(const CheckedMutex&) = delete;

  void lock() PPSCAN_ACQUIRE() { mu_.lock(); }
  void unlock() PPSCAN_RELEASE() { mu_.unlock(); }
  bool try_lock() PPSCAN_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The raw handle, for std::condition_variable plumbing only.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

// ---------------------------------------------------------------------------
// CheckedLock: scoped RAII lock over CheckedMutex.
// ---------------------------------------------------------------------------

/// RAII lock (the std::unique_lock of this scheme) annotated as a scoped
/// capability so clang tracks the critical section. Built on
/// std::unique_lock so condition variables can wait on `native()` —
/// cv.wait unlocks/relocks the underlying mutex, which is invisible to
/// the analysis but sound because wait() returns with the lock re-held.
class PPSCAN_SCOPED_CAPABILITY CheckedLock {
 public:
  explicit CheckedLock(CheckedMutex& mu) PPSCAN_ACQUIRE(mu)
      : mu_(mu), lock_(mu.native()) {}

  CheckedLock(const CheckedLock&) = delete;
  CheckedLock& operator=(const CheckedLock&) = delete;

  ~CheckedLock() PPSCAN_RELEASE() {}

  /// Early release (the annotated form of unique_lock::unlock()).
  void unlock() PPSCAN_RELEASE() { lock_.unlock(); }

  /// The unique_lock handle, for std::condition_variable::wait only.
  /// Waits must use the explicit-loop form (see file comment, rule 3).
  std::unique_lock<std::mutex>& native() { return lock_; }

  /// The mutex this lock guards (for assertions/diagnostics).
  CheckedMutex& mutex() PPSCAN_RETURN_CAPABILITY(mu_) { return mu_; }

 private:
  CheckedMutex& mu_;
  std::unique_lock<std::mutex> lock_;
};

}  // namespace ppscan
