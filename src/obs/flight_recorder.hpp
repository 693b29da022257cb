// FlightRecorder — the serving layer's black box (docs/observability.md,
// "Live telemetry").
//
// A bounded ring of the most recent *serving events* — admissions,
// refusals, exceptions, lifecycle marks — kept so a post-mortem has the
// last seconds of history even when the process dies ungracefully. Three dump paths, one schema
// ("ppscan-flight-v1", validate_flight_json):
//
//   * dump_json()/dump_to_file() — the normal path: the stop() snapshot,
//     built with JsonValue under the lock.
//   * dump_signal_safe(fd) — the crash path: called from a fatal-signal
//     handler (install_flight_signal_dump), so it may not allocate, lock,
//     or call snprintf. Events are fixed-width POD and the writer uses
//     only util/sigsafe.hpp primitives; it reads the ring without the
//     lock — best-effort by design, a torn event in a crashing process
//     beats a deadlock on the lock the crashing thread may hold.
//
// record() is internally synchronized (flight_mu, a leaf lock in
// tools/lint/lock_protocol.toml) and is safe to call while the caller
// holds serving-layer locks.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "util/thread_safety.hpp"

namespace ppscan::obs {

class FlightRecorder {
 public:
  enum class EventKind : std::uint8_t {
    Lifecycle,   ///< start/stop/drain marks
    Admission,   ///< request accepted (id = query id)
    Refusal,     ///< shed or refused (label names the cause)
    Exception,   ///< firewall-classified execution failure
  };

  static constexpr std::size_t kLabelBytes = 32;
  static constexpr std::size_t kDetailBytes = 48;

  /// Fixed-width POD so the signal-path dump touches no heap.
  struct Event {
    std::uint64_t t_ns = 0;  ///< since recorder construction
    std::uint64_t id = 0;    ///< query id, 0 when none is at hand
    EventKind kind = EventKind::Lifecycle;
    char label[kLabelBytes] = {};
    char detail[kDetailBytes] = {};
  };

  explicit FlightRecorder(std::size_t capacity = 256);

  /// Append one event; overwrites the oldest once the ring is full.
  /// label/detail are truncated to their fixed widths.
  void record(EventKind kind, const char* label, std::uint64_t id = 0,
              const char* detail = "") PPSCAN_EXCLUDES(flight_mu);

  /// Events currently retained, oldest first.
  [[nodiscard]] std::vector<Event> events() const PPSCAN_EXCLUDES(flight_mu);
  /// Total ever recorded (≥ events().size()).
  [[nodiscard]] std::uint64_t recorded() const PPSCAN_EXCLUDES(flight_mu);
  [[nodiscard]] std::size_t capacity() const { return ring_capacity_; }

  /// Schema "ppscan-flight-v1" dump; `reason` says why (stop, signal,
  /// ...).
  [[nodiscard]] JsonValue dump_json(const char* reason) const
      PPSCAN_EXCLUDES(flight_mu);
  /// dump_json() pretty-printed to `path`; false on I/O failure.
  bool dump_to_file(const std::string& path, const char* reason) const
      PPSCAN_EXCLUDES(flight_mu);

  /// Async-signal-safe best-effort dump of the same schema to `fd`.
  /// Deliberately lock-free (see header comment).
  void dump_signal_safe(int fd, const char* reason) const;

  static const char* kind_name(EventKind kind);

 private:
  const std::size_t ring_capacity_;
  const std::chrono::steady_clock::time_point epoch_;

  // guards: the event ring (ring_, next_, recorded_count_).
  mutable CheckedMutex flight_mu;
  std::vector<Event> ring_ PPSCAN_GUARDED_BY(flight_mu);
  std::size_t next_ PPSCAN_GUARDED_BY(flight_mu) = 0;
  std::uint64_t recorded_count_ PPSCAN_GUARDED_BY(flight_mu) = 0;
};

/// Validates a "ppscan-flight-v1" document; on failure returns false and
/// (when non-null) fills *error.
bool validate_flight_json(const JsonValue& doc, std::string* error);

/// Installs SIGSEGV/SIGBUS/SIGFPE/SIGABRT handlers that write `recorder`'s
/// ring to `path` via dump_signal_safe, then re-raise the default action.
/// One global registration (last call wins); `recorder` and `path` must
/// outlive the process's crashing breath — in practice, the CLI passes
/// objects that live until exit. Pass nullptr to disarm.
void install_flight_signal_dump(const FlightRecorder* recorder,
                                const char* path);

}  // namespace ppscan::obs
