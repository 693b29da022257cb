// Checked environment-variable parsing for every PPSCAN_* knob.
//
// All std::getenv sites in the library go through these helpers so a typo'd
// value is *classified, not guessed* (the PR-2 ingestion-error style): a
// malformed value warns once per variable on stderr — naming the variable,
// the offending text, and the fallback used — and returns the fallback. It
// never silently misparses the way `atol("garbage") == 0` used to.
//
// Knob inventory (docs/tuning.md has the semantics):
//   PPSCAN_SCALE        double > 0   bench dataset edge-budget multiplier
//   PPSCAN_THREADS      u64  >= 1    default thread count (0/unset = HW)
//   PPSCAN_GALLOP_SKEW  u64          Auto-kernel gallop threshold (0 = off)
//   PPSCAN_CACHE_DIR    string       bench dataset cache directory
//   PPSCAN_TRACE_CAP    u64  >= 1    trace events kept per worker buffer
//   PPSCAN_TRACE_TASKS  flag         record per-task trace events (default 1)
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace ppscan {

/// Raw value of `name`, or nullopt when unset. Empty string counts as set.
std::optional<std::string> env_string(const char* name);

/// Boolean knob: 1/true/yes/on and 0/false/no/off (case-insensitive).
/// Unset → fallback; anything else warns and returns the fallback.
bool env_flag(const char* name, bool fallback);

/// Unsigned integer knob (base 10, full-string match, no sign). Unset →
/// fallback; malformed or negative warns and returns the fallback.
std::uint64_t env_u64(const char* name, std::uint64_t fallback);

/// Floating-point knob (full-string match, must be finite). Unset →
/// fallback; malformed warns and returns the fallback.
double env_double(const char* name, double fallback);

/// Value of PPSCAN_SCALE (default 1.0, must be > 0). Every bench dataset's
/// edge budget is multiplied by this, so the same binaries scale from CI
/// smoke runs to paper-sized experiments on a big machine.
double bench_scale();

/// Value of PPSCAN_THREADS if set and >= 1, otherwise the hardware
/// concurrency ("0" explicitly requests the hardware default).
int default_threads();

}  // namespace ppscan
