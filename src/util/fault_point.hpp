// Compiled-out-by-default fault injection for chaos testing.
//
// PR 3's fault hooks lived in tests/support/fault_injection.* and could
// only poison task bodies the *test* supplied. That cannot exercise the
// exception firewall or the overload machinery where they actually run —
// inside the executor's task boundary, the serving admission/dispatch
// path, and the GS*-Index query phases. A fault *point* is a named site in
// library code:
//
//   PPSCAN_FAULT_POINT("index.qcorecluster");
//
// With PPSCAN_FAULTS=OFF (the default and every release build) the macro
// expands to ((void)0) — no call, no branch, no symbol; the same
// compile-out bar as PPSCAN_TRACE, and the trace-hotpath lint rule bans
// both macro families from the per-element kernels either way. With
// PPSCAN_FAULTS=ON each hit consults a process-wide registry and, when the
// site is armed, fires one of:
//
//   throw      — std::runtime_error("fault-point <site>"), the poison-query
//                shape the exception firewall must contain
//   bad-alloc  — std::bad_alloc, the allocation-failure shape
//   sleep-ms=N — block the calling thread N ms (slow phase / queue stall)
//
// Arming, from tests: fault::arm("site", spec). From the environment
// (the CI chaos lane and the CLI smoke):
//
//   PPSCAN_FAULT="index.qcoretest:throw:p=0.05;serve.dispatcher:sleep-ms=2"
//
// Spec fields after the action: p=<probability in [0,1]> (deterministic
// Xoshiro draw, default 1), skip=<N> (let the first N hits pass), and
// max=<N> (fire at most N times; default unlimited). fire_count(site)
// reports how often a site actually fired, so a probabilistic soak can
// assert the chaos really happened.
//
// Sites currently compiled in:
//   executor.task       before each claimed task body runs
//   serve.admission     submit()/try_submit() admission
//   serve.dispatcher    per dequeued request, inside the QueryService
//                       dispatch firewall (throw = "QDispatch" failure)
//   serve.execute       QueryService::execute before the index walk
//   index.qcoretest / index.qcorecluster
//                       top of each GS*-Index query phase body
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ppscan::fault {

/// What an armed site does on a hit that passes its probability/skip/max
/// gates.
enum class Action : std::uint8_t {
  Throw,     ///< std::runtime_error("fault-point <site>")
  BadAlloc,  ///< std::bad_alloc
  Sleep,     ///< block the calling thread for `sleep_ms`
};

struct Spec {
  Action action = Action::Throw;
  std::uint32_t sleep_ms = 0;
  double probability = 1.0;        ///< per-hit Bernoulli, deterministic RNG
  std::uint64_t skip_first = 0;    ///< hits that pass before arming bites
  std::uint64_t max_fires = ~0ULL; ///< stop firing after this many
  std::uint64_t seed = 0x0fa17ULL; ///< per-site RNG seed (reproducible)
};

#if PPSCAN_FAULTS_ENABLED

/// Arms `site` (replacing any previous arming). Thread-safe.
void arm(const std::string& site, const Spec& spec);

/// Parses one env-style spec list ("site:action[:k=v]...[;site2:...]") and
/// arms every entry. Returns "" on success, else the first parse error.
std::string arm_from_string(const std::string& text);

/// Clears every arming — including anything armed from PPSCAN_FAULT — and
/// zeroes the fire counters. Tests call this in SetUp so a chaos lane's
/// env arming cannot leak into deterministic assertions.
void reset();

/// Times `site` actually fired (threw or slept) since the last reset().
[[nodiscard]] std::uint64_t fire_count(const std::string& site);

/// Every site that fired at least once, for diagnostics.
[[nodiscard]] std::vector<std::string> fired_sites();

/// The hook the macro expands to. Consults the registry (lazily seeded
/// from the PPSCAN_FAULT env var on first use) and fires the armed action.
void maybe_fire(const char* site);

#define PPSCAN_FAULT_POINT(site) ::ppscan::fault::maybe_fire(site)

#else  // PPSCAN_FAULTS_ENABLED

// Compiled out: no call, no registry, no branch. The inline no-op stubs
// keep test code linking without #if at every use.
inline void arm(const std::string&, const Spec&) {}
inline std::string arm_from_string(const std::string&) { return ""; }
inline void reset() {}
inline std::uint64_t fire_count(const std::string&) { return 0; }
inline std::vector<std::string> fired_sites() { return {}; }

#define PPSCAN_FAULT_POINT(site) ((void)0)

#endif  // PPSCAN_FAULTS_ENABLED

/// True in builds that compile the hooks in — tests GTEST_SKIP on false.
inline constexpr bool compiled_in() { return PPSCAN_FAULTS_ENABLED != 0; }

}  // namespace ppscan::fault
