// Fault injection for the tests: a corrupted-file corpus for the graph
// ingestion layer, and misbehaving task bodies (slow, hung) for the
// run-governance layer.
//
// Takes a valid graph, writes it to disk, and derives one systematically
// corrupted file per failure class (truncated header/body, oversized
// header fields, non-monotone offsets, out-of-range dst, unsorted
// neighbors, self loops, ... for the binary format; negative ids, 2^32
// ids, trailing garbage, embedded NUL bytes, ... for the text format).
// Each case names the GraphIoErrorKind the loader must raise — the suite
// asserting that runs under the asan-ubsan CI job, so a validation gap
// shows up as a sanitizer failure rather than a silent out-of-bounds read.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "concurrent/run_governor.hpp"
#include "graph/csr_graph.hpp"
#include "util/graph_io_error.hpp"
#include "util/types.hpp"

namespace ppscan::testing {

struct FaultCase {
  std::string name;              // corruption class, e.g. "truncated-body"
  std::string path;              // corrupted file on disk
  GraphIoErrorKind expected;     // kind the loader must throw
};

/// Writes `graph` as `dir/valid.bin` plus one corrupted variant per binary
/// corruption class. `graph` needs >= 3 vertices and a vertex of degree
/// >= 2 so neighbor-level corruptions have room to work.
std::vector<FaultCase> make_binary_fault_corpus(
    const CsrGraph& graph, const std::filesystem::path& dir);

/// Writes one malformed text edge list per text corruption class.
std::vector<FaultCase> make_text_fault_corpus(
    const std::filesystem::path& dir);

// --- Execution-runtime fault injection -------------------------------------
//
// Misbehaving task bodies for the run-governance tests. Governance is
// cooperative, so its failure modes are defined by how a phase body
// misbehaves: a body that is merely *slow* (long enough that a deadline
// lands mid-phase instead of between phases) and a body that *wedges* one
// task outright (never returns on its own — the watchdog's prey).

/// Phase body that burns ~`per_task` of wall time per executed range and
/// never polls the governor — the in-tree bodies all poll, so deadline
/// coverage against non-cooperative work needs an injected laggard.
class SlowPhaseBody {
 public:
  explicit SlowPhaseBody(std::chrono::microseconds per_task)
      : per_task_(per_task) {}

  void operator()(VertexId beg, VertexId end);

  [[nodiscard]] std::uint64_t executed() const {
    return executed_.load(std::memory_order_relaxed);
  }

 private:
  std::chrono::microseconds per_task_;
  std::atomic<std::uint64_t> executed_{0};
};

/// Phase body that executes every range instantly except the one containing
/// `hang_task`, which blocks until release() is called or `token` trips.
/// Wiring the run's own CancelToken as `token` closes the loop for watchdog
/// tests: the stall trips the token, which un-wedges the hung task, so the
/// phase drains and the run returns a Stalled-labeled partial result
/// instead of deadlocking the test binary.
class HungWorker {
 public:
  explicit HungWorker(VertexId hang_task, const CancelToken* token = nullptr)
      : hang_task_(hang_task), token_(token) {}

  void operator()(VertexId beg, VertexId end);

  /// Manual un-wedge for tests that do not route a token.
  void release() { released_.store(true, std::memory_order_release); }

  /// True once the designated task has started hanging.
  [[nodiscard]] bool hang_started() const {
    return hang_started_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::uint64_t other_tasks_executed() const {
    return others_.load(std::memory_order_relaxed);
  }

 private:
  VertexId hang_task_;
  const CancelToken* token_;
  std::atomic<bool> released_{false};
  std::atomic<bool> hang_started_{false};
  std::atomic<std::uint64_t> others_{0};
};

}  // namespace ppscan::testing
