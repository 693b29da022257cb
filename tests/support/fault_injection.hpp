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
// lands mid-phase instead of between phases).

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

}  // namespace ppscan::testing
