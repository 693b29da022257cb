#include "support/fault_injection.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "graph/edge_list_io.hpp"
#include "util/types.hpp"

namespace ppscan::testing {
namespace {

namespace fs = std::filesystem;

// Binary layout: 8-byte magic, u64 n, u64 arcs, (n+1) u64 offsets,
// `arcs` u32 dst entries — mirrors edge_list_io.cpp.
constexpr std::size_t kVertexCountAt = 8;
constexpr std::size_t kArcCountAt = 16;
constexpr std::size_t kOffsetsAt = 24;

std::vector<char> load_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    throw std::runtime_error("fault_injection: cannot read " + path);
  }
  return bytes;
}

void store_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    throw std::runtime_error("fault_injection: cannot write " + path);
  }
}

void patch_u64(std::vector<char>& bytes, std::size_t at, std::uint64_t value) {
  std::memcpy(bytes.data() + at, &value, sizeof(value));
}

void patch_u32(std::vector<char>& bytes, std::size_t at, std::uint32_t value) {
  std::memcpy(bytes.data() + at, &value, sizeof(value));
}

std::size_t dst_entry_at(const CsrGraph& graph, EdgeId arc) {
  return kOffsetsAt +
         (static_cast<std::size_t>(graph.num_vertices()) + 1) * sizeof(EdgeId) +
         static_cast<std::size_t>(arc) * sizeof(VertexId);
}

void write_text(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  if (!out) {
    throw std::runtime_error("fault_injection: cannot write " + path);
  }
}

}  // namespace

std::vector<FaultCase> make_binary_fault_corpus(const CsrGraph& graph,
                                                const fs::path& dir) {
  const VertexId n = graph.num_vertices();
  if (n < 3 || graph.num_arcs() < 2) {
    throw std::invalid_argument(
        "fault corpus needs a graph with >= 3 vertices and >= 1 edge");
  }
  // A vertex (id >= 1, so a self loop is expressible) with degree >= 2, so
  // neighbor-level corruptions have a pair to work with.
  VertexId victim = kInvalidVertex;
  for (VertexId u = 1; u < n; ++u) {
    if (graph.degree(u) >= 2) {
      victim = u;
      break;
    }
  }
  if (victim == kInvalidVertex) {
    throw std::invalid_argument(
        "fault corpus needs a vertex >= 1 with degree >= 2");
  }
  if (graph.degree(0) < 1) {
    // The non-monotone-offsets case patches offsets[2] to offsets[1] - 1.
    throw std::invalid_argument("fault corpus needs degree(0) >= 1");
  }

  const std::string valid = (dir / "valid.bin").string();
  write_csr_binary(graph, valid);
  const std::vector<char> pristine = load_bytes(valid);

  std::vector<FaultCase> cases;
  const auto emit = [&](const std::string& name, GraphIoErrorKind expected,
                        const auto& mutate) {
    std::vector<char> bytes = pristine;
    mutate(bytes);
    const std::string path = (dir / (name + ".bin")).string();
    store_bytes(path, bytes);
    cases.push_back({name, path, expected});
  };

  emit("bad-magic", GraphIoErrorKind::kBadMagic,
       [](std::vector<char>& b) { b[0] = 'X'; });
  emit("truncated-header", GraphIoErrorKind::kTruncatedHeader,
       [](std::vector<char>& b) { b.resize(12); });
  emit("truncated-body", GraphIoErrorKind::kTruncatedBody,
       [](std::vector<char>& b) { b.resize(b.size() - sizeof(VertexId)); });
  emit("trailing-data", GraphIoErrorKind::kTrailingData,
       [](std::vector<char>& b) { b.insert(b.end(), 5, '\xee'); });
  // n beyond the 32-bit id space.
  emit("oversized-n", GraphIoErrorKind::kOversizedHeader,
       [](std::vector<char>& b) {
         patch_u64(b, kVertexCountAt, std::uint64_t{1} << 33);
       });
  // n inside the id space but implying a terabyte-scale offset array —
  // the "16-byte corrupt header requests terabytes" case.
  emit("oversized-n-alloc", GraphIoErrorKind::kOversizedHeader,
       [](std::vector<char>& b) {
         patch_u64(b, kVertexCountAt, std::uint64_t{1} << 31);
       });
  emit("oversized-arcs", GraphIoErrorKind::kOversizedHeader,
       [](std::vector<char>& b) {
         patch_u64(b, kArcCountAt, std::uint64_t{1} << 62);
       });
  // offsets[2] pulled below offsets[1] (vertex 0 of every corpus graph has
  // degree >= 1, so offsets[1] >= 1 and the patched value stays >= 0).
  emit("non-monotone-offsets", GraphIoErrorKind::kNonMonotoneOffsets,
       [&](std::vector<char>& b) {
         patch_u64(b, kOffsetsAt + 2 * sizeof(EdgeId),
                   graph.offsets()[1] - 1);
       });
  emit("out-of-range-dst", GraphIoErrorKind::kNeighborOutOfRange,
       [&](std::vector<char>& b) {
         patch_u32(b, dst_entry_at(graph, graph.num_arcs() - 1), n + 1000);
       });
  emit("self-loop", GraphIoErrorKind::kSelfLoop, [&](std::vector<char>& b) {
    patch_u32(b, dst_entry_at(graph, graph.offset_begin(victim)), victim);
  });
  emit("unsorted-neighbors", GraphIoErrorKind::kUnsortedNeighbors,
       [&](std::vector<char>& b) {
         const EdgeId first = graph.offset_begin(victim);
         patch_u32(b, dst_entry_at(graph, first), graph.dst()[first + 1]);
         patch_u32(b, dst_entry_at(graph, first + 1), graph.dst()[first]);
       });
  emit("duplicate-neighbor", GraphIoErrorKind::kUnsortedNeighbors,
       [&](std::vector<char>& b) {
         const EdgeId first = graph.offset_begin(victim);
         patch_u32(b, dst_entry_at(graph, first + 1), graph.dst()[first]);
       });
  return cases;
}

std::vector<FaultCase> make_text_fault_corpus(const fs::path& dir) {
  std::vector<FaultCase> cases;
  const auto emit = [&](const std::string& name, GraphIoErrorKind expected,
                        const std::string& content) {
    const std::string path = (dir / (name + ".txt")).string();
    write_text(path, content);
    cases.push_back({name, path, expected});
  };

  emit("negative-first-id", GraphIoErrorKind::kNegativeId, "0 1\n-3 2\n");
  emit("negative-second-id", GraphIoErrorKind::kNegativeId, "0 1\n3 -4\n");
  emit("id-2pow32", GraphIoErrorKind::kIdOutOfRange, "4294967296 0\n");
  emit("id-reserved-sentinel", GraphIoErrorKind::kIdOutOfRange,
       "4294967295 0\n");
  emit("id-overflows-u64", GraphIoErrorKind::kIdOutOfRange,
       "99999999999999999999999 1\n");
  emit("trailing-garbage", GraphIoErrorKind::kTrailingGarbage,
       "0 1\n1 2 oops\n");
  emit("missing-endpoint", GraphIoErrorKind::kParseError, "0 1\n42\n");
  emit("garbage-line", GraphIoErrorKind::kParseError, "hello world\n");
  // A NUL byte used to end the line early and drop what followed it.
  emit("embedded-nul", GraphIoErrorKind::kTrailingGarbage,
       std::string("0 1\n1 2\0 7\n", 11));
  return cases;
}

void SlowPhaseBody::operator()(VertexId beg, VertexId end) {
  // Busy-wait instead of sleep_for: the OS may round a sub-millisecond
  // sleep way up, and the point is a *predictable* per-task duration.
  const auto until = std::chrono::steady_clock::now() + per_task_;
  while (std::chrono::steady_clock::now() < until) {
  }
  executed_.fetch_add(end - beg, std::memory_order_relaxed);
}

}  // namespace ppscan::testing
