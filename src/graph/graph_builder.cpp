#include "graph/graph_builder.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>

#include "concurrent/executor.hpp"
#include "concurrent/task_scheduler.hpp"
#include "util/env.hpp"
#include "util/graph_io_error.hpp"

namespace ppscan {
namespace {

// Below this many edges (1 MiB of pairs) the build runs on the calling
// thread: starting workers would cost more than the build itself, and the
// unit and fuzz tests build thousands of tiny graphs.
constexpr std::size_t kParallelMinEdges = std::size_t{1} << 17;

// Tasks per worker for the per-vertex and per-row phases: a few each, so
// stealing absorbs a hub row.
constexpr int kTasksPerWorker = 8;

// Row cursors are 32-bit and relative to the row start.
constexpr std::uint64_t kMaxRowEntries =
    std::numeric_limits<std::uint32_t>::max();

/// [begin, end) of piece `k` of `pieces` equal pieces of [0, size).
template <typename Index>
std::pair<Index, Index> piece(std::size_t size, std::size_t k,
                              std::size_t pieces) {
  return {static_cast<Index>(size * k / pieces),
          static_cast<Index>(size * (k + 1) / pieces)};
}

}  // namespace

std::vector<VertexId> edge_balanced_boundaries(
    const std::vector<EdgeId>& offsets, std::size_t shards) {
  std::vector<VertexId> bounds;
  if (shards <= 1 || offsets.size() <= 1) return bounds;
  const VertexId n = checked_vertex_cast(offsets.size() - 1);
  const std::uint64_t total = offsets.back();
  bounds.reserve(shards - 1);
  VertexId prev = 0;
  for (std::size_t k = 1; k < shards; ++k) {
    // Smallest vertex whose prefix of arcs reaches k/shards of the total;
    // offsets is monotone, so a binary search finds it directly.
    const std::uint64_t target =
        total * static_cast<std::uint64_t>(k) / shards;
    const auto it =
        std::lower_bound(offsets.begin(), offsets.end(), target);
    auto cut = static_cast<VertexId>(it - offsets.begin());
    cut = std::clamp(cut, prev, n);
    bounds.push_back(cut);
    prev = cut;
  }
  return bounds;
}

void GraphBuilder::add_edges(EdgeList edges) {
  if (edges_.empty()) {
    edges_ = std::move(edges);
  } else {
    edges_.insert(edges_.end(), edges.begin(), edges.end());
  }
}

CsrGraph GraphBuilder::build() {
  EdgeList edges = std::exchange(edges_, EdgeList());
  const std::size_t m = edges.size();
  const int workers = m < kParallelMinEdges ? 1 : default_threads();
  std::optional<Executor> executor;
  if (workers > 1) executor.emplace(workers);
  Executor* pool = executor ? &*executor : nullptr;
  const VertexId vertex_tasks =
      checked_vertex_cast(pool == nullptr ? 1 : workers * kTasksPerWorker);

  // n = max id + 1.
  std::vector<VertexId> piece_max(static_cast<std::size_t>(workers), 0);
  run_index_tasks(pool, checked_vertex_cast(workers), [&](VertexId k) {
    const auto [beg, end] = piece<std::size_t>(m, k, piece_max.size());
    VertexId hi = 0;
    for (std::size_t i = beg; i < end; ++i) {
      hi = std::max({hi, edges[i].first, edges[i].second});
    }
    piece_max[k] = hi;
  });
  VertexId n = num_vertices_;
  if (m > 0) {
    // n is computed in 32 bits, so the all-ones id (also the
    // kInvalidVertex sentinel) would wrap it to 0 and every subsequent
    // offset/dst write would land out of bounds.
    const VertexId max_id =
        *std::max_element(piece_max.begin(), piece_max.end());
    if (max_id == kInvalidVertex) {
      throw GraphIoError(GraphIoErrorKind::kVertexIdOverflow,
                         "vertex id " + std::to_string(kInvalidVertex) +
                             " is reserved; ids must be < " +
                             std::to_string(kInvalidVertex));
    }
    n = std::max(n, max_id + 1);
  }

  // Slice s of the edge list owns a 32-bit histogram of its arcs per source
  // vertex. One slice per worker, but with no more histogram memory than
  // the edge list itself holds (a sparse id space gets fewer slices), and
  // more than that only past 2^32 edges, so no slice's counts can wrap.
  const std::size_t by_memory =
      std::max<std::size_t>(1, 2 * m / (std::size_t{n} + 1));
  const VertexId slices = checked_vertex_cast(
      std::max(std::min(static_cast<std::size_t>(workers), by_memory),
               (m >> 32) + 1));
  std::vector<std::uint32_t> cursor(std::size_t{slices} * n, 0);
  const auto slice_cursor = [&](VertexId s) {
    return cursor.data() + std::size_t{s} * n;
  };
  run_index_tasks(pool, slices, [&](VertexId s) {
    std::uint32_t* count = slice_cursor(s);
    const auto [beg, end] = piece<std::size_t>(m, s, slices);
    for (std::size_t i = beg; i < end; ++i) {
      const auto [u, v] = edges[i];
      if (u == v) continue;  // self loops are dropped
      ++count[u];
      ++count[v];
    }
  });

  // Per vertex: the row length is the sum over slices, and each slice's
  // count turns in place into where its arcs start inside the row.
  std::vector<EdgeId> offsets(std::size_t{n} + 1, 0);
  run_index_tasks(pool, vertex_tasks, [&](VertexId t) {
    const auto [lo, hi] = piece<VertexId>(n, t, vertex_tasks);
    EdgeId* row_size = offsets.data() + 1;
    for (VertexId s = 0; s < slices; ++s) {
      std::uint32_t* c = slice_cursor(s);
      for (VertexId u = lo; u < hi; ++u) {
        const std::uint32_t k = c[u];
        c[u] = static_cast<std::uint32_t>(row_size[u]);
        row_size[u] += k;
      }
    }
    for (VertexId u = lo; u < hi; ++u) {
      if (row_size[u] > kMaxRowEntries) {
        throw std::length_error("GraphBuilder: vertex " + std::to_string(u) +
                                " has 2^32 or more edge entries");
      }
    }
  });
  std::inclusive_scan(offsets.begin(), offsets.end(), offsets.begin());

  // Scatter both directions. Each slice writes only its own part of every
  // row, so no write is shared.
  std::vector<VertexId> dst(offsets.back());
  run_index_tasks(pool, slices, [&](VertexId s) {
    std::uint32_t* next = slice_cursor(s);
    const auto [beg, end] = piece<std::size_t>(m, s, slices);
    for (std::size_t i = beg; i < end; ++i) {
      const auto [u, v] = edges[i];
      if (u == v) continue;
      dst[offsets[u] + next[u]++] = v;
      dst[offsets[v] + next[v]++] = u;
    }
  });
  EdgeList().swap(edges);

  // Sort and deduplicate each row in edge-balanced tasks. The cursors are
  // spent; their first n entries now hold each row's deduplicated length.
  std::vector<VertexId> cuts =
      edge_balanced_boundaries(offsets, pool == nullptr ? 1 : vertex_tasks);
  cuts.insert(cuts.begin(), 0);
  cuts.push_back(n);
  const VertexId row_tasks = checked_vertex_cast(cuts.size() - 1);
  std::uint32_t* kept = cursor.data();
  run_index_tasks(pool, row_tasks, [&](VertexId t) {
    for (VertexId u = cuts[t]; u < cuts[t + 1]; ++u) {
      VertexId* beg = dst.data() + offsets[u];
      VertexId* end = dst.data() + offsets[u + 1];
      // A file written in vertex order fills its rows already ascending.
      if (std::adjacent_find(beg, end, std::greater_equal<>()) != end) {
        std::sort(beg, end);
        end = std::unique(beg, end);
      }
      kept[u] = static_cast<std::uint32_t>(end - beg);
    }
  });
  const EdgeId unique_arcs = std::accumulate(kept, kept + n, EdgeId{0});
  if (unique_arcs == dst.size()) {
    return CsrGraph(std::move(offsets), std::move(dst));
  }

  // A duplicate was seen: copy the deduplicated rows into exact arrays.
  std::vector<EdgeId> packed_offsets(std::size_t{n} + 1, 0);
  for (VertexId u = 0; u < n; ++u) {
    packed_offsets[u + 1] = packed_offsets[u] + kept[u];
  }
  std::vector<VertexId> packed(unique_arcs);
  run_index_tasks(pool, row_tasks, [&](VertexId t) {
    for (VertexId u = cuts[t]; u < cuts[t + 1]; ++u) {
      std::copy_n(dst.data() + offsets[u], kept[u],
                  packed.data() + packed_offsets[u]);
    }
  });
  return CsrGraph(std::move(packed_offsets), std::move(packed));
}

CsrGraph GraphBuilder::from_edges(EdgeList edges, VertexId num_vertices) {
  GraphBuilder b(num_vertices);
  b.add_edges(std::move(edges));
  return b.build();
}

EdgeList to_edge_list(const CsrGraph& graph) {
  EdgeList edges;
  edges.reserve(graph.num_edges());
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    for (VertexId v : graph.neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

}  // namespace ppscan
