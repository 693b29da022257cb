// Compressed sparse row (CSR) representation of an undirected, unweighted,
// simple graph — the input format of every SCAN-family algorithm in this
// library (paper Definition 2.11).
//
// Each undirected edge {u, v} is stored twice, as directed arcs (u,v) and
// (v,u). Neighbor lists are sorted ascending; several algorithms (reverse
// edge lookup, merge/galloping/pivot set intersections) depend on that
// invariant, which `validate()` checks.
#pragma once

#include <span>
#include <vector>

#include "util/types.hpp"

namespace ppscan {

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Takes ownership of prebuilt CSR arrays. `offsets` must have
  /// `num_vertices + 1` entries with offsets[0] == 0 and
  /// offsets.back() == dst.size(). Use GraphBuilder to construct these from
  /// an edge list.
  CsrGraph(std::vector<EdgeId> offsets, std::vector<VertexId> dst);

  [[nodiscard]] VertexId num_vertices() const {
    return offsets_.empty() ? 0 : checked_vertex_cast(offsets_.size() - 1);
  }

  /// Number of *undirected* edges |E|; the dst array holds 2|E| arcs.
  [[nodiscard]] EdgeId num_edges() const { return dst_.size() / 2; }

  /// Number of directed arcs (= dst array length).
  [[nodiscard]] EdgeId num_arcs() const { return dst_.size(); }

  [[nodiscard]] VertexId degree(VertexId u) const {
    return static_cast<VertexId>(offsets_[u + 1] - offsets_[u]);
  }

  [[nodiscard]] EdgeId offset_begin(VertexId u) const { return offsets_[u]; }
  [[nodiscard]] EdgeId offset_end(VertexId u) const { return offsets_[u + 1]; }

  /// Sorted neighbor list of u.
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId u) const {
    return {dst_.data() + offsets_[u],
            dst_.data() + offsets_[u + 1]};
  }

  [[nodiscard]] const std::vector<EdgeId>& offsets() const { return offsets_; }
  [[nodiscard]] const std::vector<VertexId>& dst() const { return dst_; }

  /// Arc index e(u,v) (paper Definition 2.11) via binary search in u's
  /// sorted neighbor list; returns kInvalidEdge when (u,v) is absent.
  [[nodiscard]] EdgeId arc_index(VertexId u, VertexId v) const {
    const EdgeId e = lower_bound_arc(u, v);
    return e < offsets_[u + 1] && dst_[e] == v ? e : kInvalidEdge;
  }

  /// Arc index of the reverse arc e(v,u) given e(u,v) = `arc`. This is the
  /// lookup pSCAN's similarity-reuse technique performs (paper §3.2.1); the
  /// reverse arc exists in a symmetric graph, so no presence check.
  [[nodiscard]] EdgeId reverse_arc(VertexId u, EdgeId arc) const {
    return lower_bound_arc(dst_[arc], u);
  }

  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const {
    return arc_index(u, v) != kInvalidEdge;
  }

  static constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

  /// First arc of u whose head is >= v (offset_end(u) when none), by a
  /// branch-free lower bound: each halving step is a conditional move, so a
  /// search never mispredicts. Each step prefetches both candidates for the
  /// next probe, so on a list longer than a few cache lines the misses of
  /// consecutive steps overlap instead of forming one chain.
  [[nodiscard]] EdgeId lower_bound_arc(VertexId u, VertexId v) const {
    const VertexId* first = dst_.data() + offsets_[u];
    EdgeId len = offsets_[u + 1] - offsets_[u];
    while (len > 1) {
      const EdgeId half = len / 2;
      const EdgeId next = (len - half) / 2;
      __builtin_prefetch(first + next);
      __builtin_prefetch(first + half + next);
      first = first[half] < v ? first + half : first;
      len -= half;
    }
    return static_cast<EdgeId>(first - dst_.data()) +
           static_cast<EdgeId>(len == 1 && *first < v);
  }

  /// Checks the CSR invariants and throws GraphIoError (see
  /// util/graph_io_error.hpp) on the first violation.
  ///
  /// The structural checks are one linear pass over offsets plus one over
  /// dst: offsets start at 0, are monotone, end at num_arcs(); every
  /// dst[i] < num_vertices(); every neighbor list strictly ascending (no
  /// duplicates) and self-loop-free. With `check_symmetry` (the default) a
  /// second, O(arcs · log degree) pass additionally verifies that every arc
  /// (u,v) has its reverse (v,u). Loaders run the linear pass only, so
  /// validated loading stays O(read).
  void validate(bool check_symmetry = true) const;

 private:
  std::vector<EdgeId> offsets_;  // size num_vertices() + 1
  std::vector<VertexId> dst_;    // size 2 * num_edges(), sorted per vertex
};

}  // namespace ppscan
