// Builds a valid CsrGraph from an arbitrary undirected edge list:
// symmetrizes, strips self loops, deduplicates parallel edges, and sorts
// every neighbor list.
//
// The build is a counting sort on the Executor, not a global pair sort:
// per-slice degree histograms become per-slice row cursors, both arc
// directions are scattered into their rows without atomics, and each row
// is sorted and deduplicated on its own. Lists below about 1 MiB of pairs
// build on the calling thread; larger ones use default_threads() workers.
// The result does not depend on the worker count.
#pragma once

#include <utility>
#include <vector>

#include "graph/csr_graph.hpp"
#include "util/types.hpp"

namespace ppscan {

using EdgeList = std::vector<std::pair<VertexId, VertexId>>;

class GraphBuilder {
 public:
  /// `num_vertices` fixes the vertex-id space [0, num_vertices); pass 0 to
  /// infer it as max endpoint + 1.
  explicit GraphBuilder(VertexId num_vertices = 0)
      : num_vertices_(num_vertices) {}

  void add_edge(VertexId u, VertexId v) { edges_.emplace_back(u, v); }
  /// Takes the list by value: a moved-in list into an empty builder is
  /// adopted without a copy.
  void add_edges(EdgeList edges);

  /// Consumes the accumulated edges and produces a validated CSR graph.
  [[nodiscard]] CsrGraph build();

  /// One-shot convenience: build directly from an edge list (pass an rvalue
  /// to hand the list over without a copy).
  static CsrGraph from_edges(EdgeList edges, VertexId num_vertices = 0);

 private:
  VertexId num_vertices_;
  EdgeList edges_;
};

/// Extracts the unique undirected edge list {u,v} with u < v from a graph —
/// the inverse of GraphBuilder, used by I/O and the tests.
EdgeList to_edge_list(const CsrGraph& graph);

/// Splits [0, num_vertices) into `shards` contiguous vertex ranges with
/// near-equal *edge* counts (degree-weighted, one binary search per cut
/// over the offsets array): returns the shards - 1 interior boundaries.
/// Shards past the edge supply (more shards than edges) collapse to empty
/// ranges at the tail. build() uses it to cut the per-row sort into
/// edge-balanced tasks.
std::vector<VertexId> edge_balanced_boundaries(
    const std::vector<EdgeId>& offsets, std::size_t shards);

}  // namespace ppscan
