#include "graph/fixtures.hpp"

#include <stdexcept>

#include "graph/graph_builder.hpp"

namespace ppscan {

CsrGraph make_clique(VertexId k) {
  EdgeList edges;
  for (VertexId u = 0; u < k; ++u) {
    for (VertexId v = u + 1; v < k; ++v) edges.emplace_back(u, v);
  }
  return GraphBuilder::from_edges(std::move(edges), k);
}

CsrGraph make_path(VertexId n) {
  EdgeList edges;
  for (VertexId u = 0; u + 1 < n; ++u) edges.emplace_back(u, u + 1);
  return GraphBuilder::from_edges(std::move(edges), n);
}

CsrGraph make_cycle(VertexId n) {
  if (n < 3) throw std::invalid_argument("make_cycle: need n >= 3");
  EdgeList edges;
  for (VertexId u = 0; u + 1 < n; ++u) edges.emplace_back(u, u + 1);
  edges.emplace_back(n - 1, 0);
  return GraphBuilder::from_edges(std::move(edges), n);
}

CsrGraph make_star(VertexId n) {
  if (n < 2) throw std::invalid_argument("make_star: need n >= 2");
  EdgeList edges;
  for (VertexId v = 1; v < n; ++v) edges.emplace_back(0, v);
  return GraphBuilder::from_edges(std::move(edges), n);
}

CsrGraph make_two_cliques_bridge(VertexId k) {
  EdgeList edges;
  for (VertexId u = 0; u < k; ++u) {
    for (VertexId v = u + 1; v < k; ++v) {
      edges.emplace_back(u, v);
      edges.emplace_back(k + u, k + v);
    }
  }
  edges.emplace_back(k - 1, k);
  return GraphBuilder::from_edges(std::move(edges), 2 * k);
}

CsrGraph make_clique_chain(VertexId count, VertexId k) {
  if (count == 0 || k < 2) {
    throw std::invalid_argument("make_clique_chain: need count >= 1, k >= 2");
  }
  EdgeList edges;
  for (VertexId c = 0; c < count; ++c) {
    const VertexId base = c * k;
    for (VertexId u = 0; u < k; ++u) {
      for (VertexId v = u + 1; v < k; ++v) {
        edges.emplace_back(base + u, base + v);
      }
    }
    if (c + 1 < count) edges.emplace_back(base + k - 1, base + k);
  }
  return GraphBuilder::from_edges(std::move(edges), count * k);
}

CsrGraph make_scan_paper_example() {
  // Two dense groups {0..5} and {7..12} (each a near-clique), vertex 6 is a
  // hub adjacent to both groups but dense in neither, and vertex 13 is an
  // outlier hanging off vertex 12.
  EdgeList edges = {
      // group A: near-clique on 0..5
      {0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4},
      {3, 5}, {4, 5}, {0, 5},
      // hub 6 touches both groups sparsely
      {5, 6}, {6, 7},
      // group B: near-clique on 7..12
      {7, 8}, {7, 9}, {8, 9}, {8, 10}, {9, 10}, {9, 11}, {10, 11},
      {10, 12}, {11, 12}, {7, 12},
      // outlier 13
      {12, 13},
  };
  return GraphBuilder::from_edges(std::move(edges), 14);
}

}  // namespace ppscan
