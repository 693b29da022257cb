#include "graph/graph_builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/fixtures.hpp"
#include "support/scoped_env.hpp"
#include "util/graph_io_error.hpp"
#include "util/rng.hpp"

namespace ppscan {
namespace {

using ppscan::testing::ScopedEnv;

/// Enough edges that build() leaves the calling thread and slices the list.
constexpr std::size_t kParallelEdges = std::size_t{1} << 18;

/// The definitions, by a global pair sort: symmetrize, drop self loops,
/// sort, deduplicate, and take n = max(num_vertices, max id + 1).
CsrGraph reference_build(const EdgeList& edges, VertexId num_vertices = 0) {
  VertexId n = num_vertices;
  std::vector<std::pair<VertexId, VertexId>> arcs;
  for (const auto& [u, v] : edges) {
    n = std::max({n, u + 1, v + 1});
    if (u == v) continue;
    arcs.emplace_back(u, v);
    arcs.emplace_back(v, u);
  }
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  std::vector<EdgeId> offsets(std::size_t{n} + 1, 0);
  std::vector<VertexId> dst;
  for (const auto& [u, v] : arcs) {
    ++offsets[u + 1];
    dst.push_back(v);
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  return CsrGraph(std::move(offsets), std::move(dst));
}

/// Builds `edges` with `threads` workers (PPSCAN_THREADS).
CsrGraph build_with(const char* threads, const EdgeList& edges,
                    VertexId num_vertices = 0) {
  const ScopedEnv env("PPSCAN_THREADS", threads);
  return GraphBuilder::from_edges(edges, num_vertices);
}

/// Random pairs over [0, id_range) with self loops and repeated, reversed
/// edges mixed in.
EdgeList messy_edges(std::size_t count, VertexId id_range,
                     std::uint64_t seed) {
  Rng rng(seed);
  EdgeList edges;
  edges.reserve(count);
  while (edges.size() < count) {
    const auto u = static_cast<VertexId>(rng.next_below(id_range));
    const auto v = static_cast<VertexId>(rng.next_below(id_range));
    const std::uint64_t pick = rng.next_below(8);
    if (pick == 0) {
      edges.emplace_back(u, u);
    } else if (pick == 1 && !edges.empty()) {
      const auto [a, b] = edges[rng.next_below(edges.size())];
      edges.emplace_back(b, a);
    } else {
      edges.emplace_back(u, v);
    }
  }
  return edges;
}

void expect_same_csr(const CsrGraph& got, const CsrGraph& want) {
  EXPECT_EQ(got.offsets(), want.offsets());
  EXPECT_EQ(got.dst(), want.dst());
}

TEST(GraphBuilder, SymmetrizesEdges) {
  const auto g = GraphBuilder::from_edges({{0, 1}});
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilder, DropsSelfLoops) {
  const auto g = GraphBuilder::from_edges({{0, 0}, {0, 1}, {1, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_NO_THROW(g.validate());
}

TEST(GraphBuilder, DeduplicatesParallelEdges) {
  const auto g = GraphBuilder::from_edges({{0, 1}, {1, 0}, {0, 1}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(GraphBuilder, InfersVertexCountFromEndpoints) {
  const auto g = GraphBuilder::from_edges({{3, 7}});
  EXPECT_EQ(g.num_vertices(), 8u);
}

TEST(GraphBuilder, RespectsExplicitVertexCount) {
  const auto g = GraphBuilder::from_edges({{0, 1}}, 10);
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.degree(9), 0u);
}

TEST(GraphBuilder, EmptyEdgeListWithVertices) {
  const auto g = GraphBuilder::from_edges({}, 5);
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_NO_THROW(g.validate());
}

TEST(GraphBuilder, IncrementalAddEdge) {
  GraphBuilder b;
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edges({{2, 3}, {3, 0}});
  const auto g = b.build();
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_NO_THROW(g.validate());
}

TEST(GraphBuilder, BuildsValidGraphFromMessyInput) {
  // Duplicates, self loops, reversed duplicates, arbitrary order.
  const auto g = GraphBuilder::from_edges(
      {{5, 2}, {2, 5}, {1, 1}, {0, 4}, {4, 0}, {0, 4}, {3, 1}, {1, 3}});
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_NO_THROW(g.validate());
}

TEST(GraphBuilder, FixedVertexCountLeavesIsolatedTail) {
  const auto g = GraphBuilder::from_edges({{0, 1}, {2, 1}}, 10);
  EXPECT_EQ(g.num_vertices(), 10u);
  for (VertexId u = 3; u < 10; ++u) EXPECT_EQ(g.degree(u), 0u) << u;
  EXPECT_EQ(g.offsets().back(), 4u);
  EXPECT_NO_THROW(g.validate());
  expect_same_csr(g, reference_build({{0, 1}, {2, 1}}, 10));
}

TEST(GraphBuilder, EmptyListGivesEmptyGraph) {
  const auto g = GraphBuilder::from_edges({});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_arcs(), 0u);
  EXPECT_EQ(g.offsets(), std::vector<EdgeId>{0});
}

TEST(GraphBuilder, OnlySelfLoopsKeepTheirVerticesWithoutArcs) {
  const auto g = GraphBuilder::from_edges({{3, 3}, {1, 1}, {3, 3}});
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_arcs(), 0u);
  EXPECT_NO_THROW(g.validate());
}

TEST(GraphBuilder, HubWithDuplicatesBuildsTheSameAtOneAndFourWorkers) {
  // Vertex 0 joins 100k leaves; every third spoke repeats reversed, every
  // fifth repeats as is, so the parallel path has to compact.
  constexpr VertexId kLeaves = 100000;
  EdgeList edges;
  for (VertexId leaf = 1; leaf <= kLeaves; ++leaf) {
    edges.emplace_back(0, leaf);
    if (leaf % 3 == 0) edges.emplace_back(leaf, 0);
    if (leaf % 5 == 0) edges.emplace_back(0, leaf);
  }
  ASSERT_GT(edges.size(), std::size_t{1} << 17);
  const auto serial = build_with("1", edges);
  const auto parallel = build_with("4", edges);
  EXPECT_EQ(serial.degree(0), kLeaves);
  EXPECT_EQ(serial.num_edges(), kLeaves);
  for (VertexId leaf = 1; leaf <= kLeaves; ++leaf) {
    ASSERT_EQ(serial.degree(leaf), 1u) << leaf;
  }
  EXPECT_NO_THROW(serial.validate());
  expect_same_csr(parallel, serial);
  expect_same_csr(serial, reference_build(edges));
}

TEST(GraphBuilder, ReservedIdOverflowsOnEveryPath) {
  for (const std::size_t count : {std::size_t{3}, kParallelEdges}) {
    EdgeList edges = messy_edges(count, 1000, 5);
    edges.back() = {7, kInvalidVertex};  // in the last slice
    for (const char* threads : {"1", "4"}) {
      try {
        (void)build_with(threads, edges);
        FAIL() << count << " edges, " << threads << " workers";
      } catch (const GraphIoError& e) {
        EXPECT_EQ(e.kind(), GraphIoErrorKind::kVertexIdOverflow) << e.what();
      }
    }
  }
}

TEST(GraphBuilder, IdenticalAtOneAndFourWorkers) {
  // A dense id range (four slices) and a sparse one (the histogram memory
  // cap leaves a single slice), each with a fixed count above the ids.
  for (const VertexId id_range : {VertexId{5000}, VertexId{3'000'000}}) {
    const EdgeList edges = messy_edges(kParallelEdges, id_range, id_range);
    const auto want = reference_build(edges, id_range + 7);
    expect_same_csr(build_with("1", edges, id_range + 7), want);
    expect_same_csr(build_with("4", edges, id_range + 7), want);
  }
}

TEST(GraphBuilder, AddEdgesAdoptsAndAppends) {
  GraphBuilder b;
  b.add_edges({{0, 1}});
  b.add_edges({{1, 2}, {2, 0}});
  b.add_edge(0, 3);
  expect_same_csr(b.build(), reference_build({{0, 1}, {1, 2}, {2, 0}, {0, 3}}));
}

TEST(ToEdgeList, RoundTripsThroughBuilder) {
  const EdgeList original = {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {1, 4}};
  const auto g = GraphBuilder::from_edges(original);
  auto extracted = to_edge_list(g);
  auto sorted_original = original;
  std::sort(sorted_original.begin(), sorted_original.end());
  std::sort(extracted.begin(), extracted.end());
  EXPECT_EQ(extracted, sorted_original);
}

TEST(ToEdgeList, EmitsEachEdgeOnce) {
  const auto g = GraphBuilder::from_edges({{0, 1}, {1, 2}});
  EXPECT_EQ(to_edge_list(g).size(), g.num_edges());
}

TEST(EdgeBalancedBoundaries, SingleShardHasNoBoundary) {
  const CsrGraph graph = make_clique(8);
  EXPECT_TRUE(edge_balanced_boundaries(graph.offsets(), 1).empty());
  EXPECT_TRUE(edge_balanced_boundaries(graph.offsets(), 0).empty());
}

TEST(EdgeBalancedBoundaries, BalancesEdgeMassNotVertexCount) {
  // A star: the hub owns half the arcs, every leaf one. A 2-shard split
  // by *vertices* would put ~half the vertices in each shard; the edge-
  // balanced split must cut right after the hub.
  const CsrGraph graph = make_star(1000);
  const auto bounds = edge_balanced_boundaries(graph.offsets(), 2);
  ASSERT_EQ(bounds.size(), 1u);
  EXPECT_LE(bounds[0], 2u) << "cut should land immediately after the hub";
}

TEST(EdgeBalancedBoundaries, BoundariesAreMonotoneAndInRange) {
  const CsrGraph graph = make_clique_chain(8, 6);
  const std::size_t shards = 4;
  const auto bounds = edge_balanced_boundaries(graph.offsets(), shards);
  ASSERT_EQ(bounds.size(), shards - 1);
  VertexId prev = 0;
  for (const VertexId b : bounds) {
    EXPECT_GE(b, prev);
    EXPECT_LE(b, graph.num_vertices());
    prev = b;
  }
  // Each shard's arc mass is within one max-degree of the ideal quarter.
  const auto& offsets = graph.offsets();
  std::vector<VertexId> cuts{0};
  cuts.insert(cuts.end(), bounds.begin(), bounds.end());
  cuts.push_back(graph.num_vertices());
  const auto total = static_cast<std::uint64_t>(graph.num_arcs());
  std::uint64_t max_degree = 0;
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    max_degree = std::max<std::uint64_t>(max_degree, graph.degree(u));
  }
  for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
    const std::uint64_t mass = offsets[cuts[k + 1]] - offsets[cuts[k]];
    EXPECT_LE(mass, total / shards + max_degree) << "shard " << k;
  }
}

TEST(EdgeBalancedBoundaries, MoreShardsThanEdgesCollapseAtTail) {
  const CsrGraph graph = make_path(3);  // 2 edges, 4 arcs
  const auto bounds = edge_balanced_boundaries(graph.offsets(), 8);
  ASSERT_EQ(bounds.size(), 7u);
  for (const VertexId b : bounds) {
    EXPECT_LE(b, graph.num_vertices());
  }
}

}  // namespace
}  // namespace ppscan
