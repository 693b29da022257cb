#include "graph/csr_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "graph/fixtures.hpp"
#include "graph/graph_builder.hpp"
#include "util/graph_io_error.hpp"

namespace ppscan {
namespace {

CsrGraph triangle_plus_tail() {
  // 0-1-2 triangle with a tail 2-3.
  return GraphBuilder::from_edges({{0, 1}, {1, 2}, {0, 2}, {2, 3}});
}

TEST(CsrGraph, BasicCounts) {
  const auto g = triangle_plus_tail();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.num_arcs(), 8u);
}

TEST(CsrGraph, Degrees) {
  const auto g = triangle_plus_tail();
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 3u);
  EXPECT_EQ(g.degree(3), 1u);
}

TEST(CsrGraph, NeighborsAreSorted) {
  const auto g = triangle_plus_tail();
  const auto n2 = g.neighbors(2);
  ASSERT_EQ(n2.size(), 3u);
  EXPECT_EQ(n2[0], 0u);
  EXPECT_EQ(n2[1], 1u);
  EXPECT_EQ(n2[2], 3u);
}

TEST(CsrGraph, ArcIndexFindsExistingEdges) {
  const auto g = triangle_plus_tail();
  const EdgeId e = g.arc_index(2, 3);
  ASSERT_NE(e, CsrGraph::kInvalidEdge);
  EXPECT_EQ(g.dst()[e], 3u);
}

TEST(CsrGraph, ArcIndexRejectsMissingEdges) {
  const auto g = triangle_plus_tail();
  EXPECT_EQ(g.arc_index(0, 3), CsrGraph::kInvalidEdge);
  EXPECT_EQ(g.arc_index(3, 0), CsrGraph::kInvalidEdge);
}

TEST(CsrGraph, ReverseArcRoundTrip) {
  const auto g = make_clique(6);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (EdgeId e = g.offset_begin(u); e < g.offset_end(u); ++e) {
      const EdgeId rev = g.reverse_arc(u, e);
      ASSERT_NE(rev, CsrGraph::kInvalidEdge);
      EXPECT_EQ(g.dst()[rev], u);
      // The reverse of the reverse is the original arc.
      EXPECT_EQ(g.reverse_arc(g.dst()[e], rev), e);
    }
  }
}

/// Checks every arc's mirror against std::lower_bound on the head's list.
void expect_mirrors_match(const CsrGraph& g) {
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (EdgeId e = g.offset_begin(u); e < g.offset_end(u); ++e) {
      const VertexId v = g.dst()[e];
      const auto list = g.neighbors(v);
      const EdgeId expected =
          g.offset_begin(v) +
          static_cast<EdgeId>(std::lower_bound(list.begin(), list.end(), u) -
                              list.begin());
      ASSERT_EQ(g.reverse_arc(u, e), expected) << "arc " << u << "->" << v;
    }
  }
}

/// Checks the lower bound and arc_index of every key from 0 to one past
/// the largest id in u's list against std::lower_bound.
void expect_keys_match(const CsrGraph& g, VertexId u) {
  const auto nbrs = g.neighbors(u);
  for (VertexId key = 0; key <= g.num_vertices(); ++key) {
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), key);
    const EdgeId expected =
        g.offset_begin(u) + static_cast<EdgeId>(it - nbrs.begin());
    ASSERT_EQ(g.lower_bound_arc(u, key), expected)
        << "u=" << u << " key=" << key;
    ASSERT_EQ(g.arc_index(u, key), it != nbrs.end() && *it == key
                                       ? expected
                                       : CsrGraph::kInvalidEdge)
        << "u=" << u << " key=" << key;
  }
}

void expect_search_matches_lower_bound(const CsrGraph& g) {
  expect_mirrors_match(g);
  for (VertexId u = 0; u < g.num_vertices(); ++u) expect_keys_match(g, u);
}

TEST(CsrGraph, BranchFreeSearchMatchesLowerBoundOnFixtures) {
  for (const CsrGraph& g :
       {triangle_plus_tail(), make_clique(6), make_path(50), make_cycle(64),
        make_star(600), make_two_cliques_bridge(30), make_clique_chain(6, 20),
        make_scan_paper_example()}) {
    expect_search_matches_lower_bound(g);
  }
}

TEST(CsrGraph, BranchFreeSearchOnEveryListLengthUpTo65) {
  // Vertex 0 gets `length` neighbors at odd ids, so every even key between
  // them is absent, and each odd leaf links to the next for longer lists.
  for (VertexId length = 1; length <= 65; ++length) {
    EdgeList edges;
    for (VertexId i = 0; i < length; ++i) {
      edges.emplace_back(0, 2 * i + 1);
      if (i + 1 < length) edges.emplace_back(2 * i + 1, 2 * i + 3);
    }
    const CsrGraph g =
        GraphBuilder::from_edges(std::move(edges), 2 * length + 2);
    ASSERT_EQ(g.degree(0), length);
    expect_search_matches_lower_bound(g);
  }
}

TEST(CsrGraph, BranchFreeSearchOnAHub) {
  // A hub of degree 12,000 over every third id, plus a ring on its leaves.
  constexpr VertexId kLeaves = 12000;
  EdgeList edges;
  for (VertexId i = 1; i <= kLeaves; ++i) {
    edges.emplace_back(0, 3 * i);
    edges.emplace_back(3 * i, 3 * (i % kLeaves + 1));
  }
  const CsrGraph g = GraphBuilder::from_edges(std::move(edges));
  ASSERT_GE(g.degree(0), 10000u);
  expect_mirrors_match(g);
  expect_keys_match(g, 0);
  expect_keys_match(g, 3);
}

TEST(CsrGraph, HasEdgeSymmetry) {
  const auto g = triangle_plus_tail();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(1, 3));
}

TEST(CsrGraph, EmptyGraph) {
  const CsrGraph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(CsrGraph, ValidateAcceptsWellFormed) {
  EXPECT_NO_THROW(triangle_plus_tail().validate());
  EXPECT_NO_THROW(make_clique(5).validate());
}

template <typename Fn>
GraphIoErrorKind thrown_kind(Fn&& fn) {
  try {
    fn();
  } catch (const GraphIoError& e) {
    return e.kind();
  }
  throw std::logic_error("expected a GraphIoError");
}

TEST(CsrGraph, ValidateRejectsSelfLoop) {
  // Build raw arrays with a self loop at vertex 0.
  std::vector<EdgeId> offsets{0, 1, 2};
  std::vector<VertexId> dst{0, 0};
  const CsrGraph g(std::move(offsets), std::move(dst));
  EXPECT_EQ(thrown_kind([&] { g.validate(); }), GraphIoErrorKind::kSelfLoop);
}

TEST(CsrGraph, ValidateRejectsUnsortedNeighbors) {
  std::vector<EdgeId> offsets{0, 2, 3, 4};
  std::vector<VertexId> dst{2, 1, 0, 0};
  const CsrGraph g(std::move(offsets), std::move(dst));
  EXPECT_EQ(thrown_kind([&] { g.validate(); }),
            GraphIoErrorKind::kUnsortedNeighbors);
}

TEST(CsrGraph, ValidateRejectsNonMonotoneOffsets) {
  std::vector<EdgeId> offsets{0, 2, 1, 2};
  std::vector<VertexId> dst{1, 2};
  const CsrGraph g(std::move(offsets), std::move(dst));
  EXPECT_EQ(thrown_kind([&] { g.validate(); }),
            GraphIoErrorKind::kNonMonotoneOffsets);
}

TEST(CsrGraph, ValidateRejectsOutOfRangeNeighbor) {
  std::vector<EdgeId> offsets{0, 1, 2};
  std::vector<VertexId> dst{9, 0};
  const CsrGraph g(std::move(offsets), std::move(dst));
  EXPECT_EQ(thrown_kind([&] { g.validate(); }),
            GraphIoErrorKind::kNeighborOutOfRange);
}

TEST(CsrGraph, ValidateRejectsAsymmetricArc) {
  std::vector<EdgeId> offsets{0, 1, 1};
  std::vector<VertexId> dst{1};
  const CsrGraph g(std::move(offsets), std::move(dst));
  EXPECT_EQ(thrown_kind([&] { g.validate(); }),
            GraphIoErrorKind::kAsymmetricArc);
  // The structural linear pass (what the loaders run) has no symmetry
  // check, so it accepts this graph.
  EXPECT_NO_THROW(g.validate(/*check_symmetry=*/false));

  // With two asymmetric arcs, (1,3) and (2,3), the error names the first
  // one in (u, v) order.
  const CsrGraph two(std::vector<EdgeId>{0, 1, 3, 4, 4},
                     std::vector<VertexId>{1, 0, 3, 3});
  try {
    two.validate();
    ADD_FAILURE() << "expected a GraphIoError";
  } catch (const GraphIoError& e) {
    EXPECT_EQ(e.kind(), GraphIoErrorKind::kAsymmetricArc);
    EXPECT_EQ(e.detail(), "arc (1,3) has no reverse arc");
  }
}

TEST(CsrGraph, ConstructorRejectsMalformedOffsets) {
  EXPECT_EQ(thrown_kind([] {
              // Offsets claim 3 arcs, dst provides 1.
              const CsrGraph g(std::vector<EdgeId>{0, 3},
                               std::vector<VertexId>{1});
            }),
            GraphIoErrorKind::kMalformedOffsets);
}

TEST(CsrGraph, IsolatedVertexHasEmptyNeighbors) {
  const auto g = GraphBuilder::from_edges({{0, 1}}, 3);
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_TRUE(g.neighbors(2).empty());
}

}  // namespace
}  // namespace ppscan
