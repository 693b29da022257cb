#include "graph/csr_graph.hpp"

#include <gtest/gtest.h>

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
