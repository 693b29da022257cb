#include "index/gs_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/ppscan.hpp"
#include "graph/fixtures.hpp"
#include "graph/generators.hpp"
#include "graph/graph_builder.hpp"
#include "scan/validate_result.hpp"
#include "support/random_graphs.hpp"
#include "support/reference_scan.hpp"
#include "util/rng.hpp"

namespace ppscan {
namespace {

using testing::property_test_graphs;
using testing::reference_scan;

/// ⌈log2(x)⌉ for x >= 1: the most probes a binary search over x − 1
/// entries makes.
std::uint64_t ceil_log2(std::uint64_t x) {
  std::uint64_t bits = 0;
  while ((std::uint64_t{1} << bits) < x) ++bits;
  return bits;
}

TEST(GsIndex, QueryMatchesReferenceAcrossTheGrid) {
  for (const auto& g : property_test_graphs(6001, 2)) {
    const GsIndex index(g);
    for (const auto& params : testing::parameter_grid()) {
      const auto expected = reference_scan(g, params);
      const auto run = index.query(params);
      EXPECT_TRUE(results_equivalent(expected, run.result))
          << "eps=" << params.eps.to_double() << " mu=" << params.mu << ": "
          << describe_result_difference(expected, run.result);
    }
  }
}

/// An R-MAT graph with heavy degree skew: hubs whose out-lists are short
/// under the degree orientation, and many triangles through them. Large
/// enough that the enumeration splits into many tasks, so parallel builds
/// really add to shared counts concurrently.
CsrGraph hub_graph() {
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 8;
  return rmat(p, 47);
}

TEST(GsIndex, ParallelConstructionMatchesSequential) {
  const auto g = hub_graph();
  const GsIndex sequential(g);
  for (const int threads : {2, 4}) {
    GsIndex::BuildOptions options;
    options.num_threads = threads;
    const GsIndex parallel(g, options);
    ASSERT_TRUE(parallel.complete());
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (const VertexId v : g.neighbors(u)) {
        ASSERT_EQ(parallel.overlap(u, v), sequential.overlap(u, v))
            << threads << " threads, arc (" << u << "," << v << ")";
      }
    }
    for (const auto& params : testing::parameter_grid()) {
      EXPECT_TRUE(results_equivalent(sequential.query(params).result,
                                     parallel.query(params).result))
          << threads << " threads, eps=" << params.eps.to_double()
          << " mu=" << params.mu;
    }
  }
}

TEST(GsIndex, OverlapMatchesMergeCountOnEveryArc) {
  std::vector<std::pair<std::string, CsrGraph>> graphs;
  graphs.emplace_back("er", erdos_renyi(300, 2500, 23));
  graphs.emplace_back("rmat", hub_graph());
  graphs.emplace_back("star", make_star(40));
  graphs.emplace_back("clique", make_clique(12));
  graphs.emplace_back("single edge", GraphBuilder::from_edges({{0, 1}}, 2));
  graphs.emplace_back("empty", GraphBuilder::from_edges({}, 5));
  for (const auto& [family, g] : graphs) {
    for (const int threads : {1, 4}) {
      GsIndex::BuildOptions options;
      options.num_threads = threads;
      const GsIndex index(g, options);
      ASSERT_TRUE(index.complete());
      for (VertexId u = 0; u < g.num_vertices(); ++u) {
        for (const VertexId v : g.neighbors(u)) {
          const auto expected = static_cast<std::uint32_t>(
              intersect_count_merge(g.neighbors(u), g.neighbors(v)) + 2);
          ASSERT_EQ(index.overlap(u, v), expected)
              << family << ", " << threads << " threads, arc (" << u << ","
              << v << ")";
        }
      }
    }
  }
}

TEST(GsIndex, GovernedConstructionAbortsClassified) {
  const auto g = hub_graph();
  VertexId max_degree = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    max_degree = std::max(max_degree, g.degree(u));
  }
  const std::uint64_t index_bytes =
      g.num_arcs() * (sizeof(VertexId) + sizeof(std::uint32_t) +
                      sizeof(VertexId)) +
      (std::uint64_t{max_degree} + 1) * sizeof(EdgeId);
  const auto params = ScanParams::make("0.5", 3);

  // Trip on entry to the first phase: no overlap is ever counted.
  {
    GsIndex::BuildOptions options;
    options.num_threads = 4;
    options.limits.cancel_at_phase = 1;
    const GsIndex index(g, options);
    EXPECT_FALSE(index.complete());
    EXPECT_EQ(index.build_stats().abort.reason, AbortReason::UserCancelled);
    EXPECT_EQ(index.build_stats().abort.phase, "Overlap");
    EXPECT_THROW((void)index.query(params), std::logic_error);
  }

  // A budget that holds the index arrays but not the build's scratch: the
  // orientation borrows index storage, and each worker's marks (one per
  // vertex) alone exceed the slack. The construction refuses before
  // allocating, never with bad_alloc.
  {
    GsIndex::BuildOptions options;
    options.num_threads = 4;
    options.limits.memory_budget_bytes =
        index_bytes + std::uint64_t{g.num_vertices()} * sizeof(VertexId);
    std::unique_ptr<GsIndex> index;
    ASSERT_NO_THROW(index = std::make_unique<GsIndex>(g, options));
    EXPECT_FALSE(index->complete());
    EXPECT_EQ(index->build_stats().abort.reason, AbortReason::BudgetExceeded);
    EXPECT_GT(index->build_stats().abort.bytes, index_bytes);
    EXPECT_THROW((void)index->query(params), std::logic_error);
  }
}

TEST(GsIndex, ConstructionDoesOneIntersectionPerEdge) {
  const auto g = erdos_renyi(200, 1200, 29);
  const GsIndex index(g);
  EXPECT_EQ(index.build_stats().intersections, g.num_edges());
  EXPECT_GT(index.build_stats().construction_seconds, 0.0);
}

TEST(GsIndex, MemoryFootprintIsPerArc) {
  const auto g = erdos_renyi(100, 600, 31);
  const GsIndex index(g);
  // Neighbor-order dst (u32) + cn (u32) per arc slot, one core-order
  // entry (u32) per arc, and one offset per µ ∈ [0, max degree]; the
  // construction's sort buffers are transient.
  VertexId max_degree = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    max_degree = std::max(max_degree, g.degree(u));
  }
  EXPECT_EQ(index.memory_bytes(),
            g.num_arcs() * (sizeof(VertexId) + sizeof(std::uint32_t) +
                            sizeof(VertexId)) +
                (std::uint64_t{max_degree} + 1) * sizeof(EdgeId));
}

TEST(GsIndex, QueryCountsThePruningFunnel) {
  // Index queries answer every similarity from the stored neighbor order,
  // so the funnel must balance as pure reuse: nothing pruned, nothing
  // computed, and the invariant pruned + computed + reused == touched must
  // hold non-vacuously (it used to be all zeros).
  const auto g = erdos_renyi(300, 2400, 37);
  const GsIndex index(g);
  for (const auto& params : testing::parameter_grid()) {
    const auto run = index.query(params);
    const auto& c = run.stats.counters;
    EXPECT_EQ(c.arcs_predicate_pruned + c.sims_computed + c.sims_reused,
              c.arcs_touched)
        << "eps=" << params.eps.to_double() << " mu=" << params.mu;
    EXPECT_EQ(c.sims_computed, 0u);
    EXPECT_EQ(c.arcs_predicate_pruned, 0u);
    // The core test probes the core order whenever some vertex has degree
    // >= mu.
    EXPECT_GT(c.arcs_touched, 0u);
    // One-walk clustering: no union-find at all.
    EXPECT_EQ(c.uf_unions, 0u);
    EXPECT_EQ(c.uf_finds, 0u);
    EXPECT_EQ(c.uf_find_steps, 0u);
    // Output sensitivity: one binary search over the |V_µ| vertices of
    // degree >= µ, then per core its ε-similar prefix plus one binary
    // search over the d − µ entries past the µ known-similar ones.
    std::uint64_t v_mu = 0;
    std::uint64_t bound = 0;
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      if (g.degree(u) >= params.mu) ++v_mu;
      if (run.result.roles[u] != Role::Core) continue;
      std::uint64_t prefix = 0;
      for (const VertexId v : g.neighbors(u)) {
        prefix += testing::reference_similar(g, params, u, v) ? 1 : 0;
      }
      bound += prefix + ceil_log2(g.degree(u) - params.mu + 1);
    }
    bound += ceil_log2(v_mu + 1);
    EXPECT_LE(c.arcs_touched, bound)
        << "eps=" << params.eps.to_double() << " mu=" << params.mu;
  }
}

TEST(GsIndex, PooledScratchReturnsIdenticalAnswers) {
  // serve::QueryService reuses one QueryScratch per worker across many
  // queries; reuse must never leak state between (ε, µ) combinations.
  const auto g = erdos_renyi(250, 1800, 41);
  const GsIndex index(g);
  GsIndex::QueryScratch scratch;
  for (const auto& params : testing::parameter_grid()) {
    const auto pooled = index.query(params, scratch, nullptr);
    const auto fresh = index.query(params);
    EXPECT_TRUE(results_equivalent(fresh.result, pooled.result))
        << describe_result_difference(fresh.result, pooled.result);
    EXPECT_EQ(fresh.stats.counters.arcs_touched,
              pooled.stats.counters.arcs_touched);
  }
}

TEST(GsIndex, GovernedQueryReturnsClassifiedPartial) {
  const auto g = erdos_renyi(300, 2400, 43);
  const GsIndex index(g);
  const auto params = ScanParams::make("0.4", 3);
  GsIndex::QueryScratch scratch;

  // Trip on entry to phase 2 (QCoreCluster): every role is decided, no
  // cluster ids were assigned yet.
  {
    RunLimits limits;
    limits.cancel_at_phase = 2;
    RunGovernor governor(limits, nullptr);
    const auto run = index.query(params, scratch, &governor);
    EXPECT_TRUE(run.partial());
    EXPECT_EQ(run.stats.abort_reason, AbortReason::UserCancelled);
    EXPECT_EQ(run.stats.abort_phase, "QCoreCluster");
    EXPECT_EQ(run.stats.phases_completed, 1u);
    for (const auto role : run.result.roles) {
      EXPECT_NE(role, Role::Unknown);
    }
    for (const auto cid : run.result.core_cluster_id) {
      EXPECT_EQ(cid, kInvalidVertex);
    }
    EXPECT_TRUE(run.result.noncore_memberships.empty());
  }

  // Trip on entry to phase 1: nothing was decided at all.
  {
    RunLimits limits;
    limits.cancel_at_phase = 1;
    RunGovernor governor(limits, nullptr);
    const auto run = index.query(params, scratch, &governor);
    EXPECT_TRUE(run.partial());
    EXPECT_EQ(run.stats.abort_phase, "QCoreTest");
    for (const auto role : run.result.roles) {
      EXPECT_EQ(role, Role::Unknown);
    }
  }

  // The scratch is still good for a full query afterwards.
  const auto full = index.query(params, scratch, nullptr);
  EXPECT_FALSE(full.partial());
  EXPECT_TRUE(results_equivalent(full.result, index.query(params).result));
}

TEST(GsIndex, ManyQueriesAgainstPpScan) {
  // The index's reason to exist: repeated (ε, µ) queries. Each must agree
  // with a fresh ppSCAN run.
  LfrParams p;
  p.n = 800;
  p.avg_degree = 14;
  const auto g = lfr_like(p, 67);
  GsIndex::BuildOptions options;
  options.num_threads = 2;
  const GsIndex index(g, options);
  for (const char* eps : {"0.25", "0.45", "0.65", "0.85"}) {
    for (const std::uint32_t mu : {2u, 5u, 8u}) {
      const auto params = ScanParams::make(eps, mu);
      const auto from_index = index.query(params);
      const auto online = ppscan(g, params);
      EXPECT_TRUE(
          results_equivalent(from_index.result, online.result))
          << "eps=" << eps << " mu=" << mu;
    }
  }
}

TEST(GsIndex, CliqueAndPathEdgeCases) {
  const auto clique = make_clique(6);
  const GsIndex clique_index(clique);
  const auto run = clique_index.query(ScanParams::make("0.5", 2));
  EXPECT_EQ(run.result.num_clusters(), 1u);
  EXPECT_THROW((void)clique_index.query(ScanParams::make("0.5", 0)),
               std::invalid_argument);

  const auto path = make_path(8);
  const GsIndex path_index(path);
  const auto path_run = path_index.query(ScanParams::make("0.9", 2));
  EXPECT_EQ(path_run.result.num_clusters(), 0u);
}

TEST(GsIndex, EmptyGraph) {
  const auto g = GraphBuilder::from_edges({}, 5);
  const GsIndex index(g);
  const auto run = index.query(ScanParams::make("0.5", 1));
  EXPECT_EQ(run.result.num_clusters(), 0u);
  EXPECT_EQ(run.result.num_cores(), 0u);
}

TEST(GsIndex, DeadlineTripsInsideTheClusteringWalk) {
  // A cycle: every vertex is a core (σ = 2/3 to both neighbors) and they
  // form one giant cluster, so the walk polls the governor only from
  // inside a single component. The deadline has already passed when the
  // query starts; the core test never polls, and the walk's first poll
  // comes after 256 pops, long before the walk reaches the far side.
  const auto g = make_cycle(3000);
  const GsIndex index(g);
  const auto params = ScanParams::make("0.5", 2);
  const auto full = index.query(params);
  ASSERT_GT(full.result.num_cores(), 1000u);
  ASSERT_EQ(full.result.num_clusters(), 1u);

  RunLimits limits;
  limits.deadline = std::chrono::milliseconds(1);
  RunGovernor governor(limits, nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  GsIndex::QueryScratch scratch;
  const auto run = index.query(params, scratch, &governor);
  ASSERT_TRUE(run.partial());
  EXPECT_EQ(run.stats.abort_reason, AbortReason::DeadlineExpired);
  EXPECT_EQ(run.stats.abort_phase, "QCoreCluster");
  EXPECT_EQ(run.stats.phases_completed, 1u);
  std::uint64_t labelled = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (run.result.core_cluster_id[u] != kInvalidVertex) ++labelled;
  }
  EXPECT_GT(labelled, 0u);
  EXPECT_LT(labelled, full.result.num_cores());
  const auto report = validate_scan_result(g, params, run.result,
                                           ValidateMode::Partial);
  EXPECT_TRUE(report.ok) << report.first_error;
}

TEST(GsIndex, DifferentialOracleAcrossGraphFamiliesAndEdgeParameters) {
  // Every index answer must equal the from-definitions oracle and pass the
  // independent validator, on random graph families and the degenerate
  // shapes, at random rational ε (plus ε = 1) and at the µ edge cases:
  // 1, 2, random, max degree and max degree + 1 (no cores).
  Rng rng(0x65a1d3);
  std::vector<std::pair<std::string, CsrGraph>> graphs;
  graphs.emplace_back("empty", GraphBuilder::from_edges({}, 7));
  graphs.emplace_back("single edge", GraphBuilder::from_edges({{0, 1}}, 2));
  graphs.emplace_back("star", make_star(9));
  for (int i = 0; i < 4; ++i) {
    const auto n = static_cast<VertexId>(30 + rng.next_below(170));
    const EdgeId m = n + rng.next_below(std::uint64_t{n} * 5);
    graphs.emplace_back("er", erdos_renyi(n, m, rng.next_u64()));
    RmatParams rp;
    rp.scale = 6 + static_cast<int>(rng.next_below(3));
    rp.edge_factor = 2 + static_cast<double>(rng.next_below(6));
    graphs.emplace_back("rmat", rmat(rp, rng.next_u64()));
    LfrParams lp;
    lp.n = static_cast<VertexId>(80 + rng.next_below(150));
    lp.avg_degree = 4 + static_cast<double>(rng.next_below(12));
    lp.min_community = 5;
    lp.max_community = 40;
    graphs.emplace_back("lfr", lfr_like(lp, rng.next_u64()));
  }
  for (const auto& [family, g] : graphs) {
    GsIndex::BuildOptions options;
    options.num_threads = 1 + static_cast<int>(rng.next_below(4));
    const GsIndex index(g, options);
    VertexId max_degree = 0;
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      max_degree = std::max(max_degree, g.degree(u));
    }
    std::vector<std::uint32_t> mus = {
        1, 2, std::max<VertexId>(max_degree, 1), max_degree + 1,
        1 + static_cast<std::uint32_t>(rng.next_below(max_degree + 1))};
    std::vector<EpsRational> epsilons = {{1, 1}};
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t den = 2 + rng.next_below(999);
      epsilons.push_back({1 + rng.next_below(den), den});
    }
    for (const auto& eps : epsilons) {
      for (const std::uint32_t mu : mus) {
        const ScanParams params{eps, mu};
        const std::string context =
            family + " |V|=" + std::to_string(g.num_vertices()) +
            " |E|=" + std::to_string(g.num_edges()) + " eps=" +
            std::to_string(eps.num) + "/" + std::to_string(eps.den) +
            " mu=" + std::to_string(mu);
        const auto run = index.query(params);
        const auto report = validate_scan_result(g, params, run.result);
        ASSERT_TRUE(report.ok) << context << ": " << report.first_error;
        const auto expected = reference_scan(g, params);
        ASSERT_TRUE(results_equivalent(expected, run.result))
            << context << ": "
            << describe_result_difference(expected, run.result);
        if (mu > max_degree) {
          ASSERT_EQ(run.result.num_cores(), 0u) << context;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ppscan
