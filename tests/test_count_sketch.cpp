// The count-sketch bound (setops/count_sketch.hpp): never below the true
// closed common-neighbor count on any edge of any test graph, a vertex with
// a saturated bucket gets no sketch, the three min-sum versions agree, and
// ppSCAN with the bound still matches the oracle.
#include "setops/count_sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/ppscan.hpp"
#include "graph/fixtures.hpp"
#include "graph/generators.hpp"
#include "graph/graph_builder.hpp"
#include "setops/intersect.hpp"
#include "support/random_graphs.hpp"
#include "support/reference_scan.hpp"
#include "util/rng.hpp"

namespace ppscan {
namespace {

using Sketch = std::vector<std::uint8_t>;

/// Counts `nbrs` into the kSketchBuckets counters at `out` the way PruneSim
/// does (wrapping byte adds, then sketch_counts_exact). Returns false when
/// some bucket reached 255, so `out` holds no usable sketch.
bool build_count_sketch(Neighbors nbrs, std::uint8_t* out) {
  std::fill_n(out, kSketchBuckets, std::uint8_t{0});
  for (const VertexId w : nbrs) ++out[sketch_bucket(w)];
  return sketch_counts_exact(out, nbrs.size());
}

/// Checks bound >= closed count on every edge; returns how many edges had
/// both sketches (a saturated vertex has none).
std::uint64_t expect_bound_holds(const CsrGraph& g, const std::string& label) {
  const VertexId n = g.num_vertices();
  std::vector<Sketch> sketches(n, Sketch(kSketchBuckets));
  std::vector<bool> built(n);
  for (VertexId u = 0; u < n; ++u) {
    built[u] = build_count_sketch(g.neighbors(u), sketches[u].data());
  }
  const SketchMinSumFn best = sketch_min_sum_fn();
  std::uint64_t checked = 0;
  for (VertexId u = 0; u < n; ++u) {
    for (const VertexId v : g.neighbors(u)) {
      if (u >= v || !built[u] || !built[v]) continue;
      const std::uint64_t closed =
          intersect_count_merge(g.neighbors(u), g.neighbors(v)) + 2;
      const std::uint32_t sum =
          sketch_min_sum_scalar(sketches[u].data(), sketches[v].data());
      EXPECT_GE(sum + 2, closed) << label << " edge " << u << "-" << v;
      EXPECT_EQ(best(sketches[u].data(), sketches[v].data()), sum)
          << label << " edge " << u << "-" << v;
      ++checked;
    }
  }
  return checked;
}

/// `count` ids, in increasing order, that all hash to bucket `bucket`.
std::vector<VertexId> ids_in_bucket(std::size_t bucket, std::size_t count,
                                    VertexId first = 0) {
  std::vector<VertexId> ids;
  for (VertexId w = first; ids.size() < count; ++w) {
    if (sketch_bucket(w) == bucket) ids.push_back(w);
  }
  return ids;
}

TEST(CountSketch, BoundNeverBelowTrueCountOnFixtures) {
  const CsrGraph graphs[] = {
      make_clique(40),         make_path(50),
      make_cycle(64),          make_star(600),
      make_two_cliques_bridge(30), make_clique_chain(6, 20),
      make_scan_paper_example()};
  for (const CsrGraph& g : graphs) expect_bound_holds(g, "fixture");
  for (const CsrGraph& g : testing::property_test_graphs(77)) {
    expect_bound_holds(g, "property graph");
  }
}

TEST(CountSketch, BoundNeverBelowTrueCountOnFuzzFamilies) {
  Rng rng(0x5ce7c4);
  std::uint64_t checked = 0;
  for (int round = 0; round < 60; ++round) {
    checked += expect_bound_holds(testing::random_fuzz_graph(rng),
                                  "fuzz round " + std::to_string(round));
  }
  EXPECT_GT(checked, 0u);
}

TEST(CountSketch, BoundNeverBelowTrueCountOnAHub) {
  // R-MAT at a high edge factor: hubs of degree in the hundreds next to
  // vertices of degree 1, so buckets reach large counts.
  RmatParams p;
  p.scale = 11;
  p.edge_factor = 24;
  const CsrGraph g = rmat(p, 9);
  VertexId max_degree = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    max_degree = std::max(max_degree, g.degree(u));
  }
  ASSERT_GT(max_degree, 500u);
  EXPECT_GT(expect_bound_holds(g, "rmat hub"), 0u);
}

TEST(CountSketch, SaturatedBucketGetsNoSketch) {
  Sketch out(kSketchBuckets);
  const std::vector<VertexId> full = ids_in_bucket(7, 255);
  EXPECT_FALSE(build_count_sketch(full, out.data()));

  const std::vector<VertexId> almost(full.begin(), full.end() - 1);
  ASSERT_TRUE(build_count_sketch(almost, out.data()));
  EXPECT_EQ(out[7], 254);
  for (std::size_t b = 0; b < kSketchBuckets; ++b) {
    if (b != 7) {
      EXPECT_EQ(out[b], 0) << "bucket " << b;
    }
  }
}

TEST(CountSketch, WrappedBucketGetsNoSketch) {
  // Past 255 a byte counter wraps: 256 ids leave 0 in their bucket, 510
  // leave 254. Both builds must still be refused.
  Sketch out(kSketchBuckets);
  EXPECT_FALSE(build_count_sketch(ids_in_bucket(7, 256), out.data()));
  EXPECT_FALSE(build_count_sketch(ids_in_bucket(7, 510), out.data()));
  // A degree above 255 spread over many buckets is fine.
  std::vector<VertexId> spread(600);
  for (VertexId w = 0; w < spread.size(); ++w) spread[w] = w;
  EXPECT_TRUE(build_count_sketch(spread, out.data()));
}

TEST(CountSketch, PpScanMatchesOracleWhenHubsSaturate) {
  // Vertices 0 and 1 share 300 neighbors that all hash to one bucket. At
  // ε = 0.8 and 0.95 the per-vertex gate gives both a slot, their builds
  // saturate, and arc (0, 1) must go to the kernel.
  const std::vector<VertexId> shared = ids_in_bucket(3, 300, 2);
  EdgeList edges{{0, 1}};
  for (const VertexId w : shared) {
    edges.emplace_back(0, w);
    edges.emplace_back(1, w);
  }
  for (std::size_t i = 0; i + 1 < shared.size(); ++i) {
    edges.emplace_back(shared[i], shared[i + 1]);
  }
  const CsrGraph g = GraphBuilder::from_edges(std::move(edges));
  for (const char* eps : {"0.5", "0.8", "0.95"}) {
    const ScanParams params = ScanParams::make(eps, 2);
    const ScanResult expected = testing::reference_scan(g, params);
    for (const int threads : {1, 4}) {
      PpScanOptions options;
      options.num_threads = threads;
      const ScanRun run = ppscan(g, params, options);
      EXPECT_TRUE(results_equivalent(expected, run.result))
          << "eps=" << eps << " threads=" << threads << ": "
          << describe_result_difference(expected, run.result);
    }
  }
}

TEST(CountSketch, PpScanWithTheBoundMatchesOracle) {
  LfrParams p;
  p.n = 1500;
  p.avg_degree = 40;
  p.mixing = 0.3;
  const CsrGraph g = lfr_like(p, 11);
  std::uint64_t rejected = 0;
  for (const char* eps : {"0.3", "0.5", "0.7", "0.9"}) {
    const ScanParams params = ScanParams::make(eps, 4);
    const ScanResult expected = testing::reference_scan(g, params);
    for (const int threads : {1, 3}) {
      PpScanOptions options;
      options.num_threads = threads;
      const ScanRun run = ppscan(g, params, options);
      EXPECT_TRUE(results_equivalent(expected, run.result))
          << "eps=" << eps << " threads=" << threads;
      EXPECT_LE(run.stats.counters.sims_bound_rejected,
                run.stats.counters.sims_computed);
      rejected += run.stats.counters.sims_bound_rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

/// Random counters, a quarter of them 254 or 255.
Sketch random_counters(Rng& rng) {
  Sketch s(kSketchBuckets);
  for (auto& c : s) {
    switch (rng.next_below(4)) {
      case 0: c = static_cast<std::uint8_t>(254 + rng.next_below(2)); break;
      case 1: c = static_cast<std::uint8_t>(rng.next_below(4)); break;
      default: c = static_cast<std::uint8_t>(rng.next_below(256)); break;
    }
  }
  return s;
}

void expect_agrees_with_scalar(SketchMinSumFn fn) {
  Rng rng(0xb0b);
  for (int trial = 0; trial < 2000; ++trial) {
    const Sketch a = random_counters(rng);
    const Sketch b = trial % 5 == 0 ? a : random_counters(rng);
    EXPECT_EQ(fn(a.data(), b.data()),
              sketch_min_sum_scalar(a.data(), b.data()))
        << "trial " << trial;
  }
  const Sketch full(kSketchBuckets, 255);
  EXPECT_EQ(fn(full.data(), full.data()), 255u * kSketchBuckets);
}

TEST(CountSketch, Avx2MinSumAgreesWithScalar) {
  if (!sketch_avx2_supported()) GTEST_SKIP() << "no AVX2 on this CPU";
  expect_agrees_with_scalar(&sketch_min_sum_avx2);
}

TEST(CountSketch, Avx512MinSumAgreesWithScalar) {
  if (!sketch_avx512_supported()) GTEST_SKIP() << "no AVX-512BW on this CPU";
  expect_agrees_with_scalar(&sketch_min_sum_avx512);
}

TEST(CountSketch, GatesFollowTheirRules) {
  // Never at min_cn <= 2 (such arcs are Sim), never below the degree floor.
  ASSERT_EQ(min_common_neighbors(EpsRational{1, 100}, 100, 100), 2u);
  EXPECT_FALSE(sketch_can_reject(EpsRational{1, 100}, 100, 100));
  EXPECT_FALSE(sketch_worth_building(EpsRational{4, 5}, kSketchMinDegree - 1));
  // min_cn > 2 + ⌊lo·hi / (K + hi)⌋ = 2 + ⌊10000 / 356⌋ = 30 at degrees
  // 100: ε = 1/2 needs 51 there, ε = 1/10 needs 11.
  EXPECT_TRUE(sketch_can_reject(EpsRational{1, 2}, 100, 100));
  EXPECT_FALSE(sketch_can_reject(EpsRational{1, 10}, 100, 100));
  // (a(d+1) − 2b)(K + d) > b·d² at ε = 0.8 holds for d = 100 and fails for
  // a degree far above K; at ε = 0.2 it fails for d = 100.
  EXPECT_TRUE(sketch_worth_building(EpsRational{4, 5}, 100));
  EXPECT_FALSE(sketch_worth_building(EpsRational{4, 5}, 5000));
  EXPECT_FALSE(sketch_worth_building(EpsRational{1, 5}, 100));
}

TEST(CountSketch, DegreeRangeIsExactlyThePerVertexGate) {
  for (const EpsRational eps :
       {EpsRational{1, 10}, EpsRational{1, 5}, EpsRational{2, 5},
        EpsRational{3, 5}, EpsRational{4, 5}, EpsRational{19, 20},
        EpsRational{997, 1000}, EpsRational{1, 1}}) {
    const SketchDegreeRange range = sketch_degree_range(eps);
    for (VertexId d = 0; d < 50000; ++d) {
      ASSERT_EQ(range.contains(d), sketch_worth_building(eps, d))
          << eps.num << "/" << eps.den << " d=" << d;
    }
  }
  EXPECT_TRUE(sketch_degree_range(EpsRational{1, 10}).empty());
}

/// The per-pair gate as it reads against min_cn, in 128-bit arithmetic so
/// the reference cannot overflow at degrees near 2³².
bool gate_by_min_cn(std::uint32_t min_cn, VertexId du, VertexId dv) {
  using U128 = unsigned __int128;
  if (min_cn <= 2) return false;
  const U128 lo = std::min(du, dv);
  const U128 hi = std::max(du, dv);
  return U128(min_cn - 2) * (kSketchBuckets + hi) > lo * hi;
}

constexpr EpsRational kTenEps[] = {
    {1, 10}, {1, 5},  {1, 4}, {1, 3},  {2, 5},
    {1, 2},  {3, 5}, {7, 10}, {4, 5}, {19, 20}};

TEST(CountSketch, EpsTestsMatchTheMinCnFormulasExhaustively) {
  // Every (d_u, d_v) below 700, every bound sum up to min(d_u, d_v) + 2.
  constexpr VertexId kDegrees = 700;
  for (const EpsRational& eps : kTenEps) {
    std::uint64_t mismatches = 0;
    for (VertexId du = 0; du < kDegrees; ++du) {
      for (VertexId dv = 0; dv < kDegrees; ++dv) {
        const std::uint32_t min_cn = min_common_neighbors(eps, du, dv);
        mismatches += sketch_can_reject(eps, du, dv) !=
                      gate_by_min_cn(min_cn, du, dv);
        const std::uint32_t top = std::min(du, dv) + 2;
        for (std::uint32_t sum = 0; sum <= top; ++sum) {
          mismatches +=
              sketch_bound_rejects(eps, sum, du, dv) != (sum + 2 < min_cn);
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << eps.num << "/" << eps.den;
  }
}

TEST(CountSketch, EpsTestsMatchTheMinCnFormulasNearTheDegreeLimit) {
  constexpr VertexId kTop = 0xFFFFFFFEU;  // 2³² − 2
  const VertexId degrees[] = {0,        1,        16,       699,
                              65535,    kTop / 2, kTop - 4, kTop - 3,
                              kTop - 2, kTop - 1, kTop};
  for (const EpsRational& eps : kTenEps) {
    for (const VertexId du : degrees) {
      for (const VertexId dv : degrees) {
        const std::uint32_t min_cn = min_common_neighbors(eps, du, dv);
        EXPECT_EQ(sketch_can_reject(eps, du, dv),
                  gate_by_min_cn(min_cn, du, dv))
            << eps.num << "/" << eps.den << " du=" << du << " dv=" << dv;
        // The sums around min_cn − 2, where the rejection flips.
        const std::uint32_t mid = min_cn < 2 ? 0 : min_cn - 2;
        for (std::uint32_t sum = mid < 3 ? 0 : mid - 3; sum <= mid + 3;
             ++sum) {
          EXPECT_EQ(sketch_bound_rejects(eps, sum, du, dv),
                    std::uint64_t{sum} + 2 < min_cn)
              << eps.num << "/" << eps.den << " du=" << du << " dv=" << dv
              << " sum=" << sum;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ppscan
