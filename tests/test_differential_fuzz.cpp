// Differential fuzzing: random graphs × random (ε, µ) × every algorithm,
// every kernel, the GS*-Index, and permutation-equivariance — all checked
// against the brute-force oracle in one loop. Catches interaction bugs the
// per-module suites cannot (e.g. a kernel edge case that only appears with
// a particular pruning state).
#include <gtest/gtest.h>

#include "bench_support/algorithms.hpp"
#include "core/ppscan.hpp"
#include "index/gs_index.hpp"
#include "scan/relabel.hpp"
#include "support/random_graphs.hpp"
#include "support/reference_scan.hpp"
#include "util/rng.hpp"

namespace ppscan {
namespace {

ScanParams random_params(Rng& rng) {
  // Random rational ε in (0,1] with denominators that produce awkward
  // thresholds (ties, near-integers).
  const std::uint64_t den = 2 + rng.next_below(999);
  const std::uint64_t num = 1 + rng.next_below(den);
  ScanParams params;
  params.eps = {num, den};
  params.mu = static_cast<std::uint32_t>(1 + rng.next_below(8));
  return params;
}

TEST(DifferentialFuzz, AllImplementationsAgreeWithTheOracle) {
  Rng rng(0xf0226d);
  constexpr int kRounds = 80;
  for (int round = 0; round < kRounds; ++round) {
    const auto graph = testing::random_fuzz_graph(rng);
    const auto params = random_params(rng);
    const auto expected = testing::reference_scan(graph, params);
    const std::string context =
        "round " + std::to_string(round) + " |V|=" +
        std::to_string(graph.num_vertices()) + " |E|=" +
        std::to_string(graph.num_edges()) + " eps=" +
        std::to_string(params.eps.num) + "/" + std::to_string(params.eps.den) +
        " mu=" + std::to_string(params.mu);

    AlgorithmConfig config;
    config.num_threads = 1 + static_cast<int>(rng.next_below(6));
    for (const auto& name : algorithm_names()) {
      const auto run = run_algorithm(name, graph, params, config);
      ASSERT_TRUE(results_equivalent(expected, run.result))
          << name << " @ " << context << ": "
          << describe_result_difference(expected, run.result);
    }

    // Every intersection kernel through ppSCAN.
    for (const auto kind :
         {IntersectKind::MergeEarlyStop, IntersectKind::PivotScalar,
          IntersectKind::PivotAvx2, IntersectKind::PivotAvx512,
          IntersectKind::BlockAvx512}) {
      if (!kernel_supported(kind)) continue;
      PpScanOptions options;
      options.num_threads = config.num_threads;
      options.kernel = kind;
      options.predicate_pruning = (round % 2) == 0;
      const auto run = ppscan(graph, params, options);
      ASSERT_TRUE(results_equivalent(expected, run.result))
          << "ppSCAN/" << to_string(kind) << " @ " << context;
    }

    // Index queries.
    const GsIndex index(graph);
    ASSERT_TRUE(results_equivalent(expected, index.query(params).result))
        << "GsIndex @ " << context;

    // Permutation equivariance through a random relabeling.
    std::vector<VertexId> perm(graph.num_vertices());
    for (VertexId i = 0; i < graph.num_vertices(); ++i) perm[i] = i;
    for (VertexId i = graph.num_vertices(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.next_below(i)]);
    }
    const auto relabeling = make_relabeling(std::move(perm));
    const auto relabeled_run =
        ppscan(apply_relabeling(graph, relabeling), params);
    const auto mapped =
        map_result_to_original(relabeled_run.result, relabeling);
    ASSERT_TRUE(results_equivalent(expected, mapped))
        << "relabeled ppSCAN @ " << context;
  }
}

}  // namespace
}  // namespace ppscan
