#include "support/random_graphs.hpp"

#include <algorithm>

#include "graph/fixtures.hpp"
#include "graph/generators.hpp"

namespace ppscan::testing {

std::vector<CsrGraph> property_test_graphs(std::uint64_t seed,
                                           int count_per_family) {
  std::vector<CsrGraph> graphs;
  for (int i = 0; i < count_per_family; ++i) {
    const std::uint64_t s = seed + static_cast<std::uint64_t>(i) * 7919;
    graphs.push_back(erdos_renyi(60, 120, s));           // sparse ER
    graphs.push_back(erdos_renyi(60, 600, s + 1));       // dense ER
    graphs.push_back(barabasi_albert(120, 4, s + 2));    // scale-free
    LfrParams lfr;
    lfr.n = 150;
    lfr.avg_degree = 12;
    lfr.mixing = 0.2;
    lfr.min_community = 8;
    lfr.max_community = 40;
    graphs.push_back(lfr_like(lfr, s + 3));              // communities
  }
  // Degenerate shapes once per suite.
  graphs.push_back(make_clique(8));
  graphs.push_back(make_path(16));
  graphs.push_back(make_star(12));
  graphs.push_back(make_two_cliques_bridge(6));
  graphs.push_back(make_clique_chain(4, 5));
  graphs.push_back(make_scan_paper_example());
  return graphs;
}

CsrGraph random_fuzz_graph(Rng& rng) {
  switch (rng.next_below(4)) {
    case 0: {
      const auto n = static_cast<VertexId>(20 + rng.next_below(150));
      const EdgeId max_m = static_cast<EdgeId>(n) * (n - 1) / 2;
      const EdgeId m = 1 + rng.next_below(std::min<EdgeId>(max_m, n * 6));
      return erdos_renyi(n, m, rng.next_u64());
    }
    case 1: {
      const auto m = static_cast<VertexId>(1 + rng.next_below(6));
      const auto n = static_cast<VertexId>(m + 2 + rng.next_below(150));
      return barabasi_albert(n, m, rng.next_u64());
    }
    case 2: {
      RmatParams p;
      p.scale = 6 + static_cast<int>(rng.next_below(3));
      p.edge_factor = 2 + static_cast<double>(rng.next_below(8));
      return rmat(p, rng.next_u64());
    }
    default: {
      LfrParams p;
      p.n = static_cast<VertexId>(60 + rng.next_below(200));
      p.avg_degree = 4 + static_cast<double>(rng.next_below(16));
      p.mixing = 0.05 + 0.4 * rng.next_double();
      p.min_community = 5;
      p.max_community = 50;
      return lfr_like(p, rng.next_u64());
    }
  }
}

std::vector<ScanParams> parameter_grid() {
  std::vector<ScanParams> grid;
  for (const char* eps : {"0.2", "0.4", "0.5", "0.6", "0.8"}) {
    for (const std::uint32_t mu : {1u, 2u, 4u}) {
      grid.push_back(ScanParams::make(eps, mu));
    }
  }
  return grid;
}

}  // namespace ppscan::testing
