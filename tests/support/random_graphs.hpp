// Randomized graph suites shared by the property tests.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr_graph.hpp"
#include "scan/scan_common.hpp"
#include "util/rng.hpp"

namespace ppscan::testing {

/// A varied batch of small random graphs (ER at several densities, scale-
/// free, planted communities, plus degenerate shapes) for property tests.
std::vector<CsrGraph> property_test_graphs(std::uint64_t seed,
                                           int count_per_family = 3);

/// One draw from the differential fuzzer's four random families (ER,
/// Barabási–Albert, R-MAT, LFR), each with randomized size and density.
CsrGraph random_fuzz_graph(Rng& rng);

/// Parameter grid the cross-algorithm equivalence suites sweep.
std::vector<ScanParams> parameter_grid();

}  // namespace ppscan::testing
