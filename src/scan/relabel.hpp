// Vertex relabeling.
//
// SCAN implementations commonly renumber vertices by non-increasing degree
// before clustering: hubs land in adjacent ids, which improves the locality
// of the edge-property arrays and lets range-based task bundles (Algorithm
// 5) start with the heavy vertices. The clustering itself is
// permutation-equivariant, which test_relabel and test_differential_fuzz
// verify.
#pragma once

#include <vector>

#include "graph/csr_graph.hpp"
#include "scan/scan_common.hpp"

namespace ppscan {

/// A bijection old-id → new-id plus its inverse.
struct Relabeling {
  std::vector<VertexId> to_new;  // to_new[old] = new
  std::vector<VertexId> to_old;  // to_old[new] = old
};

/// Permutation sorting vertices by non-increasing degree (ties by old id,
/// so the result is deterministic).
Relabeling degree_descending_order(const CsrGraph& graph);

/// Arbitrary permutation from explicit new-id assignments; throws
/// std::invalid_argument unless `to_new` is a bijection on [0, n).
Relabeling make_relabeling(std::vector<VertexId> to_new);

/// The same graph with vertices renumbered by `relabeling`.
CsrGraph apply_relabeling(const CsrGraph& graph, const Relabeling& relabeling);

/// Maps a clustering computed on the relabeled graph back to original ids,
/// so callers can relabel internally without exposing new ids.
ScanResult map_result_to_original(const ScanResult& relabeled,
                                  const Relabeling& relabeling);

}  // namespace ppscan
