#include "graph/csr_graph.hpp"

#include <string>

#include "graph/csr_validate.hpp"
#include "util/graph_io_error.hpp"

namespace ppscan {

CsrGraph::CsrGraph(std::vector<EdgeId> offsets, std::vector<VertexId> dst)
    : offsets_(std::move(offsets)), dst_(std::move(dst)) {
  if (offsets_.empty() || offsets_.front() != 0 ||
      offsets_.back() != dst_.size()) {
    throw GraphIoError(
        GraphIoErrorKind::kMalformedOffsets,
        offsets_.empty()
            ? "offset array is empty"
            : "offsets must start at 0 and end at the arc count (" +
                  std::to_string(dst_.size()) + "), got [" +
                  std::to_string(offsets_.front()) + ", " +
                  std::to_string(offsets_.back()) + "]");
  }
}

void CsrGraph::validate(bool check_symmetry) const {
  const VertexId n = num_vertices();

  // Structural pass: the same single-sweep validator the binary loader
  // runs on cache-hot chunks (csr_validate.hpp); here it gets the whole
  // dst array as one chunk. On corrupt input it rescans serially and
  // throws the precise invariant/vertex/index.
  CsrPayloadValidator checker(offsets_, dst_.size());
  checker.check_offsets();
  checker.feed(dst_.data(), dst_.size());
  checker.finish();

  if (!check_symmetry) return;
  // Symmetry pass: throws at the first arc, in (u, v) order, whose
  // reverse is missing.
  for (VertexId u = 0; u < n; ++u) {
    for (const VertexId v : neighbors(u)) {
      if (arc_index(v, u) == kInvalidEdge) {
        throw GraphIoError(GraphIoErrorKind::kAsymmetricArc,
                           "arc (" + std::to_string(u) + "," +
                               std::to_string(v) + ") has no reverse arc");
      }
    }
  }
}

}  // namespace ppscan
