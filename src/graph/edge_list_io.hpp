// Graph I/O.
//
// Two formats:
//  * Text edge list — one "u v" pair per line, '#' comment lines ignored;
//    compatible with SNAP dataset dumps (the paper's real-graph source).
//  * Binary CSR — a little-endian dump of the offset and dst arrays with a
//    magic header; loads in O(read) with no rebuild, which is how the bench
//    harnesses cache generated datasets between runs.
#pragma once

#include <string>

#include "graph/csr_graph.hpp"

namespace ppscan {

/// Reads a text edge list (SNAP style). Throws GraphIoError (a
/// std::runtime_error; see util/graph_io_error.hpp) naming the file and
/// 1-based line on I/O or parse failure — including negative ids, ids above
/// the 32-bit VertexId range, and trailing garbage, which earlier versions
/// silently wrapped or truncated. Files of 1 MiB or more are parsed in
/// line-aligned chunks on default_threads() workers; the error is always
/// the first malformed line in file order. The result is
/// symmetrized/deduplicated via GraphBuilder.
CsrGraph read_edge_list_text(const std::string& path);

/// Writes "u v" lines for each undirected edge (u < v).
void write_edge_list_text(const CsrGraph& graph, const std::string& path);

/// Binary CSR snapshot (magic "PPSCANG1").
void write_csr_binary(const CsrGraph& graph, const std::string& path);

/// Reads a binary CSR snapshot. The header is bounds-checked against the
/// file size before any allocation, and with `validate` (the default) the
/// structural CSR invariants (monotone offsets, in-range sorted neighbor
/// lists, no self loops) are verified in one extra linear pass. Throws
/// GraphIoError naming the file, byte offset, and violated invariant.
CsrGraph read_csr_binary(const std::string& path, bool validate = true);

}  // namespace ppscan
