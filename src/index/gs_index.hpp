// GS*-Index — a similarity index answering SCAN queries for arbitrary
// (ε, µ) without recomputing intersections (after Wen et al., "Efficient
// Structural Graph Clustering: An Index-Based Approach", VLDB 2017).
//
// The paper under reproduction cites this approach as the indexing
// alternative to ppSCAN and argues its construction cost — an exhaustive
// similarity computation over every edge — is prohibitive on massive
// graphs. This module implements the index so that trade-off can be
// measured rather than asserted (bench_index_vs_online, serve/):
//
//   * Construction counts every edge's overlap by enumerating triangles
//     over a degree orientation (after Tseng, Dhulipala and Shun), each
//     triangle found once from its lowest-ranked vertex, sorts each
//     vertex's neighbors by similarity descending ("neighbor order"), and
//     for every µ sorts the vertices of degree ≥ µ by the σ of their µ-th
//     neighbor-order entry, descending ("core order").
//   * A query finds the cores of (ε, µ) as a prefix of the µ-th core order
//     by one binary search, then clusters them in one walk over the cores'
//     ε-similar neighbor-order prefixes, each prefix boundary found by
//     binary search (O(log d) exact tests). The walk starts from each
//     unlabelled core in id order, so the root is the smallest core id of
//     its cluster; non-cores met on the way become memberships. Query work
//     scales with the cores and their prefixes, not with |E|.
//
// Storage is 12 B per arc plus one offset per µ: the neighbor order keeps
// {neighbor, cn} per arc, where cn = |Γ(u)∩Γ(v)| is the closed-neighborhood
// overlap, and the core orders hold one vertex id per arc (Σ_µ |{u : d(u) ≥
// µ}| = Σ_u d(u)). Similarities are kept exact: σ(u,v) ≥ a/b is evaluated
// as cn²b² ≥ a²P with P = (d_u+1)(d_v+1) recomputed from the degrees, in
// 128-bit arithmetic — identical decisions to every other algorithm in the
// library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/csr_graph.hpp"
#include "scan/scan_common.hpp"

namespace ppscan {

class GsIndex {
 public:
  struct BuildOptions {
    int num_threads = 1;
    /// Run governance for the construction pass (the paper's argument
    /// against indexing is exactly that this pass is expensive — a deadline
    /// or budget makes it abortable). Default limits govern nothing.
    RunLimits limits;
    /// Optional external cancel token; not owned, may be null.
    CancelToken* cancel = nullptr;
    /// Optional trace collector (obs/trace.hpp): phase spans land on its
    /// master slot. Not owned; must be sized for at least num_threads
    /// workers and outlive the construction.
    obs::TraceCollector* trace = nullptr;
  };

  struct BuildStats {
    double construction_seconds = 0;
    /// Overlaps counted: one per edge, at its out-arc.
    std::uint64_t intersections = 0;
    /// Pruning-funnel counters for the construction pass (obs/counters.hpp).
    obs::AlgoCounters counters;
    /// Why an aborted construction stopped; reason None = built fully.
    RunAborted abort;
  };

  /// Reusable per-caller query state: the clustering walk's stack. A
  /// long-lived caller (serve::QueryService keeps one per worker) passes
  /// the same scratch to every query so the stack is reused, not
  /// reallocated. A default-constructed scratch is valid for any graph.
  struct QueryScratch {
    std::vector<VertexId> stack;
  };

  /// Builds the index: every edge's overlap by triangle enumeration, the
  /// per-vertex similarity sort, and the per-µ core orders. The referenced
  /// graph must outlive the index.
  GsIndex(const CsrGraph& graph, const BuildOptions& options);
  explicit GsIndex(const CsrGraph& graph) : GsIndex(graph, BuildOptions{}) {}

  /// Answers a SCAN query; the result is bit-identical to running any of
  /// the library's SCAN algorithms with the same parameters. Throws
  /// std::logic_error when the construction was aborted (an incomplete
  /// index would answer queries wrongly, not partially), and
  /// std::invalid_argument when µ is 0.
  [[nodiscard]] ScanRun query(const ScanParams& params) const;

  /// Governed query: same answers, but the scratch is caller-pooled and an
  /// optional per-query governor applies the library's partial-result
  /// semantics (scan_common.hpp) to the query itself — a deadline or
  /// cancel trip returns a labeled partial run whose decided portion is
  /// final. Phases, in cancel_at_phase ordinal order: QCoreTest,
  /// QCoreCluster. The query charges its per-vertex result arrays against
  /// the memory budget. `governor` may be null.
  [[nodiscard]] ScanRun query(const ScanParams& params, QueryScratch& scratch,
                              RunGovernor* governor) const;

  /// False when a governed construction hit a limit; build_stats().abort
  /// says why. An incomplete index refuses queries.
  [[nodiscard]] bool complete() const { return complete_; }

  [[nodiscard]] const BuildStats& build_stats() const { return build_stats_; }

  /// The graph this index answers queries for.
  [[nodiscard]] const CsrGraph& graph() const { return graph_; }

  /// Index memory footprint (neighbor order + core orders + per-µ
  /// offsets), for the construction cost discussion.
  [[nodiscard]] std::uint64_t memory_bytes() const;

  /// Exact closed-neighborhood overlap |Γ(u)∩Γ(v)| of edge (u, v), read
  /// from u's neighbor order; 0 when u and v are not adjacent. O(d(u)),
  /// for tests.
  [[nodiscard]] std::uint32_t overlap(VertexId u, VertexId v) const;

 private:
  /// One neighbor-order slot: the neighbor and the overlap cn of the arc.
  struct Entry {
    VertexId dst;
    std::uint32_t cn;
  };

  /// σ(u, order_[slot].dst) ≥ ε, with `slot` in u's window.
  [[nodiscard]] bool entry_similar(const EpsRational& eps, VertexId u,
                                   EdgeId slot) const;

  /// One-past-the-end slot of core `u`'s ε-similar prefix, by binary search
  /// over the σ-descending neighbor order. Entries [begin, begin+µ) are
  /// known similar for a core, so the search covers [begin+µ, end). Every
  /// probe is an index-entry similarity decision and is counted as
  /// arcs_touched + sims_reused.
  [[nodiscard]] EdgeId prefix_boundary(const EpsRational& eps, VertexId u,
                                       std::uint32_t mu,
                                       obs::AlgoCounters& qc) const;

  /// One construction worker's reusable core-order sort buffers: the cn
  /// and P of each member's µ-th entry, indexed by vertex, and the bucket
  /// counts. Overlap uses cn first, as the worker's marks.
  struct CoreOrderBuffers {
    std::vector<std::uint32_t> cn;
    std::vector<std::uint64_t> p;
    std::vector<std::uint32_t> buckets;
  };

  /// Writes the core order of one µ from its `count` members, the vertices
  /// of degree ≥ µ.
  void sort_core_order(std::uint32_t mu, const VertexId* members,
                       std::size_t count, CoreOrderBuffers& buf);

  const CsrGraph& graph_;
  /// Neighbor order, one entry per arc slot, each vertex's window ordered
  /// by σ descending (ties by neighbor id), so a prefix walk is sequential
  /// loads with no indirection back through the CSR.
  std::vector<Entry> order_;
  /// Core orders, concatenated by µ: [core_offset_[µ-1], core_offset_[µ])
  /// holds the vertices of degree ≥ µ by σ of their µ-th entry descending
  /// (ties by id). core_offset_ has max degree + 1 entries.
  std::vector<VertexId> core_order_;
  std::vector<EdgeId> core_offset_;
  BuildStats build_stats_;
  bool complete_ = false;
};

}  // namespace ppscan
