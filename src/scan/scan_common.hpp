// Shared vocabulary of every SCAN-family algorithm in the library: input
// parameters, vertex roles, the clustering result with a canonical form for
// cross-algorithm comparison, run statistics, and the hub/outlier post-pass.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "concurrent/run_governor.hpp"
#include "graph/csr_graph.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "setops/similarity.hpp"
#include "util/types.hpp"

namespace ppscan {

/// SCAN input parameters (paper §2): 0 < ε ≤ 1 and µ ≥ 1. A vertex is a
/// core when it has at least µ ε-similar neighbors (|N_ε(u)| − 1 ≥ µ).
struct ScanParams {
  EpsRational eps{1, 5};
  std::uint32_t mu = 5;

  static ScanParams make(const std::string& eps_text, std::uint32_t mu) {
    return {EpsRational::parse(eps_text), mu};
  }
};

enum class Role : std::uint8_t { Unknown = 0, Core = 1, NonCore = 2 };

/// Per-arc similarity state, one byte per directed arc:
///   Uncached  — not looked at yet
///   Undecided — the degree rules (PruneThresholds) left it open; an
///               intersection (or ppSCAN's sketch bound) decides it, with
///               min_cn computed then
///   Sim       — predicate decided true
///   NSim      — predicate decided false
/// The values make PruneSim's branch-free store Undecided + sim + 2·nsim.
enum class ArcSim : std::uint8_t {
  Uncached = 0,
  Undecided = 1,
  Sim = 2,
  NSim = 3,
};

/// Output of a clustering run.
///
/// Cores partition into disjoint clusters (paper Lemma 3.5) so they carry a
/// direct id; non-cores may belong to several clusters (a border vertex can
/// be ε-similar to cores of different clusters), hence the membership pair
/// list — mirroring ppSCAN's own output layout.
struct ScanResult {
  std::vector<Role> roles;
  /// Cluster id per vertex; meaningful only for cores (kInvalidVertex else).
  std::vector<VertexId> core_cluster_id;
  /// (non-core vertex, cluster id) memberships; may contain duplicates until
  /// normalize() is called.
  std::vector<std::pair<VertexId, VertexId>> noncore_memberships;

  /// Sorts + dedupes the membership list.
  void normalize();

  /// Canonical clusters: each cluster a sorted vertex vector, clusters
  /// sorted lexicographically. Cluster ids are ignored, so results from
  /// different algorithms (different id conventions) compare equal when the
  /// clusterings agree.
  [[nodiscard]] std::vector<std::vector<VertexId>> canonical_clusters() const;

  [[nodiscard]] std::size_t num_clusters() const;
  [[nodiscard]] std::uint64_t num_cores() const;
};

/// True when both results agree on roles and canonical clusters.
bool results_equivalent(const ScanResult& a, const ScanResult& b);

/// Human-readable diff of the first disagreement (empty when equivalent).
std::string describe_result_difference(const ScanResult& a,
                                       const ScanResult& b);

/// Final classification of every vertex (paper Definition 2.10).
enum class VertexClass : std::uint8_t { Member, Hub, Outlier };

/// O(|V| + |E|) hub/outlier post-pass: an unclustered vertex is a hub when
/// its neighbors span at least two distinct clusters, else an outlier.
std::vector<VertexClass> classify_hubs_outliers(const CsrGraph& graph,
                                                const ScanResult& result);

/// Instrumentation accumulated during a run. Which fields are populated
/// depends on the algorithm; unused ones stay zero.
struct RunStats {
  std::uint64_t compsim_invocations = 0;
  double total_seconds = 0;
  /// Figure 1 breakdown: time inside set intersections vs the time spent in
  /// pruning bookkeeping (sd/ed updates, predicate pruning); the remainder
  /// of total_seconds is the paper's "other computation".
  double similarity_seconds = 0;
  double pruning_seconds = 0;
  /// ppSCAN per-stage wall times (Figure 6).
  double stage_prune_seconds = 0;
  double stage_check_seconds = 0;
  double stage_core_cluster_seconds = 0;
  double stage_noncore_cluster_seconds = 0;
  std::uint64_t tasks_submitted = 0;
  /// Work-stealing executor counters (zero on serial runs): ranges actually
  /// claimed and run by workers, how many of those were taken from another
  /// worker's share, and the summed per-worker in-task vs mid-phase-waiting
  /// time — the load-balance signal the scheduler ablation compares
  /// policies on.
  std::uint64_t tasks_executed = 0;
  std::uint64_t steals = 0;
  double busy_seconds = 0;
  double idle_seconds = 0;
  /// Run governance (populated by the governed algorithms): why/where a
  /// limited run stopped early — None means it ran to completion — plus
  /// how many phases reached their barrier and the peak governed bytes
  /// charged against the memory budget.
  AbortReason abort_reason = AbortReason::None;
  std::string abort_phase;
  std::uint64_t abort_bytes = 0;
  /// e.what() (truncated) when abort_reason == Exception: the typed error
  /// detail the exception firewall preserved for the caller.
  std::string abort_detail;
  std::uint32_t phases_completed = 0;
  std::uint64_t peak_governed_bytes = 0;
  /// Which execution runtime produced the executor counters above:
  /// "worksteal" (the lock-free executor) or "serial". On a serial run the
  /// tasks_executed/steals/busy/idle block is *explicitly zero* — no
  /// executor ran — so a metrics consumer must key off this field rather
  /// than read zeros as "perfectly balanced".
  std::string runtime_kind = "serial";
  /// The pruning funnel (see obs/counters.hpp for the convention and the
  /// invariant pruned + computed + reused == touched).
  obs::AlgoCounters counters;
};

/// Result + statistics bundle every algorithm entry point returns.
///
/// A governed run that hit a limit returns a *partial* result instead of
/// dying: vertices the run never decided keep Role::Unknown, cores the
/// clustering phases never labeled keep kInvalidVertex, and the membership
/// list holds whatever was collected before the trip. Everything that WAS
/// decided is final — a role or cluster edge is a function of the graph
/// alone, so the decided portion of a partial run agrees exactly with an
/// unconstrained run (validate_scan_result's Partial mode checks this).
struct ScanRun {
  ScanResult result;
  RunStats stats;

  /// True when the run was aborted by its governor and `result` covers
  /// only a prefix of the work.
  [[nodiscard]] bool partial() const {
    return stats.abort_reason != AbortReason::None;
  }
};

/// Copies the governor's outcome into the run's stats (abort taxonomy,
/// completed-phase count, peak governed memory).
void record_governance(const RunGovernor& governor, RunStats& stats);

/// Runs one named phase of a governed algorithm. The phase is skipped once
/// the run has stopped; the deadline is polled here too, so a deadline that
/// ran out during serial master work skips the phase before any bundling.
/// It counts as completed only when it reached its barrier uncancelled.
/// With a trace collector, the body runs inside a Begin/End span on the
/// master slot, the phase label is published so workers can name their
/// task events, and the first phase to see the run stopped records one
/// GovernorTrip (arg = the AbortReason).
template <typename Body>
void run_governed_phase(RunGovernor& governor, obs::TraceCollector* trace,
                        const char* name, Body&& body) {
  if (governor.should_stop()) return;  // an earlier phase saw the trip
  const auto trace_trip = [&] {
    PPSCAN_TRACE_MASTER_EVENT(trace, obs::TraceEventKind::GovernorTrip,
                              "governor-trip", governor.token().reason());
  };
  if (governor.poll_deadline()) {
    trace_trip();
    return;
  }
  governor.enter_phase(name);
  // Re-check: the cancel_at_phase test hook trips on phase entry.
  if (governor.should_stop()) {
    trace_trip();
    return;
  }
  PPSCAN_TRACE_SET_PHASE(trace, name);
  PPSCAN_TRACE_MASTER_EVENT(trace, obs::TraceEventKind::PhaseBegin, name, 0);
  body();
  PPSCAN_TRACE_MASTER_EVENT(trace, obs::TraceEventKind::PhaseEnd, name, 0);
  if (governor.should_stop()) {
    trace_trip();
  } else {
    governor.finish_phase();
  }
}

}  // namespace ppscan
