#include "scan/scan_original.hpp"

#include <deque>

#include "obs/trace.hpp"
#include "setops/intersect.hpp"
#include "util/timer.hpp"

namespace ppscan {
namespace {

class ScanOriginalRunner {
 public:
  ScanOriginalRunner(const CsrGraph& graph, const ScanParams& params,
                     const ScanOriginalOptions& options)
      : graph_(graph),
        params_(params),
        options_(options),
        governor_(options.limits, options.cancel) {
    const std::uint64_t state_bytes =
        static_cast<std::uint64_t>(graph.num_arcs()) * sizeof(ArcSim);
    alloc_ok_ = governor_.try_charge(state_bytes, "scan sim array");
    if (alloc_ok_) {
      try {
        sim_.assign(graph.num_arcs(), ArcSim::Uncached);
      } catch (const std::bad_alloc&) {
        governor_.record_alloc_failure(state_bytes, "scan sim array");
        alloc_ok_ = false;
      }
    }
    run_.result.roles.assign(graph.num_vertices(), Role::Unknown);
    run_.result.core_cluster_id.assign(graph.num_vertices(), kInvalidVertex);
  }

  ScanRun run() {
    WallTimer total;
    if (alloc_ok_ && !governor_.should_stop()) {
      governor_.enter_phase("ExpandClusters");
      PPSCAN_TRACE_SET_PHASE(options_.trace, "ExpandClusters");
      PPSCAN_TRACE_MASTER_EVENT(options_.trace,
                                obs::TraceEventKind::PhaseBegin,
                                "ExpandClusters", 0);
      VertexId next_cluster = 0;
      for (VertexId u = 0;
           u < graph_.num_vertices() && !governor_.checkpoint(); ++u) {
        if (run_.result.roles[u] != Role::Unknown) continue;
        if (check_core(u) == Role::Core) expand_cluster(u, next_cluster++);
      }
      PPSCAN_TRACE_MASTER_EVENT(options_.trace, obs::TraceEventKind::PhaseEnd,
                                "ExpandClusters", 0);
      if (!governor_.should_stop()) governor_.finish_phase();
    }
    run_.result.normalize();
    run_.stats.total_seconds = total.elapsed_s();
    record_governance(governor_, run_.stats);
    return std::move(run_);
  }

 private:
  /// Decides sim[e] for one arc with a full merge intersection. SCAN caches
  /// per-arc only: the reverse arc is recomputed by the other endpoint's
  /// CheckCore, reproducing the 2·Σ d² workload of Theorem 3.4.
  ArcSim compute_arc(VertexId u, EdgeId e) {
    const VertexId v = graph_.dst()[e];
    ++run_.stats.compsim_invocations;
    std::uint64_t common;
    if (options_.collect_breakdown) {
      ScopedAccumTimer timer(run_.stats.similarity_seconds);
      common = intersect_count_merge(graph_.neighbors(u), graph_.neighbors(v));
    } else {
      common = intersect_count_merge(graph_.neighbors(u), graph_.neighbors(v));
    }
    // |Γ(u)∩Γ(v)| = |N(u)∩N(v)| + 2 for adjacent u, v.
    const bool sim = similarity_holds(params_.eps, common + 2,
                                      graph_.degree(u), graph_.degree(v));
    // Original SCAN has no pruning and no mirroring: every directed arc is
    // intersected by its own tail, so the funnel is all sims_computed.
    run_.stats.counters.arcs_touched += 1;
    run_.stats.counters.sims_computed += 1;
    return sim ? ArcSim::Sim : ArcSim::NSim;
  }

  Role check_core(VertexId u) {
    std::uint64_t similar = 0;
    for (EdgeId e = graph_.offset_begin(u); e < graph_.offset_end(u); ++e) {
      if (sim_[e] == ArcSim::Uncached) sim_[e] = compute_arc(u, e);
      if (sim_[e] == ArcSim::Sim) ++similar;
    }
    const Role role = similar >= params_.mu ? Role::Core : Role::NonCore;
    run_.result.roles[u] = role;
    return role;
  }

  void expand_cluster(VertexId seed, VertexId cluster) {
    run_.result.core_cluster_id[seed] = cluster;
    std::deque<VertexId> queue{seed};
    while (!queue.empty()) {
      // Safe stopping point: every popped vertex is fully processed, so a
      // trip here leaves only consistently-labeled cores behind.
      if (governor_.checkpoint()) return;
      const VertexId v = queue.front();
      queue.pop_front();
      for (EdgeId e = graph_.offset_begin(v); e < graph_.offset_end(v); ++e) {
        if (sim_[e] != ArcSim::Sim) continue;
        const VertexId w = graph_.dst()[e];
        if (run_.result.roles[w] == Role::Unknown &&
            check_core(w) == Role::Core) {
          queue.push_back(w);
        }
        if (run_.result.roles[w] == Role::Core) {
          if (run_.result.core_cluster_id[w] == kInvalidVertex) {
            run_.result.core_cluster_id[w] = cluster;
            // w was a core before this expansion reached it only if it is in
            // this same similarity component, so the id assignment is safe;
            // it enters the queue exactly once, on its role transition.
          }
        } else {
          run_.result.noncore_memberships.emplace_back(w, cluster);
        }
      }
    }
  }

  const CsrGraph& graph_;
  const ScanParams& params_;
  const ScanOriginalOptions& options_;
  RunGovernor governor_;
  bool alloc_ok_ = true;
  std::vector<ArcSim> sim_;
  ScanRun run_;
};

}  // namespace

ScanRun scan_original(const CsrGraph& graph, const ScanParams& params,
                      const ScanOriginalOptions& options) {
  return ScanOriginalRunner(graph, params, options).run();
}

}  // namespace ppscan
