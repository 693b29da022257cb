#include "scan/pscan.hpp"

#include <algorithm>

#include "concurrent/union_find.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace ppscan {
namespace {

class PscanRunner {
 public:
  PscanRunner(const CsrGraph& graph, const ScanParams& params,
              const PscanOptions& options)
      : graph_(graph),
        params_(params),
        options_(options),
        kernel_(similar_fn(options.kernel)),
        governor_(options.limits, options.cancel) {
    const VertexId n = graph.num_vertices();
    // Charge the state arrays before allocating; overshoot (or bad_alloc)
    // aborts before any phase with the all-Unknown result.
    const std::uint64_t state_bytes =
        static_cast<std::uint64_t>(graph.num_arcs()) * sizeof(ArcSim) +
        static_cast<std::uint64_t>(n) *
            (3 * sizeof(std::uint32_t) + sizeof(VertexId) +
             sizeof(std::uint8_t));
    alloc_ok_ = governor_.try_charge(state_bytes, "pscan state arrays");
    if (alloc_ok_) {
      try {
        sim_.assign(graph.num_arcs(), ArcSim::Uncached);
        sd_.assign(n, 0);
        ed_.resize(n);
        uf_.reset(n);
        for (VertexId u = 0; u < n; ++u) ed_[u] = graph.degree(u);
      } catch (const std::bad_alloc&) {
        governor_.record_alloc_failure(state_bytes, "pscan state arrays");
        alloc_ok_ = false;
      }
    }
    run_.result.roles.assign(n, Role::Unknown);
    run_.result.core_cluster_id.assign(n, kInvalidVertex);
  }

  ScanRun run() {
    WallTimer total;
    if (alloc_ok_) {
      phase("CheckCore", [this] {
        if (options_.dynamic_ed_order) {
          run_core_phase_dynamic_order();
        } else {
          for (VertexId u = 0; u < graph_.num_vertices(); ++u) {
            if (governor_.checkpoint()) break;
            process_vertex(u);
          }
        }
      });
      phase("ClusterNonCore", [this] { cluster_noncores(); });
    }
    run_.result.normalize();
    run_.stats.total_seconds = total.elapsed_s();
    record_governance(governor_, run_.stats);
    return std::move(run_);
  }

 private:
  // Sequential runner: the calling thread is the collector's master slot.
  template <typename Body>
  void phase(const char* name, Body&& body) {
    run_governed_phase(governor_, options_.trace, name,
                       std::forward<Body>(body));
  }

  /// Lazy bucket queue over the *current* effective degree: buckets are
  /// visited from high ed to low; a vertex found in a stale (too-high)
  /// bucket is dropped down to its current one. ed only decreases, so a
  /// reinserted vertex lands in a bucket not yet drained.
  void run_core_phase_dynamic_order() {
    VertexId max_d = 0;
    for (VertexId u = 0; u < graph_.num_vertices(); ++u) {
      max_d = std::max(max_d, graph_.degree(u));
    }
    std::vector<std::vector<VertexId>> bins(max_d + 1);
    for (VertexId u = 0; u < graph_.num_vertices(); ++u) {
      bins[ed_[u]].push_back(u);
    }
    for (VertexId bin = max_d;; --bin) {
      // Index loop: reinsertions go to strictly lower bins, never this one.
      for (std::size_t i = 0; i < bins[bin].size(); ++i) {
        const VertexId u = bins[bin][i];
        if (run_.result.roles[u] != Role::Unknown) continue;  // processed
        if (ed_[u] < bin) {
          bins[ed_[u]].push_back(u);  // stale entry, drop down
          continue;
        }
        if (governor_.checkpoint()) return;
        process_vertex(u);
      }
      if (bin == 0) break;
    }
  }

  void process_vertex(VertexId u) {
    if (run_.result.roles[u] != Role::Unknown) return;
    check_core(u);
    if (run_.result.roles[u] == Role::Core) cluster_core(u);
  }

  /// Applies the predicate pruning to arc e of u on first touch (`rules`
  /// are u's PruneThresholds) and returns the arc's value: decided, or
  /// ArcSim::Undecided.
  ArcSim touch_arc(const PruneThresholds& rules, VertexId u, EdgeId e) {
    ArcSim value = sim_[e];
    if (value != ArcSim::Uncached) return value;
    const VertexId v = graph_.dst()[e];
    switch (rules.classify(graph_.degree(v))) {
      case PruneOutcome::Sim: value = ArcSim::Sim; break;
      case PruneOutcome::NSim: value = ArcSim::NSim; break;
      case PruneOutcome::Unknown: value = ArcSim::Undecided; break;
    }
    sim_[e] = value;
    sim_[graph_.reverse_arc(u, e)] = value;
    if (value != ArcSim::Undecided) {
      // The predicate decides both directions at once (mirror write above):
      // two arcs touched, two pruned. Undecided is not a decision yet —
      // compute_arc counts it when the intersection settles the edge.
      run_.stats.counters.arcs_touched += 2;
      run_.stats.counters.arcs_predicate_pruned += 2;
      apply_decision(u, v, value == ArcSim::Sim);
    }
    return value;
  }

  /// Bookkeeping when arc (u,v) transitions to a decided flag: exactly one
  /// sd/ed update per endpoint per edge.
  void apply_decision(VertexId u, VertexId v, bool sim) {
    if (sim) {
      ++sd_[u];
      ++sd_[v];
    } else {
      --ed_[u];
      --ed_[v];
    }
  }

  /// Runs the intersection kernel for an undecided arc and records the flag
  /// on both directions.
  bool compute_arc(VertexId u, EdgeId e) {
    const VertexId v = graph_.dst()[e];
    const std::uint32_t min_cn =
        min_common_neighbors(params_.eps, graph_.degree(u), graph_.degree(v));
    ++run_.stats.compsim_invocations;
    bool sim;
    if (options_.collect_breakdown) {
      ScopedAccumTimer timer(run_.stats.similarity_seconds);
      sim = kernel_(graph_.neighbors(u), graph_.neighbors(v), min_cn);
    } else {
      sim = kernel_(graph_.neighbors(u), graph_.neighbors(v), min_cn);
    }
    const ArcSim flag = sim ? ArcSim::Sim : ArcSim::NSim;
    sim_[e] = flag;
    sim_[graph_.reverse_arc(u, e)] = flag;
    // One intersection settles both directions: the computed arc plus the
    // mirrored reverse arc (counted as reused, like ppSCAN's u < v rule).
    run_.stats.counters.arcs_touched += 2;
    run_.stats.counters.sims_computed += 1;
    run_.stats.counters.sims_reused += 1;
    apply_decision(u, v, sim);
    return sim;
  }

  void check_core(VertexId u) {
    if (sd_[u] < params_.mu && ed_[u] >= params_.mu) {
      const PruneThresholds rules(params_.eps, graph_.degree(u));
      for (EdgeId e = graph_.offset_begin(u); e < graph_.offset_end(u); ++e) {
        ArcSim value;
        if (options_.collect_breakdown) {
          ScopedAccumTimer timer(run_.stats.pruning_seconds);
          value = touch_arc(rules, u, e);
        } else {
          value = touch_arc(rules, u, e);
        }
        if (value == ArcSim::Undecided) compute_arc(u, e);
        if (sd_[u] >= params_.mu || ed_[u] < params_.mu) {
          run_.stats.counters.core_early_exits += 1;
          break;
        }
      }
    } else {
      // sd/ed bounds were already conclusive — the arc loop never ran.
      run_.stats.counters.core_early_exits += 1;
    }
    run_.result.roles[u] =
        sd_[u] >= params_.mu ? Role::Core : Role::NonCore;
  }

  void cluster_core(VertexId u) {
    const PruneThresholds rules(params_.eps, graph_.degree(u));
    for (EdgeId e = graph_.offset_begin(u); e < graph_.offset_end(u); ++e) {
      const VertexId v = graph_.dst()[e];
      // Only neighbors already known to be cores take part; the edge to a
      // not-yet-processed core is handled later by ClusterCore(v).
      if (sd_[v] < params_.mu) continue;
      if (uf_.same_set(u, v)) continue;  // union-find pruning
      ArcSim value = touch_arc(rules, u, e);
      if (value == ArcSim::Undecided) {
        value = compute_arc(u, e) ? ArcSim::Sim : ArcSim::NSim;
      }
      if (value == ArcSim::Sim) {
        run_.stats.counters.uf_unions += uf_.unite(u, v) ? 1 : 0;
      }
    }
  }

  void cluster_noncores() {
    // Cluster id of each set = minimum core id it contains.
    std::vector<VertexId> cluster_id(graph_.num_vertices(), kInvalidVertex);
    for (VertexId u = 0; u < graph_.num_vertices(); ++u) {
      if (run_.result.roles[u] != Role::Core) continue;
      run_.stats.counters.uf_finds += 1;
      const VertexId root =
          uf_.find_counted(u, &run_.stats.counters.uf_find_steps);
      cluster_id[root] = std::min(cluster_id[root], u);
    }
    for (VertexId u = 0; u < graph_.num_vertices(); ++u) {
      if (run_.result.roles[u] != Role::Core) continue;
      run_.stats.counters.uf_finds += 1;
      run_.result.core_cluster_id[u] =
          cluster_id[uf_.find_counted(u, &run_.stats.counters.uf_find_steps)];
    }
    for (VertexId u = 0; u < graph_.num_vertices(); ++u) {
      if (run_.result.roles[u] != Role::Core) continue;
      // The id loops above are cheap and run to completion, so every cid
      // read below is valid; only this intersection loop polls the governor.
      if (governor_.checkpoint()) return;
      const PruneThresholds rules(params_.eps, graph_.degree(u));
      for (EdgeId e = graph_.offset_begin(u); e < graph_.offset_end(u); ++e) {
        const VertexId v = graph_.dst()[e];
        if (run_.result.roles[v] == Role::Core) continue;
        ArcSim value = touch_arc(rules, u, e);
        if (value == ArcSim::Undecided) {
          value = compute_arc(u, e) ? ArcSim::Sim : ArcSim::NSim;
        }
        if (value == ArcSim::Sim) {
          run_.stats.counters.uf_finds += 1;
          run_.result.noncore_memberships.emplace_back(
              v, cluster_id[uf_.find_counted(
                     u, &run_.stats.counters.uf_find_steps)]);
        }
      }
    }
  }

  const CsrGraph& graph_;
  const ScanParams& params_;
  const PscanOptions& options_;
  SimilarFn kernel_;
  RunGovernor governor_;
  bool alloc_ok_ = true;
  std::vector<ArcSim> sim_;
  std::vector<std::uint32_t> sd_;
  std::vector<std::uint32_t> ed_;
  UnionFind uf_;
  ScanRun run_;
};

}  // namespace

ScanRun pscan(const CsrGraph& graph, const ScanParams& params,
              const PscanOptions& options) {
  return PscanRunner(graph, params, options).run();
}

}  // namespace ppscan
