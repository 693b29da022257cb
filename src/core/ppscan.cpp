#include "core/ppscan.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "concurrent/executor.hpp"
#include "concurrent/union_find.hpp"
#include "obs/trace.hpp"
#include "setops/count_sketch.hpp"
#include "util/atomic_array.hpp"
#include "util/timer.hpp"

namespace ppscan {
namespace {

class PpScanRunner {
 public:
  PpScanRunner(const CsrGraph& graph, const ScanParams& params,
               const PpScanOptions& options)
      : graph_(graph),
        params_(params),
        options_(options),
        kernel_(similar_fn(options.kernel)),
        sketch_min_sum_(sketch_min_sum_fn()),
        governor_(options.limits, options.cancel),
        exec_(options.num_threads),
        counters_(static_cast<std::size_t>(options.num_threads) + 1),
        sketch_degrees_(sketch_degree_range(params.eps)) {
    sched_ = options.scheduler;
    sched_.governor = &governor_;
    // Charge the state arrays and the count sketches against the memory
    // budget before allocating; on overshoot (or a real bad_alloc) the run
    // aborts before any phase and returns the all-Unknown partial result.
    // sim_ and the sketches are left unwritten: PruneSim stores every arc
    // and builds every sketch before any phase loads one, and a run cut
    // short inside PruneSim skips every later phase. Counting and slotting
    // the sketched vertices runs on the executor before the governor and
    // the trace are installed: bounded set-up work that no limit cuts short
    // and that belongs to no phase.
    const VertexId n = graph.num_vertices();
    const std::uint64_t sketched = count_sketched_vertices();
    const std::uint64_t sketch_bytes =
        sketched == 0 ? 0
                      : static_cast<std::uint64_t>(n) * sizeof(std::uint32_t) +
                            (sketched + 1) * kSketchBuckets;
    const std::uint64_t state_bytes =
        static_cast<std::uint64_t>(graph.num_arcs()) * sizeof(std::uint8_t) +
        static_cast<std::uint64_t>(n) *
            (2 * sizeof(std::uint8_t) + 2 * sizeof(VertexId)) +
        sketch_bytes;
    alloc_ok_ = governor_.try_charge(state_bytes, "ppscan state arrays");
    if (alloc_ok_) {
      try {
        sim_.assign_for_overwrite(graph.num_arcs());
        roles_.assign(n, static_cast<std::uint8_t>(Role::Unknown));
        cluster_id_.assign(n, kInvalidVertex);
        uf_.reset(n);
        if (sketched != 0) allocate_sketches(sketched);
      } catch (const std::bad_alloc&) {
        governor_.record_alloc_failure(state_bytes, "ppscan state arrays");
        alloc_ok_ = false;
      }
    }
    exec_.install_governor(&governor_);
    if (options.trace != nullptr) exec_.install_trace(options.trace);
    // One membership buffer per worker plus a trailing slot for the master
    // (serial fallbacks). Padded so concurrent appends never share a line.
    membership_slots_.resize(
        static_cast<std::size_t>(options.num_threads) + 1);
  }

  ScanRun run() {
    WallTimer total;
    // One KernelDispatch event per run: the kernels themselves are the
    // innermost loops and must stay trace-free (the trace-hotpath lint
    // rule), so the resolved kind is recorded here, once.
    PPSCAN_TRACE_MASTER_EVENT(options_.trace, obs::TraceEventKind::KernelDispatch,
                              "kernel-dispatch",
                              resolve_kernel(options_.kernel));
    if (alloc_ok_) {
      {
        ScopedAccumTimer t(stats_.stage_prune_seconds);
        phase("PruneSim", [this] { phase_prune_sim(); });
      }
      {
        ScopedAccumTimer t(stats_.stage_check_seconds);
        phase("CheckCore", [this] { phase_check_core(); });
        phase("ConsolidateCore", [this] { phase_consolidate_core(); });
      }
      {
        ScopedAccumTimer t(stats_.stage_core_cluster_seconds);
        phase("ClusterCoreWithoutCompSim",
              [this] { phase_cluster_core_without_compsim(); });
        phase("ClusterCoreWithCompSim",
              [this] { phase_cluster_core_with_compsim(); });
        phase("InitClusterId", [this] { phase_init_cluster_id(); });
      }
      {
        ScopedAccumTimer t(stats_.stage_noncore_cluster_seconds);
        phase("ClusterNonCore", [this] { phase_cluster_noncore(); });
      }
      // The last phase that reads a sketch is done.
      sketch_store_.reset();
      sketch_slot_.reset();
      sketches_ = nullptr;
    }
    ScanRun run = assemble_result();
    run.stats = stats_;
    // The slot merge happens after every phase barrier (and after the
    // serial fallbacks returned), which is the happens-before edge the
    // plain per-worker counters need.
    run.stats.counters = counters_.merged();
    // compute_arc is the only place that bumps sims_computed, once per
    // decided pair (kernel call or sketch-bound rejection): that is the
    // CompSim tally of the paper's Figure 4.
    run.stats.compsim_invocations = run.stats.counters.sims_computed;
    run.stats.runtime_kind = "worksteal";
    const ExecutorStats es = exec_.stats();
    run.stats.tasks_executed = es.tasks_executed;
    run.stats.steals = es.steals;
    run.stats.busy_seconds = es.busy_seconds;
    run.stats.idle_seconds = es.idle_seconds;
    run.stats.total_seconds = total.elapsed_s();
    record_governance(governor_, run.stats);
    return run;
  }

 private:
  [[nodiscard]] Role role_of(VertexId u) const {
    return static_cast<Role>(roles_.load(u));
  }
  void set_role(VertexId u, Role r) {
    roles_.store(u, static_cast<std::uint8_t>(r));
  }
  [[nodiscard]] ArcSim arc_state(EdgeId e) const {
    return static_cast<ArcSim>(sim_.load(e));
  }
  void set_arc_state(EdgeId e, ArcSim value) {
    sim_.store(e, static_cast<std::uint8_t>(value));
  }

  /// Runs body(first, end) for each chunk of kSlotChunk vertices on the
  /// executor (constructor only: no governor installed yet).
  template <typename Body>
  void for_each_vertex_chunk(Body&& body) {
    const VertexId n = graph_.num_vertices();
    std::vector<TaskRange> chunks;
    for (VertexId first = 0; first < n; first += kSlotChunk) {
      chunks.push_back(
          {first, n - first < kSlotChunk ? n : first + kSlotChunk});
    }
    exec_.run(chunks.data(), chunks.size(),
              [&](VertexId beg, VertexId end) { body(beg, end); });
  }

  /// Vertices whose degree passes the per-vertex sketch gate for this ε,
  /// counted per chunk in parallel; slot_base_[c] becomes the first slot
  /// of chunk c.
  [[nodiscard]] std::uint64_t count_sketched_vertices() {
    if (sketch_degrees_.empty()) return 0;
    const VertexId n = graph_.num_vertices();
    slot_base_.assign(n / kSlotChunk + 2, 0);
    for_each_vertex_chunk([this](VertexId beg, VertexId end) {
      std::uint32_t count = 0;
      for (VertexId u = beg; u < end; ++u) {
        count += sketch_degrees_.contains(graph_.degree(u)) ? 1 : 0;
      }
      slot_base_[beg / kSlotChunk + 1] = count;
    });
    for (std::size_t c = 1; c < slot_base_.size(); ++c) {
      slot_base_[c] += slot_base_[c - 1];
    }
    return slot_base_.back();
  }

  /// One kSketchBuckets-byte slot per gated vertex, allocated unwritten
  /// and 64-byte aligned: PruneSim builds each sketch from its owner, so
  /// a slot it never builds costs no resident page. The slot table is
  /// filled per chunk in parallel.
  void allocate_sketches(std::uint64_t sketched) {
    sketch_store_ = std::make_unique_for_overwrite<std::uint8_t[]>(
        (sketched + 1) * kSketchBuckets);
    const auto base = reinterpret_cast<std::uintptr_t>(sketch_store_.get());
    sketches_ = sketch_store_.get() + ((64 - base % 64) % 64);
    sketch_slot_ =
        std::make_unique_for_overwrite<std::uint32_t[]>(graph_.num_vertices());
    for_each_vertex_chunk([this](VertexId beg, VertexId end) {
      std::uint32_t next = slot_base_[beg / kSlotChunk];
      for (VertexId u = beg; u < end; ++u) {
        sketch_slot_[u] =
            sketch_degrees_.contains(graph_.degree(u)) ? next++ : kNoSketch;
      }
    });
    slot_base_ = {};
  }

  /// u's count sketch, or null when u has none (no sketch this call, u
  /// gated out, or u's build saturated a bucket). Only PruneSim, as u's
  /// owner, writes through it.
  [[nodiscard]] std::uint8_t* sketch_of(VertexId u) const {
    if (sketches_ == nullptr) return nullptr;
    const std::uint32_t slot = sketch_slot_[u];
    if (slot == kNoSketch) return nullptr;
    return sketches_ + std::size_t{slot} * kSketchBuckets;
  }

  template <typename Body>
  void phase(const char* name, Body&& body) {
    run_governed_phase(governor_, options_.trace, name,
                       std::forward<Body>(body));
  }

  template <typename NeedsWork, typename Work>
  void run_phase(NeedsWork&& needs_work, Work&& work) {
    const auto degree = [this](VertexId u) { return graph_.degree(u); };
    const ScheduleStats st = schedule_vertex_tasks(
        exec_, graph_.num_vertices(), degree,
        std::forward<NeedsWork>(needs_work), std::forward<Work>(work), sched_,
        &range_scratch_);
    stats_.tasks_submitted += st.tasks_submitted;
  }

  // Phase 1 — PruneSim(u): the first write of every arc of u. The degree
  // rules of §3.2.2 settle what they can: u's PruneThresholds, computed once
  // here, turn each arc into integer compares against d_v (no root, no
  // division, no branch on the outcome). An arc they leave open gets
  // Undecided; compute_arc derives its min_cn only if an intersection
  // ever runs on it. Roles decidable from the settled flags are set here.
  // Each directed arc is written by its tail; the head decides the reverse
  // arc identically, so no mirroring (and no race) is needed here. The same
  // pass counts u's neighbors into u's sketch slot when u has one; the slot
  // is given up afterwards when no arc of u is left to decide or a bucket
  // reached 255. Only u's owner writes sketch_slot_[u] and u's slot;
  // readers start after PruneSim's barrier.
  void phase_prune_sim() {
    run_phase(
        [](VertexId) { return true; },
        [this](VertexId u) {
          const VertexId du = graph_.degree(u);
          const PruneThresholds rules(params_.eps, du);
          const bool prune = options_.predicate_pruning;
          // Plain stores: u is the only writer of its arcs and no phase
          // reads sim_ until PruneSim's barrier.
          std::uint8_t* first_write = sim_.exclusive_data();
          std::uint8_t* sketch = sketch_of(u);
          if (sketch != nullptr) std::fill_n(sketch, kSketchBuckets, 0);
          std::uint32_t sd = 0;
          std::uint32_t nsd = 0;
          for (EdgeId e = graph_.offset_begin(u); e < graph_.offset_end(u);
               ++e) {
            const VertexId v = graph_.dst()[e];
            const VertexId dv = graph_.degree(v);
            const bool sim = prune & rules.sim(dv);
            const bool nsim = prune & !sim & rules.nsim(dv);
            sd += sim;
            nsd += nsim;
            // Undecided, Sim or NSim, without a branch.
            first_write[e] = static_cast<std::uint8_t>(
                static_cast<unsigned>(ArcSim::Undecided) + sim + 2 * nsim);
            if (sketch != nullptr) ++sketch[sketch_bucket(v)];
          }
          if (sketch != nullptr &&
              (sd + nsd == du || !sketch_counts_exact(sketch, du))) {
            sketch_slot_[u] = kNoSketch;
          }
          if (sd + nsd != 0) {
            // Each direction is decided by its own tail here (no mirror),
            // so a predicate-settled arc is touched + pruned, once per
            // direction.
            obs::AlgoCounters& c = counters_.slot(worker_slot());
            c.arcs_touched += sd + nsd;
            c.arcs_predicate_pruned += sd + nsd;
          }
          if (sd >= params_.mu) {
            set_role(u, Role::Core);
          } else if (du - nsd < params_.mu) {
            set_role(u, Role::NonCore);
          }
        });
  }

  /// True when u and v both have a sketch, the pair passes the per-pair
  /// gate, and the bound fails the similarity predicate: the arc is NSim
  /// without a kernel call. Both tests are decided from ε, so no min_cn.
  [[nodiscard]] bool bound_rejects(const std::uint8_t* su, VertexId v,
                                   VertexId du, VertexId dv) const {
    if (su == nullptr || !sketch_can_reject(params_.eps, du, dv)) {
      return false;
    }
    const std::uint8_t* sv = sketch_of(v);
    return sv != nullptr &&
           sketch_bound_rejects(params_.eps, sketch_min_sum_(su, sv), du, dv);
  }

  /// Decides one undecided edge and mirrors the flag onto the reverse arc
  /// (similarity-value reuse). `su` is u's sketch or null; when both
  /// endpoints have one and the pair passes the gate, a bound below min_cn
  /// settles NSim without the kernel. The exact min_cn is computed only
  /// for a kernel call. Returns Sim?
  bool compute_arc(VertexId u, EdgeId e, const std::uint8_t* su) {
    const VertexId v = graph_.dst()[e];
    const VertexId du = graph_.degree(u);
    const VertexId dv = graph_.degree(v);
    obs::AlgoCounters& c = counters_.slot(worker_slot());
    bool sim = false;
    if (bound_rejects(su, v, du, dv)) {
      c.sims_bound_rejected += 1;
    } else {
      sim = kernel_(graph_.neighbors(u), graph_.neighbors(v),
                    min_common_neighbors(params_.eps, du, dv));
    }
    const ArcSim flag = sim ? ArcSim::Sim : ArcSim::NSim;
    set_arc_state(e, flag);
    set_arc_state(graph_.reverse_arc(u, e), flag);
    // One decision settled two directed arcs: the computed one and the
    // mirrored reverse (the u < v reuse the funnel singles out). A bound
    // rejection counts as computed, so the CompSim tally keeps its meaning.
    c.arcs_touched += 2;
    c.sims_computed += 1;
    c.sims_reused += 1;
    return sim;
  }

  // An arc decision is a chain of dependent cache misses: d_v, v's sketch
  // slot, v's sketch, then the mirror search through N(v). for_each_arc
  // visits u's arcs in order and prefetches for the arcs ahead, so the
  // chains of several arcs overlap instead of running one after another.
  /// Far distance: offsets[v] and v's slot entry, one miss each, must land
  /// before the near prefetch reads them kFarAhead − kNearAhead arcs later.
  static constexpr EdgeId kFarAhead = 16;
  /// Near distance: about one memory latency of arc work, enough for v's
  /// sketch and N(v) to arrive before the arc is decided.
  static constexpr EdgeId kNearAhead = 8;
  /// Lines of N(v) prefetched from its head: a list of up to 128 ids is
  /// fetched whole, for the mirror search and a kernel call alike; a longer
  /// one gets its middle line, the search's first probe, as well.
  static constexpr std::uintptr_t kListLines = 8;

  void prefetch_far(EdgeId e) const {
    const VertexId v = graph_.dst()[e];
    __builtin_prefetch(&graph_.offsets()[v]);
    if (sketches_ != nullptr) __builtin_prefetch(&sketch_slot_[v]);
  }

  /// Only an arc that is still Undecided and that the phase wants can reach
  /// compute_arc; predicate-settled arcs (most of a hub's) get no prefetch.
  template <typename Wanted>
  void prefetch_near(EdgeId e, const std::uint8_t* su,
                     const Wanted& wanted) const {
    const VertexId v = graph_.dst()[e];
    if (arc_state(e) != ArcSim::Undecided || !wanted(v)) return;
    if (su != nullptr) {
      if (const std::uint8_t* sv = sketch_of(v); sv != nullptr) {
        for (std::size_t line = 0; line < kSketchBuckets; line += 64) {
          __builtin_prefetch(sv + line);
        }
      }
    }
    const VertexId* nv = graph_.dst().data() + graph_.offset_begin(v);
    const VertexId dv = graph_.degree(v);
    const std::uintptr_t head =
        reinterpret_cast<std::uintptr_t>(nv) & ~std::uintptr_t{63};
    const std::uintptr_t end = std::min(
        reinterpret_cast<std::uintptr_t>(nv + dv), head + kListLines * 64);
    for (std::uintptr_t line = head; line < end; line += 64) {
      __builtin_prefetch(reinterpret_cast<const void*>(line));
    }
    if (dv > kListLines * 64 / sizeof(VertexId)) {
      __builtin_prefetch(nv + dv / 2);
    }
  }

  /// Runs visit(e) over u's arcs in order until it returns false, with the
  /// lookahead prefetches above; `wanted(v)` is the phase's arc filter.
  /// Returns true when every arc was visited.
  template <typename Wanted, typename Visit>
  bool for_each_arc(VertexId u, const std::uint8_t* su, const Wanted& wanted,
                    Visit&& visit) const {
    const EdgeId begin = graph_.offset_begin(u);
    const EdgeId end = graph_.offset_end(u);
    for (EdgeId e = begin; e < std::min(begin + kFarAhead, end); ++e) {
      prefetch_far(e);
    }
    for (EdgeId e = begin; e < std::min(begin + kNearAhead, end); ++e) {
      prefetch_near(e, su, wanted);
    }
    for (EdgeId e = begin; e < end; ++e) {
      if (e + kFarAhead < end) prefetch_far(e + kFarAhead);
      if (e + kNearAhead < end) prefetch_near(e + kNearAhead, su, wanted);
      if (!visit(e)) return false;
    }
    return true;
  }

  // Shared body of CheckCore / ConsolidateCore (Algorithm 3 lines 21-35).
  // Local sd/ed are rebuilt from the flag array each call — the paper's
  // decoupling of the shared sd/ed arrays.
  void check_core_impl(VertexId u, bool ordered) {
    std::uint32_t sd = 0;
    std::uint32_t ed = graph_.degree(u);
    const bool early = options_.minmax_pruning;

    // Pass 1: tally already-decided arcs.
    for (EdgeId e = graph_.offset_begin(u); e < graph_.offset_end(u); ++e) {
      const ArcSim value = arc_state(e);
      if (value == ArcSim::Sim) {
        if (++sd >= params_.mu && early) {
          set_role(u, Role::Core);
          counters_.slot(worker_slot()).core_early_exits += 1;
          return;
        }
      } else if (value == ArcSim::NSim) {
        if (--ed < params_.mu && early) {
          set_role(u, Role::NonCore);
          counters_.slot(worker_slot()).core_early_exits += 1;
          return;
        }
      }
    }

    // Pass 2: compute undecided arcs (only the u < v ones when ordered),
    // stopping early once sd or ed crosses µ (sd <= ed, so at most one
    // does).
    const std::uint8_t* su = sketch_of(u);
    const auto wanted = [u, ordered](VertexId v) { return !ordered || u < v; };
    const bool finished = for_each_arc(u, su, wanted, [&](EdgeId e) {
      // Algorithm 3 contract: in the ordered phase only the u < v endpoint
      // may compute and mirror a shared arc — this is the sole writer-
      // exclusion argument for the concurrent sim_ stores in compute_arc.
      const VertexId v = graph_.dst()[e];
      if (!wanted(v)) return true;
      assert(!ordered || u < v);
      // Settled since pass 1 or during it.
      if (arc_state(e) != ArcSim::Undecided) return true;
      if (compute_arc(u, e, su)) {
        ++sd;
      } else {
        --ed;
      }
      return !early || (sd < params_.mu && ed >= params_.mu);
    });
    if (!finished) counters_.slot(worker_slot()).core_early_exits += 1;

    // When every arc of u is decided, sd == ed and the role is final;
    // otherwise (order-skipped arcs remain) the bounds may still be
    // conclusive, else the consolidating phase finishes the job.
    if (sd >= params_.mu) {
      set_role(u, Role::Core);
    } else if (ed < params_.mu) {
      set_role(u, Role::NonCore);
    }
  }

  // Phase 2 — CheckCore over still-unknown roles with the u < v constraint.
  void phase_check_core() {
    run_phase(
        [this](VertexId u) { return role_of(u) == Role::Unknown; },
        [this](VertexId u) { check_core_impl(u, /*ordered=*/true); });
  }

  // Phase 3 — ConsolidateCore: constraint dropped; Theorem 4.1 guarantees
  // the remaining computations are conflict- and duplicate-free.
  void phase_consolidate_core() {
    run_phase(
        [this](VertexId u) { return role_of(u) == Role::Unknown; },
        [this](VertexId u) { check_core_impl(u, /*ordered=*/false); });
  }

  // Phase 4 — unite cores over edges already known similar; forms the small
  // early clusters that power the union-find pruning of phase 5.
  void phase_cluster_core_without_compsim() {
    run_phase(
        [this](VertexId u) { return role_of(u) == Role::Core; },
        [this](VertexId u) {
          for (EdgeId e = graph_.offset_begin(u); e < graph_.offset_end(u);
               ++e) {
            const VertexId v = graph_.dst()[e];
            if (u >= v || role_of(v) != Role::Core) continue;
            if (arc_state(e) != ArcSim::Sim) continue;
            if (options_.unionfind_pruning && uf_.same_set(u, v)) continue;
            counters_.slot(worker_slot()).uf_unions +=
                uf_.unite(u, v) ? 1 : 0;
          }
        });
  }

  // Phase 5 — intersect the remaining unknown core-core edges; same-set
  // pairs skip the computation entirely (union-find pruning).
  void phase_cluster_core_with_compsim() {
    run_phase(
        [this](VertexId u) { return role_of(u) == Role::Core; },
        [this](VertexId u) {
          const std::uint8_t* su = sketch_of(u);
          const auto wanted = [this, u](VertexId v) {
            return u < v && role_of(v) == Role::Core;
          };
          for_each_arc(u, su, wanted, [&](EdgeId e) {
            const VertexId v = graph_.dst()[e];
            if (!wanted(v)) return true;
            const ArcSim value = arc_state(e);
            if (value != ArcSim::Undecided) {
              if (value == ArcSim::Sim &&
                  !(options_.unionfind_pruning && uf_.same_set(u, v))) {
                // Possible only when phase 4 raced a later flag write —
                // cannot happen with barriers, but uniting is idempotent.
                counters_.slot(worker_slot()).uf_unions +=
                    uf_.unite(u, v) ? 1 : 0;
              }
              return true;
            }
            if (options_.unionfind_pruning && uf_.same_set(u, v)) return true;
            if (compute_arc(u, e, su)) {
              counters_.slot(worker_slot()).uf_unions +=
                  uf_.unite(u, v) ? 1 : 0;
            }
            return true;
          });
        });
  }

  // Phase 6 — cluster id of each set = minimum member core id, via CAS-min
  // (Algorithm 4 lines 17-23).
  void phase_init_cluster_id() {
    run_phase(
        [this](VertexId u) { return role_of(u) == Role::Core; },
        [this](VertexId u) {
          obs::AlgoCounters& c = counters_.slot(worker_slot());
          c.uf_finds += 1;
          const VertexId root = uf_.find_counted(u, &c.uf_find_steps);
          VertexId current = cluster_id_.load(root);
          while (u < current &&
                 !cluster_id_.compare_exchange(root, current, u)) {
          }
        });
  }

  /// Slot the calling thread may write without synchronization (both the
  /// membership buffers and the per-worker counter slots share this
  /// layout): its executor worker slot, or the trailing master slot.
  [[nodiscard]] std::size_t worker_slot() const {
    const int w = exec_.current_worker();
    if (w >= 0) return static_cast<std::size_t>(w);
    return membership_slots_.size() - 1;
  }

  // Phase 7 — cores assign their cluster id to ε-similar non-core
  // neighbors. Each worker appends to its own padded buffer — no lock on
  // the clustering hot path — and the buffers are merged once at the
  // barrier with a prefix-sum copy.
  void phase_cluster_noncore() {
    run_phase(
        [this](VertexId u) { return role_of(u) == Role::Core; },
        [this](VertexId u) {
          const std::size_t slot = worker_slot();
          auto& local = membership_slots_[slot].pairs;
          obs::AlgoCounters& c = counters_.slot(slot);
          c.uf_finds += 1;
          const VertexId cid =
              cluster_id_.load(uf_.find_counted(u, &c.uf_find_steps));
          const std::uint8_t* su = sketch_of(u);
          const auto wanted = [this](VertexId v) {
            return role_of(v) == Role::NonCore;
          };
          for_each_arc(u, su, wanted, [&](EdgeId e) {
            const VertexId v = graph_.dst()[e];
            if (!wanted(v)) return true;
            const ArcSim value = arc_state(e);
            const bool sim = value == ArcSim::Undecided
                                 ? compute_arc(u, e, su)
                                 : value == ArcSim::Sim;
            if (sim) local.emplace_back(v, cid);
            return true;
          });
        });
    merge_memberships();
  }

  /// Prefix-sum copy of the per-worker buffers into the flat membership
  /// list; parallel on the executor (one copy task per buffer), serial on
  /// the fallback runtimes.
  void merge_memberships() {
    const std::size_t slots = membership_slots_.size();
    std::vector<std::size_t> offset(slots + 1, 0);
    for (std::size_t i = 0; i < slots; ++i) {
      offset[i + 1] = offset[i] + membership_slots_[i].pairs.size();
    }
    memberships_.resize(offset[slots]);
    const auto copy_slot = [&](std::size_t i) {
      const auto& pairs = membership_slots_[i].pairs;
      std::copy(pairs.begin(), pairs.end(),
                memberships_.begin() + static_cast<std::ptrdiff_t>(offset[i]));
    };
    // A cancelled executor skips task bodies at claim time, which would
    // leave value-initialized {0, 0} holes from the resize above — pairs
    // that reference cluster 0 the run never formed. And the trip can land
    // *mid-copy* (the deadline fires whenever it fires), so checking the
    // token up front is not enough: the governor is uninstalled for the
    // duration of the merge instead. The copy moves only already-collected
    // data — bounded, allocation-free memcpy work — so letting it finish
    // under cancellation keeps the drain latency bound intact.
    if (offset[slots] > 0) {
      exec_.install_governor(nullptr);
      std::vector<TaskRange> copies;
      for (std::size_t i = 0; i < slots; ++i) {
        if (!membership_slots_[i].pairs.empty()) {
          copies.push_back({static_cast<VertexId>(i),
                            static_cast<VertexId>(i + 1)});
        }
      }
      exec_.run(copies.data(), copies.size(),
                 [&](VertexId beg, VertexId end) {
                   for (VertexId i = beg; i < end; ++i) copy_slot(i);
                 });
      exec_.install_governor(&governor_);
    } else {
      for (std::size_t i = 0; i < slots; ++i) copy_slot(i);
    }
  }

  ScanRun assemble_result() {
    ScanRun run;
    const VertexId n = graph_.num_vertices();
    run.result.core_cluster_id.assign(n, kInvalidVertex);
    if (!alloc_ok_) {
      // The state arrays were never allocated: every vertex stays Unknown.
      run.result.roles.assign(n, Role::Unknown);
      return run;
    }
    run.result.roles.resize(n);
    for (VertexId u = 0; u < n; ++u) {
      run.result.roles[u] = role_of(u);
      if (run.result.roles[u] == Role::Core) {
        run.result.core_cluster_id[u] = cluster_id_.load(uf_.find(u));
      }
    }
    run.result.noncore_memberships = std::move(memberships_);
    run.result.normalize();
    return run;
  }

  struct alignas(64) MembershipSlot {
    std::vector<std::pair<VertexId, VertexId>> pairs;
  };

  const CsrGraph& graph_;
  const ScanParams& params_;
  const PpScanOptions& options_;
  SimilarFn kernel_;
  SketchMinSumFn sketch_min_sum_;
  // Declared before the executor so workers (which poll it) are joined
  // before the governor is destroyed.
  RunGovernor governor_;
  SchedulerOptions sched_;
  bool alloc_ok_ = true;
  Executor exec_;
  std::vector<TaskRange> range_scratch_;
  ParallelUnionFind uf_;
  // protocol: relaxed-guarded — per-arc similarity state: every write is
  // either owner-exclusive (PruneSim writes each arc first, from its tail,
  // before any phase loads one) or a
  // benign same-value race (the mirrored flag is a pure function of the
  // graph, so concurrent writers agree); phase barriers order the phases.
  AtomicArray<std::uint8_t> sim_;
  // protocol: relaxed-guarded — roles move monotonically Unknown->decided
  // and a vertex's role is a function of the graph, so late readers see
  // either Unknown (recheck) or the same final value.
  AtomicArray<std::uint8_t> roles_;
  // protocol: relaxed-guarded — cluster-id min-CAS: the CAS loop only ever
  // lowers the id, and the merge phase re-reads after the barrier.
  AtomicArray<VertexId> cluster_id_;
  std::vector<MembershipSlot> membership_slots_;
  std::vector<std::pair<VertexId, VertexId>> memberships_;
  // Per-worker pruning-funnel slots (same slot layout as
  // membership_slots_); merged into RunStats::counters at the end.
  obs::CounterSlots counters_;
  // Count sketches (setops/count_sketch.hpp): sketch_slot_[u] is u's slot
  // in sketches_ or kNoSketch; both stay null when no vertex passes the
  // per-vertex gate. Plain memory: PruneSim's owner of u writes u's slot
  // entry and sketch, and later phases only read them, after the barrier.
  static constexpr std::uint32_t kNoSketch = 0xFFFFFFFFU;
  static constexpr VertexId kSlotChunk = VertexId{1} << 14;
  SketchDegreeRange sketch_degrees_;
  std::vector<std::uint32_t> slot_base_;
  std::unique_ptr<std::uint32_t[]> sketch_slot_;
  std::unique_ptr<std::uint8_t[]> sketch_store_;
  std::uint8_t* sketches_ = nullptr;
  RunStats stats_;
};

}  // namespace

ScanRun ppscan(const CsrGraph& graph, const ScanParams& params,
               const PpScanOptions& options) {
  if (options.cancel != nullptr && options.cancel->cancelled() &&
      options.num_threads >= 1) {
    // Tripped before the call: no phase would run, so skip the executor,
    // the state arrays and the sketch count, and return the all-Unknown
    // partial result the phases would have left. (A thread count below 1
    // still reaches the Executor, which rejects it.)
    const RunGovernor governor(options.limits, options.cancel);
    ScanRun run;
    const VertexId n = graph.num_vertices();
    run.result.roles.assign(n, Role::Unknown);
    run.result.core_cluster_id.assign(n, kInvalidVertex);
    run.stats.runtime_kind = "worksteal";
    record_governance(governor, run.stats);
    return run;
  }
  return PpScanRunner(graph, params, options).run();
}

}  // namespace ppscan
