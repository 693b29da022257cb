// Algorithm counters: the pruning funnel the paper's evaluation is built
// around, counted identically across all five algorithms and GS-Index so
// runs are diffable (Fig. 4 reports compsim invocations; these break the
// remaining arcs down by WHY they were cheap).
//
// Counting convention (docs/observability.md has the worked example):
//   * arcs_touched — directed arcs whose similarity got decided, counting
//     each direction separately. An algorithm that mirrors a result onto
//     the reverse arc (the `u < v` reuse of paper Algorithm 3) counts the
//     mirror as touched + reused.
//   * arcs_predicate_pruned — decided from degrees alone (need <= 2 or
//     need > min(d(u), d(v)) + 1), no intersection run.
//   * sims_computed — intersection kernel actually invoked. In ppSCAN it
//     is the source of RunStats::compsim_invocations (no separate shared
//     counter); the other algorithms keep the two equal.
//   * sims_bound_rejected — of sims_computed, the arcs ppSCAN's count-
//     sketch bound decided NSim without a kernel call (setops/
//     count_sketch.hpp). They stay inside sims_computed, so the CompSim
//     tally and the invariant below read the same with or without the
//     bound; sims_computed − sims_bound_rejected is the kernel calls.
//   * sims_reused — decided by mirroring the reverse arc's result.
//   Invariant, by construction:
//     arcs_predicate_pruned + sims_computed + sims_reused == arcs_touched
//   and on a run that decides every arc (ppSCAN with min-max and
//   union-find pruning disabled, single thread), arcs_touched == 2|E|.
//   * core_early_exits — core checks settled before scanning the full
//     neighbor list (min-max bound conclusive, or the threshold/failure
//     count reached mid-list).
//   * uf_unions / uf_finds / uf_find_steps — union-find operations and the
//     total parent-hops walked by the counted find() calls; steps/find is
//     the path-length the paper's pruning keeps near 1.
//
// Threading model: plain (non-atomic) fields in per-worker, cache-line-
// padded slots — the same single-writer-slot pattern as the ppSCAN phase-7
// membership merge. Workers add locally; the orchestrating thread merges
// after the phase barrier, which is the happens-before edge.
#pragma once

#include <cstdint>
#include <vector>

namespace ppscan::obs {

struct AlgoCounters {
  std::uint64_t arcs_touched = 0;
  std::uint64_t arcs_predicate_pruned = 0;
  std::uint64_t sims_computed = 0;
  std::uint64_t sims_bound_rejected = 0;
  std::uint64_t sims_reused = 0;
  std::uint64_t core_early_exits = 0;
  std::uint64_t uf_unions = 0;
  std::uint64_t uf_finds = 0;
  std::uint64_t uf_find_steps = 0;

  AlgoCounters& operator+=(const AlgoCounters& o) {
    arcs_touched += o.arcs_touched;
    arcs_predicate_pruned += o.arcs_predicate_pruned;
    sims_computed += o.sims_computed;
    sims_bound_rejected += o.sims_bound_rejected;
    sims_reused += o.sims_reused;
    core_early_exits += o.core_early_exits;
    uf_unions += o.uf_unions;
    uf_finds += o.uf_finds;
    uf_find_steps += o.uf_find_steps;
    return *this;
  }
};

/// Per-worker counter slots. Padded to a cache line so two workers
/// bumping their own counters never false-share.
class CounterSlots {
 public:
  explicit CounterSlots(std::size_t num_slots) : slots_(num_slots) {}

  /// The slot is single-writer: exactly one thread may use index `i`
  /// between merges (workers use their executor index, the orchestrating
  /// thread the extra last slot — mirroring the membership-merge layout).
  [[nodiscard]] AlgoCounters& slot(std::size_t i) { return slots_[i].c; }

  /// Sums all slots. Requires a happens-before edge from every writer
  /// (executor barrier / join), same contract as TraceBuffer::snapshot.
  [[nodiscard]] AlgoCounters merged() const {
    AlgoCounters total;
    for (const Slot& s : slots_) total += s.c;
    return total;
  }

  [[nodiscard]] std::size_t size() const { return slots_.size(); }

 private:
  struct alignas(64) Slot {
    AlgoCounters c;
  };
  std::vector<Slot> slots_;
};

}  // namespace ppscan::obs
