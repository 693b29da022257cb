// ppSCAN — the paper's contribution: multi-phase, lock-free parallel
// pruning-based structural graph clustering (Algorithms 3 and 4).
//
// Step 1, role computing (three phases, barrier between each):
//   1. PruneSim        — per-arc similarity-predicate pruning from three
//                        per-vertex degree thresholds (PruneThresholds);
//                        the first write of every arc. Settles roles
//                        decidable from degrees alone.
//                        The same pass builds each vertex's count sketch
//                        (setops/count_sketch.hpp) where ε and its degree
//                        let the sketch bound reject arcs.
//   2. CheckCore       — min-max pruning with *local* sd/ed (no shared
//                        bounds → no write-write races); computes only
//                        u < v arcs so each edge is intersected at most once
//                        and the result is mirrored to the reverse arc.
//                        An arc whose sketch bound is below min_cn is NSim
//                        without an intersection.
//   3. ConsolidateCore — same, without the u < v constraint, settling roles
//                        the order constraint left unknown (Theorem 4.2).
//
// Step 2, clustering (four phases):
//   4. ClusterCoreWithoutCompSim — unite cores over already-known similar
//                        edges (free union-find pruning for phase 5).
//   5. ClusterCoreWithCompSim    — intersect the remaining unknown
//                        core-core edges, skipping same-set pairs.
//   6. InitClusterId    — CAS-min core id per union-find set.
//   7. ClusterNonCore   — cores hand their cluster id to ε-similar non-core
//                        neighbors (worker-local buffers, merged once at the
//                        barrier with a prefix-sum copy — no lock).
//
// All vertex computations are bundled by the degree-based dynamic task
// scheduler (Algorithm 5). Per-arc state lives in one relaxed-atomic byte
// (ArcSim in scan_common.hpp), which makes the paper's benign read/write
// races defined behavior at zero cost on x86.
#pragma once

#include "concurrent/task_scheduler.hpp"
#include "scan/scan_common.hpp"
#include "setops/intersect.hpp"

namespace ppscan {

struct PpScanOptions {
  int num_threads = 1;
  /// Set-intersection kernel. Auto = best the CPU supports (paper's ppSCAN);
  /// MergeEarlyStop reproduces the paper's "ppSCAN-NO" configuration.
  IntersectKind kernel = IntersectKind::Auto;
  SchedulerOptions scheduler;

  // Ablation switches (all on = the paper's algorithm).
  bool predicate_pruning = true;  // phase 1 settles arcs from degrees
  bool minmax_pruning = true;     // early termination in phases 2-3
  bool unionfind_pruning = true;  // same-set skip in phases 4-5

  /// Run governance: deadline / memory budget / deterministic
  /// cancel-at-phase hook. Default-constructed limits govern nothing.
  RunLimits limits;
  /// Optional external cancel token (e.g. tripped from a signal handler).
  /// Not owned; may be null. A tripped token makes the run return a
  /// labeled partial result (see ScanRun).
  CancelToken* cancel = nullptr;

  /// Optional trace collector (obs/trace.hpp): phase spans land on its
  /// master slot, per-task/steal events on the worker slots. Not owned;
  /// must be sized for at least num_threads workers and outlive the run.
  obs::TraceCollector* trace = nullptr;
};

ScanRun ppscan(const CsrGraph& graph, const ScanParams& params,
               const PpScanOptions& options = {});

}  // namespace ppscan
