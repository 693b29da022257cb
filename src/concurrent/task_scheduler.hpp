// Degree-based dynamic task scheduling (paper Algorithm 5).
//
// The master thread sweeps the vertex range, accumulating the degrees of
// vertices that still need work; once the accumulated degree sum exceeds a
// threshold (paper default 32768) the pending range [beg, u+1) becomes one
// task. Workers re-test the per-vertex predicate inside the task, so a
// vertex whose role was settled between bundling and execution is skipped
// for free. Degree sum is a good workload proxy because every vertex
// computation in SCAN touches each neighbor at most a constant number of
// times, and consecutive vertex ranges keep the edge-array accesses of a
// task contiguous.
//
// The tasks run on the lock-free work-stealing Executor: the master
// precomputes the task boundaries of the whole phase into a flat TaskRange
// array (reusable scratch, so steady-state phases allocate nothing) and
// workers claim/steal indices with single CAS operations. No std::function,
// no mutex, no per-task allocation.
//
// Alternative bundling policies for the scheduler ablation bench: static
// (equal degree-sum ranges, one per thread) and fixed vertex-count chunks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "concurrent/executor.hpp"
#include "concurrent/run_governor.hpp"
#include "util/types.hpp"

namespace ppscan {

enum class SchedulerKind : std::uint8_t {
  DegreeSum,   // Algorithm 5
  StaticRange, // one equal-degree-sum range per thread
  FixedChunk,  // fixed vertex count per task
};

inline std::string to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::DegreeSum: return "degree";
    case SchedulerKind::StaticRange: return "static";
    case SchedulerKind::FixedChunk: return "chunk";
  }
  return "?";
}

struct SchedulerOptions {
  SchedulerKind kind = SchedulerKind::DegreeSum;
  std::uint64_t degree_threshold = 32768;  // paper's tuned value
  VertexId chunk_size = 4096;              // for FixedChunk
  /// Run governance (cancellation/deadline/budget). When set, the
  /// scheduled bodies poll the cancel token and the deadline every
  /// kGovernorPollStride vertices so even a single huge range drains
  /// promptly after a trip or once the deadline passes.
  /// Not owned; must outlive the scheduled phases. nullptr = ungoverned
  /// (zero overhead).
  RunGovernor* governor = nullptr;
};

/// Vertices between governor polls inside a scheduled range. Power of
/// two; one relaxed atomic load per stride on the governed path, plus one
/// clock read when the run has a deadline.
inline constexpr VertexId kGovernorPollStride = 64;

/// Statistics of one scheduled phase, for the load-balance ablation.
struct ScheduleStats {
  std::uint64_t tasks_submitted = 0;
};

namespace detail {

/// Bundles [0, n) into TaskRange boundaries according to `options`,
/// appending to `ranges` (not cleared). Vertices failing `needs_work` still
/// land inside some range under non-degree policies; the worker-side
/// re-test skips them. Returns the number of ranges appended.
///
/// Guards the degenerate inputs (n == 0, n < num_threads, zero-width
/// ranges) that made the seed StaticRange math hazardous.
template <typename DegreeOf, typename NeedsWork>
std::uint64_t bundle_ranges(std::vector<TaskRange>& ranges, VertexId n,
                            int num_threads, DegreeOf&& degree_of,
                            NeedsWork&& needs_work,
                            const SchedulerOptions& options) {
  const std::size_t before = ranges.size();
  if (n == 0) return 0;
  const auto push = [&](VertexId beg, VertexId end) {
    if (beg < end) ranges.push_back({beg, end});
  };
  switch (options.kind) {
    case SchedulerKind::DegreeSum: {
      std::uint64_t deg_sum = 0;
      VertexId beg = 0;
      for (VertexId u = 0; u < n; ++u) {
        if (!needs_work(u)) continue;
        deg_sum += degree_of(u);
        if (deg_sum > options.degree_threshold) {
          push(beg, u + 1);
          deg_sum = 0;
          beg = u + 1;
        }
      }
      push(beg, n);
      break;
    }
    case SchedulerKind::StaticRange: {
      // Degree-weighted split: part i ends at the first vertex whose degree
      // prefix crosses i/t of the total, so every static partition
      // carries a near-equal edge count (the similarity phases' cost is
      // degree-shaped) instead of a near-equal vertex count.
      const auto t = static_cast<VertexId>(std::max(1, num_threads));
      std::uint64_t total = 0;
      for (VertexId u = 0; u < n; ++u) total += degree_of(u);
      if (total == 0) {
        push(0, n);
        break;
      }
      std::uint64_t prefix = 0;
      VertexId beg = 0;
      VertexId part = 1;
      for (VertexId u = 0; u < n && part < t; ++u) {
        prefix += degree_of(u);
        if (prefix * t >= total * part) {
          push(beg, u + 1);
          beg = u + 1;
          ++part;
        }
      }
      push(beg, n);
      break;
    }
    case SchedulerKind::FixedChunk: {
      const VertexId width = std::max<VertexId>(1, options.chunk_size);
      for (VertexId beg = 0; beg < n; beg += width) {
        push(beg, std::min<VertexId>(beg + width, n));
      }
      break;
    }
  }
  return ranges.size() - before;
}

/// Wraps the per-range body with the governed poll: RunGovernor::
/// poll_deadline every kGovernorPollStride vertices (one relaxed token load,
/// plus a clock read only when a deadline is set), so a cancelled or
/// expired run abandons even a huge range in O(stride) work.
template <typename NeedsWork, typename Work>
auto make_range_body(NeedsWork& needs_work, Work& work,
                     RunGovernor* governor) {
  return [&needs_work, &work, governor](VertexId beg, VertexId end) {
    for (VertexId u = beg; u < end; ++u) {
      if (governor != nullptr &&
          ((u - beg) & (kGovernorPollStride - 1)) == 0 &&
          governor->poll_deadline()) {
        return;
      }
      if (needs_work(u)) work(u);
    }
  };
}

}  // namespace detail

/// Runs `body(i)` for every i in [0, count), one task per index: on
/// `executor` when given, else in index order on the calling thread. For
/// phases already cut into a few even pieces (text-ingest chunks, edge-list
/// slices), where degree bundling has nothing to add.
template <typename Body>
void run_index_tasks(Executor* executor, VertexId count, Body&& body) {
  if (executor == nullptr) {
    for (VertexId i = 0; i < count; ++i) body(i);
    return;
  }
  std::vector<TaskRange> tasks(count);
  for (VertexId i = 0; i < count; ++i) tasks[i] = {i, i + 1};
  executor->run(tasks.data(), tasks.size(), [&](VertexId beg, VertexId end) {
    for (VertexId i = beg; i < end; ++i) body(i);
  });
}

/// Runs `work(u)` for every u in [0, n) with `needs_work(u)` true on the
/// work-stealing executor, bundling vertices into ranges according to
/// `options`. `degree_of(u)` feeds the degree-sum policy. Blocks until all
/// tasks finish (executor barrier).
///
/// `scratch`, when given, is reused for the flat boundary array so
/// steady-state phases perform zero allocations end to end (the per-task
/// path never allocates either way).
///
/// NeedsWork and Work must be safe to invoke concurrently from worker
/// threads; NeedsWork is additionally evaluated on the master while
/// bundling (degree policy only).
template <typename DegreeOf, typename NeedsWork, typename Work>
ScheduleStats schedule_vertex_tasks(Executor& executor, VertexId n,
                                    DegreeOf&& degree_of,
                                    NeedsWork&& needs_work, Work&& work,
                                    const SchedulerOptions& options = {},
                                    std::vector<TaskRange>* scratch =
                                        nullptr) {
  ScheduleStats stats;
  if (options.governor != nullptr && options.governor->poll_deadline()) {
    return stats;  // stopped before bundling: the whole phase is skipped
  }
  std::vector<TaskRange> local;
  std::vector<TaskRange>& ranges = scratch != nullptr ? *scratch : local;
  ranges.clear();
  stats.tasks_submitted = detail::bundle_ranges(
      ranges, n, executor.num_threads(), degree_of, needs_work, options);
  executor.run(ranges.data(), ranges.size(),
               detail::make_range_body(needs_work, work, options.governor));
  return stats;
}

}  // namespace ppscan
