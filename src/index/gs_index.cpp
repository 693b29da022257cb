#include "index/gs_index.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "concurrent/task_scheduler.hpp"
#include "concurrent/executor.hpp"
#include "concurrent/run_governor.hpp"
#include "obs/trace.hpp"
#include "util/fault_point.hpp"
#include "util/timer.hpp"

namespace ppscan {
namespace {

using U128 = unsigned __int128;

inline std::uint64_t degree_plus_one(const CsrGraph& graph, VertexId v) {
  return std::uint64_t{graph.degree(v)} + 1;
}

/// cn²·b² ≥ a²·P — the same decision as similarity_holds()
/// (setops/similarity.cpp), byte for byte: P fits u64 because degrees are
/// 32-bit, and the comparison is 128-bit either way.
inline bool sim_from_key(const EpsRational& eps, std::uint32_t cn,
                         std::uint64_t pk) {
  const U128 lhs = U128(cn) * cn * eps.den * eps.den;
  const U128 rhs = U128(eps.num) * eps.num * pk;
  return lhs >= rhs;
}

/// How often the query reads the governor's clock: once every this many
/// pops of the clustering walk, so even one giant component is polled.
constexpr std::uint64_t kGovernPollStride = 256;

}  // namespace

GsIndex::GsIndex(const CsrGraph& graph, const BuildOptions& options)
    : graph_(graph) {
  WallTimer timer;
  RunGovernor governor(options.limits, options.cancel);
  const VertexId n = graph.num_vertices();
  VertexId max_degree = 0;
  for (VertexId u = 0; u < n; ++u) {
    max_degree = std::max(max_degree, graph.degree(u));
  }
  // Charge the index arrays against the memory budget before allocating —
  // the construction footprint is the cost the paper argues makes indexing
  // prohibitive, so it is the natural thing to bound. The scratch (the
  // vertices by degree, plus per worker a mark or cn and a P per vertex and
  // the bucket counts) is transient and uncharged again below.
  const auto arcs = static_cast<std::uint64_t>(graph.num_arcs());
  const std::uint64_t index_bytes =
      arcs * (sizeof(Entry) + sizeof(VertexId)) +
      (std::uint64_t{max_degree} + 1) * sizeof(EdgeId);
  const auto workers = static_cast<std::size_t>(options.num_threads) + 1;
  const std::uint64_t sort_bytes =
      std::uint64_t{n} * sizeof(VertexId) +
      workers * (std::uint64_t{n} *
                     (sizeof(std::uint32_t) + sizeof(std::uint64_t)) +
                 (std::uint64_t{n} + 1) * sizeof(std::uint32_t));
  std::vector<VertexId> by_degree;
  bool alloc_ok = governor.try_charge(index_bytes + sort_bytes,
                                      "gs-index arrays");
  if (alloc_ok) {
    try {
      order_.assign(graph.num_arcs(), Entry{0, 0});
      core_order_.assign(graph.num_arcs(), 0);
      core_offset_.assign(std::size_t{max_degree} + 1, 0);
      by_degree.assign(n, 0);
    } catch (const std::bad_alloc&) {
      governor.record_alloc_failure(index_bytes + sort_bytes,
                                    "gs-index arrays");
      alloc_ok = false;
    }
  }

  Executor pool(options.num_threads);
  pool.install_governor(&governor);
  if (options.trace != nullptr) pool.install_trace(options.trace);
  // Per-worker slots (workers 0..N-1, last = master fallback): counters
  // merged serially after the final phase barrier, and core-order buffers.
  obs::CounterSlots counters(workers);
  std::vector<CoreOrderBuffers> core_buffers(workers);
  const auto worker_slot = [&] {
    const int w = pool.current_worker();
    return w >= 0 ? static_cast<std::size_t>(w) : workers - 1;
  };
  // The calling worker's buffers, allocated on first use.
  const auto worker_buffers = [&]() -> CoreOrderBuffers& {
    CoreOrderBuffers& buf = core_buffers[worker_slot()];
    if (buf.cn.empty()) {
      buf.cn.resize(n);
      buf.p.resize(n);
    }
    return buf;
  };
  SchedulerOptions sched;
  sched.governor = &governor;
  const auto degree_of = [&](VertexId u) { return graph_.degree(u); };
  const auto all = [](VertexId) { return true; };

  const auto phase = [&](const char* name, auto&& body) {
    run_governed_phase(governor, options.trace, name, body);
  };

  if (alloc_ok) {
    // Overlaps by triangle enumeration over the degree orientation (Tseng,
    // Dhulipala and Shun): each triangle is found exactly once, from its
    // lowest-ranked vertex u, by testing N⁺(v) against the marked N⁺(u) for
    // every v ∈ N⁺(u), and adds 1 to each of its three edges. An edge's
    // count collects on its out-arc; one pass then copies it onto both arcs
    // and adds 2 for the closed neighborhoods.
    phase("Overlap", [&] {
      const VertexId* dst = graph_.dst().data();
      // v outranks u: higher degree, ties by higher id. A total order, so
      // every edge has one out-arc, from its lower-ranked endpoint.
      const auto outranks = [&](VertexId v, VertexId u) {
        const VertexId dv = graph_.degree(v);
        const VertexId du = graph_.degree(u);
        return dv != du ? dv > du : v > u;
      };
      // The orientation lives in index storage that later phases overwrite,
      // so the build allocates nothing for it: u's out-list (its
      // higher-ranked neighbors, in CSR order) fills the first d⁺(u) slots
      // of u's row in core_order_, out-arc i counts its triangles in
      // order_[offset_begin(u) + i].cn, and by_degree holds d⁺(u) until
      // CoreOrder fills it.
      VertexId* out = core_order_.data();
      std::vector<VertexId>& out_degree = by_degree;
      schedule_vertex_tasks(
          pool, n, degree_of, all,
          [&](VertexId u) {
            const EdgeId first = graph_.offset_begin(u);
            VertexId count = 0;
            for (const VertexId v : graph_.neighbors(u)) {
              if (outranks(v, u)) out[first + count++] = v;
            }
            out_degree[u] = count;
          },
          sched);
      if (governor.should_stop()) return;

      // Enumeration. Triangle (u, v, w), ranked u < v < w, is met at u with
      // w marked and reached through v: it adds 1 to out-arcs (u, w) and
      // (v, w) as found, and (u, v) takes v's tally in one add. Tasks are
      // weighted by the marks they set and test.
      const auto enum_work = [&](VertexId u) {
        const EdgeId first = graph_.offset_begin(u);
        std::uint64_t work = out_degree[u];
        for (EdgeId i = first; i < first + out_degree[u]; ++i) {
          work += out_degree[out[i]];
        }
        return work;
      };
      // protocol: relaxed-counter — an out-arc's triangle count, added to
      // by every task meeting one of its triangles and read only after the
      // phase barrier. Sums do not depend on order, so the counts are
      // deterministic.
      const auto add = [&](EdgeId slot, std::uint32_t value) {
        std::atomic_ref<std::uint32_t>(order_[slot].cn)
            .fetch_add(value, std::memory_order_relaxed);
      };
      schedule_vertex_tasks(
          pool, n, enum_work, all,
          [&](VertexId u) {
            // The worker's marks: 1 + the out-list index of each of u's
            // out-neighbors, 0 elsewhere. They borrow the worker's
            // core-order cn buffer, which CoreOrder overwrites anyway.
            std::uint32_t* mark = worker_buffers().cn.data();
            const EdgeId first = graph_.offset_begin(u);
            const EdgeId last = first + out_degree[u];
            for (EdgeId i = first; i < last; ++i) {
              mark[out[i]] = static_cast<std::uint32_t>(i - first + 1);
            }
            for (EdgeId i = first; i < last; ++i) {
              const VertexId v = out[i];
              const EdgeId vfirst = graph_.offset_begin(v);
              std::uint32_t tally = 0;
              for (EdgeId j = vfirst; j < vfirst + out_degree[v]; ++j) {
                const std::uint32_t at = mark[out[j]];
                if (at == 0) continue;
                ++tally;
                add(first + at - 1, 1);
                add(j, 1);
              }
              if (tally != 0) add(i, tally);
            }
            for (EdgeId i = first; i < last; ++i) mark[out[i]] = 0;
            // One count per edge, at its out-arc: the computed arc plus
            // the mirrored, reused one.
            obs::AlgoCounters& c = counters.slot(worker_slot());
            c.arcs_touched += 2 * (last - first);
            c.sims_computed += last - first;
            c.sims_reused += last - first;
          },
          sched);
      if (governor.should_stop()) return;

      // Each out-arc's count moves from its list slot to its own CSR slot,
      // never to the left of it. Walking u's row backwards meets the
      // out-arcs last to first; clearing each list slot as it is read
      // leaves 0 on every other arc.
      schedule_vertex_tasks(
          pool, n, degree_of, all,
          [&](VertexId u) {
            const EdgeId first = graph_.offset_begin(u);
            EdgeId i = first + out_degree[u];
            for (EdgeId e = graph_.offset_end(u); e-- > first;) {
              if (!outranks(dst[e], u)) continue;
              const std::uint32_t cn = order_[--i].cn;
              order_[i].cn = 0;
              order_[e].cn = cn;
            }
          },
          sched);
      if (governor.should_stop()) return;
      // Mirror: visiting u in ascending id order reaches each v's
      // smaller-id neighbors in v's row order, so a cursor per v (in
      // by_degree, free again) finds every reverse arc with no search.
      // Exactly one of the two slots holds the count.
      std::vector<VertexId>& seen = by_degree;
      std::fill(seen.begin(), seen.end(), 0);
      for (VertexId u = 0; u < n; ++u) {
        for (EdgeId e = graph_.offset_begin(u); e < graph_.offset_end(u);
             ++e) {
          const VertexId v = dst[e];
          if (v < u) continue;
          const EdgeId rev = graph_.offset_begin(v) + seen[v]++;
          const std::uint32_t cn = order_[e].cn + order_[rev].cn + 2;
          order_[e].cn = cn;
          order_[rev].cn = cn;
        }
      }
    });

    // Neighbor order: each vertex sorts its own window in place by σ
    // descending — cn_a²·P_b > cn_b²·P_a, where the common factor d_u+1
    // cancels — with ties broken by neighbor id so the order (and thus
    // every query) is deterministic.
    phase("NeighborOrder", [&] {
      schedule_vertex_tasks(
          pool, n, degree_of, all,
          [&](VertexId u) {
            const EdgeId begin = graph_.offset_begin(u);
            const EdgeId end = graph_.offset_end(u);
            for (EdgeId e = begin; e < end; ++e) {
              order_[e].dst = graph_.dst()[e];
            }
            std::sort(order_.begin() + static_cast<std::ptrdiff_t>(begin),
                      order_.begin() + static_cast<std::ptrdiff_t>(end),
                      [&](const Entry& a, const Entry& b) {
                        const U128 lhs = U128(a.cn) * a.cn *
                                         degree_plus_one(graph_, b.dst);
                        const U128 rhs = U128(b.cn) * b.cn *
                                         degree_plus_one(graph_, a.dst);
                        if (lhs != rhs) return lhs > rhs;
                        return a.dst < b.dst;
                      });
          },
          sched);
    });

    // Core orders: the vertices of degree ≥ µ are a prefix of the vertices
    // by degree descending, so one counting sort lays out every µ's member
    // list; then one executor task per µ sorts its list (µ = 1 has the
    // longest list and goes first).
    phase("CoreOrder", [&] {
      // at_least[d]: the number of vertices of degree ≥ d.
      std::vector<EdgeId> at_least(std::size_t{max_degree} + 2, 0);
      for (VertexId u = 0; u < n; ++u) ++at_least[graph_.degree(u)];
      for (VertexId d = max_degree; d-- > 0;) at_least[d] += at_least[d + 1];
      for (VertexId mu = 1; mu <= max_degree; ++mu) {
        core_offset_[mu] = core_offset_[mu - 1] + at_least[mu];
      }
      // Degree d's vertices start after the at_least[d + 1] of higher degree.
      std::vector<EdgeId> next(at_least.begin() + 1, at_least.end());
      for (VertexId u = 0; u < n; ++u) by_degree[next[graph_.degree(u)]++] = u;

      std::vector<TaskRange> tasks;
      tasks.reserve(max_degree);
      for (VertexId mu = 1; mu <= max_degree; ++mu) {
        tasks.push_back({mu, mu + 1});
      }
      pool.run(tasks.data(), tasks.size(), [&](VertexId beg, VertexId end) {
        CoreOrderBuffers& buf = worker_buffers();
        for (VertexId mu = beg; mu < end; ++mu) {
          sort_core_order(mu, by_degree.data(), at_least[mu], buf);
        }
      });
    });
  }

  if (alloc_ok) {
    by_degree = std::vector<VertexId>();
    core_buffers.clear();
    governor.uncharge(sort_bytes);
  }

  complete_ = alloc_ok && !governor.should_stop();
  // Phase barriers ordered every worker's slot writes before this merge.
  build_stats_.counters = counters.merged();
  build_stats_.intersections = build_stats_.counters.sims_computed;
  build_stats_.construction_seconds = timer.elapsed_s();
  build_stats_.abort = governor.abort_info();
}

void GsIndex::sort_core_order(std::uint32_t mu, const VertexId* members,
                              std::size_t count, CoreOrderBuffers& buf) {
  VertexId* out = core_order_.data() + core_offset_[mu - 1];
  // σ² = cn²/P of each member's µ-th entry, gathered per vertex so the
  // sort compares without reaching back into the neighbor order.
  for (std::size_t i = 0; i < count; ++i) {
    const VertexId u = members[i];
    const Entry e = order_[graph_.offset_begin(u) + mu - 1];
    buf.cn[u] = e.cn;
    buf.p[u] = degree_plus_one(graph_, u) * degree_plus_one(graph_, e.dst);
  }
  const auto greater = [&](VertexId a, VertexId b) {
    const U128 lhs = U128(std::uint64_t{buf.cn[a]} * buf.cn[a]) * buf.p[b];
    const U128 rhs = U128(std::uint64_t{buf.cn[b]} * buf.cn[b]) * buf.p[a];
    if (lhs != rhs) return lhs > rhs;
    return a < b;
  };
  // One counting pass on a bucket key monotone in σ², so buckets in
  // descending key order are already in σ order and only members sharing
  // a bucket need the exact comparison sort. The key is σ² rounded to
  // double, mapped from the list's [lo, hi] onto about one bucket per
  // member: below degree 2^26, cn² ≤ P and P are exact doubles, so the
  // correctly rounded quotient is monotone in σ. Above it every member
  // shares bucket 0.
  const auto sigma2 = [&](VertexId u) {
    return static_cast<double>(std::uint64_t{buf.cn[u]} * buf.cn[u]) /
           static_cast<double>(buf.p[u]);
  };
  double lo = 1;
  double hi = 0;
  for (std::size_t i = 0; i < count; ++i) {
    lo = std::min(lo, sigma2(members[i]));
    hi = std::max(hi, sigma2(members[i]));
  }
  const bool rounded_is_monotone =
      core_offset_.size() <= (std::size_t{1} << 26);
  const std::size_t top = rounded_is_monotone && hi > lo ? count : 0;
  const double scale = top == 0 ? 0.0 : static_cast<double>(top) / (hi - lo);
  const auto key_of = [&](VertexId u) {
    return top == 0 ? 0
                    : std::min(top, static_cast<std::size_t>(
                                        (sigma2(u) - lo) * scale));
  };
  buf.buckets.assign(top + 1, 0);
  for (std::size_t i = 0; i < count; ++i) ++buf.buckets[key_of(members[i])];
  // Bucket starts, highest key first.
  std::uint32_t start = 0;
  for (std::size_t key = top + 1; key-- > 0;) {
    const std::uint32_t size = buf.buckets[key];
    buf.buckets[key] = start;
    start += size;
  }
  for (std::size_t i = 0; i < count; ++i) {
    out[buf.buckets[key_of(members[i])]++] = members[i];
  }
  // buckets[key] is now each bucket's end; the highest key's starts at 0.
  std::uint32_t begin = 0;
  for (std::size_t key = top + 1; key-- > 0;) {
    const std::uint32_t end = buf.buckets[key];
    if (end - begin > 1) std::sort(out + begin, out + end, greater);
    begin = end;
  }
}

bool GsIndex::entry_similar(const EpsRational& eps, VertexId u,
                            EdgeId slot) const {
  const Entry entry = order_[slot];
  return sim_from_key(eps, entry.cn,
                      degree_plus_one(graph_, u) *
                          degree_plus_one(graph_, entry.dst));
}

EdgeId GsIndex::prefix_boundary(const EpsRational& eps, VertexId u,
                                std::uint32_t mu,
                                obs::AlgoCounters& qc) const {
  EdgeId lo = graph_.offset_begin(u) + mu;
  EdgeId hi = graph_.offset_end(u);
  while (lo < hi) {
    const EdgeId mid = lo + (hi - lo) / 2;
    qc.arcs_touched += 1;
    qc.sims_reused += 1;
    if (entry_similar(eps, u, mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

ScanRun GsIndex::query(const ScanParams& params) const {
  QueryScratch scratch;
  return query(params, scratch, nullptr);
}

ScanRun GsIndex::query(const ScanParams& params, QueryScratch& scratch,
                       RunGovernor* governor) const {
  if (!complete_) {
    throw std::logic_error("GsIndex::query on aborted construction (" +
                           build_stats_.abort.describe() + ")");
  }
  if (params.mu == 0) {
    throw std::invalid_argument("GsIndex::query: mu must be at least 1");
  }
  WallTimer timer;
  const VertexId n = graph_.num_vertices();
  ScanRun run;
  obs::AlgoCounters& qc = run.stats.counters;
  std::vector<Role>& roles = run.result.roles;
  std::vector<VertexId>& cluster = run.result.core_cluster_id;
  // Partial-result semantics (scan_common.hpp): roles start Unknown and the
  // core-test phase finalizes them, so a governed trip before it leaves
  // every vertex classified as Unknown rather than silently NonCore.
  roles.assign(n, Role::Unknown);
  cluster.assign(n, kInvalidVertex);
  const std::uint64_t result_bytes =
      std::uint64_t{n} * (sizeof(Role) + sizeof(VertexId));
  if (governor != nullptr &&
      !governor->try_charge(result_bytes, "gs-index query arrays")) {
    record_governance(*governor, run.stats);
    return run;
  }

  // Sequential-phase plumbing mirroring the governed algorithms: enter,
  // re-check (cancel_at_phase trips on entry), run, count the barrier only
  // when the body was not tripped mid-loop.
  const auto phase = [&](const char* name, auto&& body) {
    if (governor == nullptr) {
      body();
      return;
    }
    if (governor->should_stop()) return;
    governor->enter_phase(name);
    if (governor->should_stop()) return;
    body();
    if (!governor->should_stop()) governor->finish_phase();
  };

  // Core test: the µ-th core order lists the vertices of degree ≥ µ by the
  // σ of their µ-th most similar neighbor, descending, so the cores are its
  // prefix with σ ≥ ε. Each binary-search probe is one stored-similarity
  // decision: touched+reused.
  phase("QCoreTest", [&] {
    PPSCAN_FAULT_POINT("index.qcoretest");
    std::fill(roles.begin(), roles.end(), Role::NonCore);
    if (params.mu >= core_offset_.size()) return;  // µ > max degree
    const VertexId* first = core_order_.data() + core_offset_[params.mu - 1];
    const VertexId* last = core_order_.data() + core_offset_[params.mu];
    while (first < last) {
      const VertexId* mid = first + (last - first) / 2;
      qc.arcs_touched += 1;
      qc.sims_reused += 1;
      if (entry_similar(params.eps, *mid,
                        graph_.offset_begin(*mid) + params.mu - 1)) {
        first = mid + 1;
      } else {
        last = mid;
      }
    }
    for (const VertexId* p = core_order_.data() + core_offset_[params.mu - 1];
         p < first; ++p) {
      roles[*p] = Role::Core;
    }
  });

  // Core clustering in one walk: from each unlabelled core r, in id order,
  // a stack walk over ε-similar prefixes (the order is σ-descending, so the
  // boundary is the partition point) labels every reachable core with r —
  // the smallest core id of its cluster, the convention every algorithm in
  // the library shares — and records every non-core it passes as a member
  // of r. A label is final once assigned, so a trip mid-walk leaves a
  // valid partial run. Each consumed prefix entry is a stored similarity
  // the query relies on — counted as touched+reused, which is what makes
  // the funnel invariant meaningful for index queries.
  phase("QCoreCluster", [&] {
    PPSCAN_FAULT_POINT("index.qcorecluster");
    std::vector<VertexId>& stack = scratch.stack;
    std::uint64_t pops = 0;
    for (VertexId r = 0; r < n; ++r) {
      if (roles[r] != Role::Core || cluster[r] != kInvalidVertex) continue;
      cluster[r] = r;
      stack.assign(1, r);
      while (!stack.empty()) {
        if (governor != nullptr && ++pops % kGovernPollStride == 0 &&
            governor->poll_deadline()) {
          return;
        }
        const VertexId u = stack.back();
        stack.pop_back();
        const EdgeId begin = graph_.offset_begin(u);
        const EdgeId end = prefix_boundary(params.eps, u, params.mu, qc);
        qc.arcs_touched += end - begin;
        qc.sims_reused += end - begin;
        for (EdgeId slot = begin; slot < end; ++slot) {
          const VertexId v = order_[slot].dst;
          if (roles[v] != Role::Core) {
            run.result.noncore_memberships.emplace_back(v, r);
          } else if (cluster[v] == kInvalidVertex) {
            cluster[v] = r;
            stack.push_back(v);
          }
        }
      }
    }
  });

  run.result.normalize();
  run.stats.total_seconds = timer.elapsed_s();
  if (governor != nullptr) record_governance(*governor, run.stats);
  return run;
}

std::uint32_t GsIndex::overlap(VertexId u, VertexId v) const {
  for (EdgeId slot = graph_.offset_begin(u); slot < graph_.offset_end(u);
       ++slot) {
    if (order_[slot].dst == v) return order_[slot].cn;
  }
  return 0;
}

std::uint64_t GsIndex::memory_bytes() const {
  return order_.size() * sizeof(Entry) +
         core_order_.size() * sizeof(VertexId) +
         core_offset_.size() * sizeof(EdgeId);
}

}  // namespace ppscan
