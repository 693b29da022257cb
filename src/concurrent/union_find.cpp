#include "concurrent/union_find.hpp"

#include <utility>

namespace ppscan {

void UnionFind::reset(VertexId n) {
  parent_.resize(n);
  rank_.assign(n, 0);
  for (VertexId i = 0; i < n; ++i) parent_[i] = i;
}

VertexId UnionFind::find(VertexId x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

VertexId UnionFind::find_counted(VertexId x, std::uint64_t* steps) {
  std::uint64_t hops = 0;
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];
    x = parent_[x];
    ++hops;
  }
  *steps += hops;
  return x;
}

bool UnionFind::unite(VertexId x, VertexId y) {
  VertexId rx = find(x);
  VertexId ry = find(y);
  if (rx == ry) return false;
  if (rank_[rx] < rank_[ry]) std::swap(rx, ry);
  parent_[ry] = rx;
  if (rank_[rx] == rank_[ry]) ++rank_[rx];
  return true;
}

void ParallelUnionFind::reset(VertexId n) {
  parent_.assign_for_overwrite(n);
  rank_.assign(n, 0);
  for (VertexId i = 0; i < n; ++i) parent_.store(i, i);
}

VertexId ParallelUnionFind::find(VertexId x) {
  for (;;) {
    const VertexId p = parent_.load(x);
    if (p == x) return x;
    const VertexId gp = parent_.load(p);
    if (p != gp) {
      // Path halving: hop x over p. A failed CAS just means someone else
      // already shortened this path — retry from where we are.
      VertexId expected = p;
      parent_.compare_exchange(x, expected, gp);
    }
    x = gp;
  }
}

VertexId ParallelUnionFind::find_counted(VertexId x, std::uint64_t* steps) {
  std::uint64_t hops = 0;
  for (;;) {
    const VertexId p = parent_.load(x);
    if (p == x) {
      *steps += hops;
      return x;
    }
    const VertexId gp = parent_.load(p);
    if (p != gp) {
      VertexId expected = p;
      parent_.compare_exchange(x, expected, gp);
    }
    x = gp;
    ++hops;
  }
}

bool ParallelUnionFind::unite(VertexId x, VertexId y) {
  for (;;) {
    VertexId rx = find(x);
    VertexId ry = find(y);
    if (rx == ry) return false;
    // Link the lower-rank root under the higher-rank one; break rank ties by
    // id so the link direction is deterministic under races.
    const std::uint8_t kx = rank_.load(rx);
    const std::uint8_t ky = rank_.load(ry);
    if (kx < ky || (kx == ky && rx > ry)) std::swap(rx, ry);
    // The CAS only succeeds while ry is still a root, which makes the link
    // atomic; losing the race restarts with fresh roots.
    VertexId expected = ry;
    if (parent_.compare_exchange(ry, expected, rx)) {
      if (kx == ky) {
        // Benign rank race: rank is a heuristic; an occasional lost update
        // only costs tree depth, never correctness.
        rank_.store(rx, static_cast<std::uint8_t>(kx + 1));
      }
      return true;
    }
  }
}

bool ParallelUnionFind::same_set(VertexId x, VertexId y) {
  for (;;) {
    const VertexId rx = find(x);
    const VertexId ry = find(y);
    if (rx == ry) return true;
    // rx is stale if someone re-parented it meanwhile; only then retry.
    if (parent_.load(rx) == rx) return false;
  }
}

}  // namespace ppscan
