#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "util/rng.hpp"

namespace ppscan {

CsrGraph erdos_renyi(VertexId n, EdgeId m, std::uint64_t seed) {
  if (n < 2) throw std::invalid_argument("erdos_renyi: need n >= 2");
  const EdgeId max_edges = static_cast<EdgeId>(n) * (n - 1) / 2;
  if (m > max_edges) throw std::invalid_argument("erdos_renyi: m too large");

  Rng rng(seed);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(m * 2);
  EdgeList edges;
  edges.reserve(m);
  while (edges.size() < m) {
    auto u = static_cast<VertexId>(rng.next_below(n));
    auto v = static_cast<VertexId>(rng.next_below(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    const std::uint64_t key = (static_cast<std::uint64_t>(u) << 32) | v;
    if (seen.insert(key).second) edges.emplace_back(u, v);
  }
  return GraphBuilder::from_edges(std::move(edges), n);
}

CsrGraph barabasi_albert(VertexId n, VertexId edges_per_vertex,
                         std::uint64_t seed) {
  const VertexId m = edges_per_vertex;
  if (m == 0 || n <= m) {
    throw std::invalid_argument("barabasi_albert: need n > edges_per_vertex > 0");
  }

  Rng rng(seed);
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) * m);

  // `targets` holds every edge endpoint so far; sampling an index uniformly
  // samples a vertex proportionally to its degree.
  std::vector<VertexId> targets;
  targets.reserve(static_cast<std::size_t>(n) * m * 2);

  // Seed graph: a (m+1)-clique so every early vertex already has degree m.
  for (VertexId u = 0; u <= m; ++u) {
    for (VertexId v = u + 1; v <= m; ++v) {
      edges.emplace_back(u, v);
      targets.push_back(u);
      targets.push_back(v);
    }
  }

  std::vector<VertexId> picks;
  picks.reserve(m);
  for (VertexId t = m + 1; t < n; ++t) {
    picks.clear();
    while (picks.size() < m) {
      const VertexId cand = targets[rng.next_below(targets.size())];
      if (std::find(picks.begin(), picks.end(), cand) == picks.end()) {
        picks.push_back(cand);
      }
    }
    for (VertexId v : picks) {
      edges.emplace_back(t, v);
      targets.push_back(t);
      targets.push_back(v);
    }
  }
  return GraphBuilder::from_edges(std::move(edges), n);
}

CsrGraph rmat(const RmatParams& params, std::uint64_t seed) {
  if (params.scale < 1 || params.scale > 31) {
    throw std::invalid_argument("rmat: scale out of range");
  }
  const double d = 1.0 - params.a - params.b - params.c;
  if (params.a < 0 || params.b < 0 || params.c < 0 || d < 0) {
    throw std::invalid_argument("rmat: invalid quadrant probabilities");
  }

  const VertexId n = VertexId{1} << params.scale;
  const auto attempts =
      static_cast<EdgeId>(params.edge_factor * static_cast<double>(n));
  Rng rng(seed);

  // Optional id scramble so vertex id order carries no structure; high-degree
  // vertices otherwise concentrate at low ids, which would make range-based
  // task scheduling look artificially easy.
  std::vector<VertexId> perm(n);
  for (VertexId i = 0; i < n; ++i) perm[i] = i;
  if (params.scramble_ids) {
    for (VertexId i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.next_below(i)]);
    }
  }

  EdgeList edges;
  edges.reserve(attempts);
  for (EdgeId e = 0; e < attempts; ++e) {
    VertexId u = 0, v = 0;
    for (int bit = 0; bit < params.scale; ++bit) {
      const double r = rng.next_double();
      // Slightly perturbed quadrant probabilities per the original R-MAT
      // recipe; keeps the generated graph from being exactly self-similar.
      const double noise = 0.9 + 0.2 * rng.next_double();
      const double a = params.a * noise;
      const double b = params.b * noise;
      const double c = params.c * noise;
      const double total = a + b + c + d * noise;
      const double x = r * total;
      u <<= 1;
      v <<= 1;
      if (x < a) {
        // upper-left: no bits set
      } else if (x < a + b) {
        v |= 1;
      } else if (x < a + b + c) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    if (u != v) edges.emplace_back(perm[u], perm[v]);
  }
  return GraphBuilder::from_edges(std::move(edges), n);
}

CsrGraph lfr_like(const LfrParams& params, std::uint64_t seed,
                  std::vector<VertexId>* ground_truth) {
  if (params.n == 0 || params.min_community < 2 ||
      params.max_community < params.min_community ||
      params.mixing < 0.0 || params.mixing > 1.0) {
    throw std::invalid_argument("lfr_like: invalid parameters");
  }

  Rng rng(seed);

  // Community sizes: bounded power-law via inverse-transform sampling of
  // p(s) ~ s^-gamma on [min_community, max_community].
  const double gamma = params.community_exponent;
  const double lo = std::pow(static_cast<double>(params.min_community),
                             1.0 - gamma);
  const double hi = std::pow(static_cast<double>(params.max_community),
                             1.0 - gamma);
  std::vector<VertexId> community_of(params.n);
  std::vector<std::pair<VertexId, VertexId>> communities;  // [begin, end)
  VertexId next = 0;
  while (next < params.n) {
    const double u01 = rng.next_double();
    auto size = static_cast<VertexId>(
        std::pow(lo + u01 * (hi - lo), 1.0 / (1.0 - gamma)));
    size = std::max(params.min_community, std::min(params.max_community, size));
    size = std::min(size, params.n - next);
    const VertexId begin = next;
    const VertexId end = next + size;
    const auto cid = checked_vertex_cast(communities.size());
    for (VertexId v = begin; v < end; ++v) community_of[v] = cid;
    communities.emplace_back(begin, end);
    next = end;
  }

  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(
      params.n * params.avg_degree / 2.0 * 1.05));

  // Intra-community ER: per-vertex expected internal degree is
  // avg_degree * (1 - mixing), so p = that / (size - 1), clamped to 1.
  const double internal_degree = params.avg_degree * (1.0 - params.mixing);
  for (const auto& [begin, end] : communities) {
    const VertexId size = end - begin;
    if (size < 2) continue;
    const double p =
        std::min(1.0, internal_degree / static_cast<double>(size - 1));
    if (p >= 1.0) {
      for (VertexId u = begin; u < end; ++u) {
        for (VertexId v = u + 1; v < end; ++v) edges.emplace_back(u, v);
      }
      continue;
    }
    // Geometric skipping: visit each pair with probability p in O(p * size^2)
    // expected time.
    const double log1mp = std::log1p(-p);
    std::uint64_t pair_index = 0;
    const std::uint64_t total_pairs =
        static_cast<std::uint64_t>(size) * (size - 1) / 2;
    while (true) {
      // Geometric gap: failures before the next success at probability p.
      const double r = rng.next_double();
      const auto skip = static_cast<std::uint64_t>(
          std::floor(std::log1p(-r) / log1mp));
      pair_index += skip;
      if (pair_index >= total_pairs) break;
      // Decode the flat pair index into (row, col) of the upper triangle.
      VertexId row = 0;
      std::uint64_t remaining = pair_index;
      VertexId row_len = size - 1;
      while (remaining >= row_len) {
        remaining -= row_len;
        --row_len;
        ++row;
      }
      const VertexId col = row + 1 + static_cast<VertexId>(remaining);
      edges.emplace_back(begin + row, begin + col);
      ++pair_index;
    }
  }

  // Inter-community edges: uniform cross pairs until the mixing budget is met.
  const auto inter_budget = static_cast<EdgeId>(
      params.n * params.avg_degree * params.mixing / 2.0);
  EdgeId made = 0;
  std::uint64_t attempts = 0;
  const std::uint64_t attempt_cap = inter_budget * 20 + 1000;
  while (made < inter_budget && attempts < attempt_cap) {
    ++attempts;
    const auto u = static_cast<VertexId>(rng.next_below(params.n));
    const auto v = static_cast<VertexId>(rng.next_below(params.n));
    if (u == v || community_of[u] == community_of[v]) continue;
    edges.emplace_back(u, v);
    ++made;
  }

  if (ground_truth != nullptr) *ground_truth = std::move(community_of);
  return GraphBuilder::from_edges(std::move(edges), params.n);
}

}  // namespace ppscan
