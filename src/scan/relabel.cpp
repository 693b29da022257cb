#include "scan/relabel.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "graph/graph_builder.hpp"

namespace ppscan {

Relabeling degree_descending_order(const CsrGraph& graph) {
  const VertexId n = graph.num_vertices();
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    const VertexId da = graph.degree(a);
    const VertexId db = graph.degree(b);
    if (da != db) return da > db;
    return a < b;
  });
  Relabeling r;
  r.to_old = std::move(order);
  r.to_new.resize(n);
  for (VertexId new_id = 0; new_id < n; ++new_id) {
    r.to_new[r.to_old[new_id]] = new_id;
  }
  return r;
}

Relabeling make_relabeling(std::vector<VertexId> to_new) {
  const auto n = checked_vertex_cast(to_new.size());
  Relabeling r;
  r.to_old.assign(n, kInvalidVertex);
  for (VertexId old_id = 0; old_id < n; ++old_id) {
    const VertexId new_id = to_new[old_id];
    if (new_id >= n || r.to_old[new_id] != kInvalidVertex) {
      throw std::invalid_argument("make_relabeling: not a bijection");
    }
    r.to_old[new_id] = old_id;
  }
  r.to_new = std::move(to_new);
  return r;
}

CsrGraph apply_relabeling(const CsrGraph& graph,
                          const Relabeling& relabeling) {
  if (relabeling.to_new.size() != graph.num_vertices()) {
    throw std::invalid_argument("apply_relabeling: size mismatch");
  }
  EdgeList edges;
  edges.reserve(graph.num_edges());
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    for (const VertexId v : graph.neighbors(u)) {
      if (u < v) {
        edges.emplace_back(relabeling.to_new[u], relabeling.to_new[v]);
      }
    }
  }
  return GraphBuilder::from_edges(std::move(edges), graph.num_vertices());
}

ScanResult map_result_to_original(const ScanResult& relabeled,
                                  const Relabeling& relabeling) {
  const auto n = checked_vertex_cast(relabeled.roles.size());
  ScanResult out;
  out.roles.resize(n);
  out.core_cluster_id.assign(n, kInvalidVertex);
  for (VertexId new_id = 0; new_id < n; ++new_id) {
    const VertexId old_id = relabeling.to_old[new_id];
    out.roles[old_id] = relabeled.roles[new_id];
    const VertexId cid = relabeled.core_cluster_id[new_id];
    // Cluster ids are themselves vertex ids (minimum core id), so they are
    // remapped too; canonical comparisons ignore the numbering either way.
    out.core_cluster_id[old_id] =
        cid == kInvalidVertex ? kInvalidVertex : relabeling.to_old[cid];
  }
  out.noncore_memberships.reserve(relabeled.noncore_memberships.size());
  for (const auto& [v, cid] : relabeled.noncore_memberships) {
    out.noncore_memberships.emplace_back(relabeling.to_old[v],
                                         relabeling.to_old[cid]);
  }
  out.normalize();
  return out;
}

}  // namespace ppscan
