#include "scan/scan_common.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace ppscan {

void record_governance(const RunGovernor& governor, RunStats& stats) {
  const RunAborted info = governor.abort_info();
  stats.abort_reason = info.reason;
  stats.abort_phase = info.phase;
  stats.abort_bytes = info.bytes;
  stats.abort_detail = info.detail;
  stats.phases_completed =
      static_cast<std::uint32_t>(governor.phases_completed());
  stats.peak_governed_bytes = governor.peak_bytes();
}

void ScanResult::normalize() {
  std::sort(noncore_memberships.begin(), noncore_memberships.end());
  noncore_memberships.erase(
      std::unique(noncore_memberships.begin(), noncore_memberships.end()),
      noncore_memberships.end());
}

std::vector<std::vector<VertexId>> ScanResult::canonical_clusters() const {
  std::map<VertexId, std::vector<VertexId>> by_id;
  for (VertexId u = 0; u < core_cluster_id.size(); ++u) {
    if (roles[u] == Role::Core) by_id[core_cluster_id[u]].push_back(u);
  }
  for (const auto& [v, cid] : noncore_memberships) {
    by_id[cid].push_back(v);
  }
  std::vector<std::vector<VertexId>> clusters;
  clusters.reserve(by_id.size());
  for (auto& [cid, members] : by_id) {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    clusters.push_back(std::move(members));
  }
  std::sort(clusters.begin(), clusters.end());
  return clusters;
}

std::size_t ScanResult::num_clusters() const {
  return canonical_clusters().size();
}

std::uint64_t ScanResult::num_cores() const {
  std::uint64_t cores = 0;
  for (const Role r : roles) {
    if (r == Role::Core) ++cores;
  }
  return cores;
}

bool results_equivalent(const ScanResult& a, const ScanResult& b) {
  return a.roles == b.roles &&
         a.canonical_clusters() == b.canonical_clusters();
}

std::string describe_result_difference(const ScanResult& a,
                                       const ScanResult& b) {
  std::ostringstream os;
  if (a.roles.size() != b.roles.size()) {
    os << "role array sizes differ: " << a.roles.size() << " vs "
       << b.roles.size();
    return os.str();
  }
  for (std::size_t u = 0; u < a.roles.size(); ++u) {
    if (a.roles[u] != b.roles[u]) {
      os << "role of vertex " << u << " differs: "
         << static_cast<int>(a.roles[u]) << " vs "
         << static_cast<int>(b.roles[u]);
      return os.str();
    }
  }
  const auto ca = a.canonical_clusters();
  const auto cb = b.canonical_clusters();
  if (ca.size() != cb.size()) {
    os << "cluster counts differ: " << ca.size() << " vs " << cb.size();
    return os.str();
  }
  for (std::size_t i = 0; i < ca.size(); ++i) {
    if (ca[i] != cb[i]) {
      os << "cluster #" << i << " differs (sizes " << ca[i].size() << " vs "
         << cb[i].size() << ")";
      return os.str();
    }
  }
  return {};
}

std::vector<VertexClass> classify_hubs_outliers(const CsrGraph& graph,
                                                const ScanResult& result) {
  const VertexId n = graph.num_vertices();
  // Collect, per vertex, the sorted unique list of clusters it belongs to.
  // Cores have exactly one; non-cores may have several (or none).
  std::vector<std::vector<VertexId>> memberships(n);
  for (VertexId u = 0; u < n; ++u) {
    if (result.roles[u] == Role::Core) {
      memberships[u].push_back(result.core_cluster_id[u]);
    }
  }
  for (const auto& [v, cid] : result.noncore_memberships) {
    memberships[v].push_back(cid);
  }
  for (auto& m : memberships) {
    std::sort(m.begin(), m.end());
    m.erase(std::unique(m.begin(), m.end()), m.end());
  }

  std::vector<VertexClass> classes(n, VertexClass::Outlier);
  for (VertexId u = 0; u < n; ++u) {
    if (!memberships[u].empty()) {
      classes[u] = VertexClass::Member;
      continue;
    }
    // Hub test: neighbors span >= 2 distinct clusters. A neighbor in k
    // clusters contributes all k, per Definition 2.10's "v and w are in
    // different clusters".
    VertexId first_cluster = kInvalidVertex;
    bool is_hub = false;
    for (const VertexId v : graph.neighbors(u)) {
      for (const VertexId cid : memberships[v]) {
        if (first_cluster == kInvalidVertex) {
          first_cluster = cid;
        } else if (cid != first_cluster) {
          is_hub = true;
          break;
        }
      }
      if (is_hub) break;
    }
    if (is_hub) classes[u] = VertexClass::Hub;
  }
  return classes;
}

}  // namespace ppscan
