// Adapter from an algorithm run to the machine-readable metrics row
// (obs/metrics_json.hpp). Lives here rather than in obs/ so the obs layer
// keeps no dependency on graph or scan types.
#pragma once

#include <string>

#include "graph/csr_graph.hpp"
#include "obs/metrics_json.hpp"
#include "scan/scan_common.hpp"

namespace ppscan {

/// Flattens one finished run into a schema-v2 metrics row. `eps` should be
/// the ε exactly as the user spelled it (it is provenance, not arithmetic);
/// `kernel` the *resolved* intersection kernel name; `threads` whatever the
/// run was configured with (sequential algorithms pass 1).
obs::MetricsReport make_metrics_report(const std::string& tool,
                                       const std::string& algorithm,
                                       const std::string& dataset,
                                       const std::string& eps,
                                       std::uint64_t mu, std::uint64_t threads,
                                       const std::string& kernel,
                                       const CsrGraph& graph,
                                       const ScanRun& run);

}  // namespace ppscan
