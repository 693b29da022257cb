// Uniform algorithm runner used by the comparison benches (Figures 2/3) and
// the examples: maps the paper's algorithm names onto the library entry
// points with a common (threads, kernel) configuration.
#pragma once

#include <string>
#include <vector>

#include "scan/scan_common.hpp"
#include "setops/intersect.hpp"

namespace ppscan {

struct AlgorithmConfig {
  int num_threads = 1;
  /// Kernel used by the configurable algorithms (pSCAN, ppSCAN).
  IntersectKind kernel = IntersectKind::Auto;
  /// Run governance, forwarded to every algorithm (all of them honor it;
  /// see RunGovernor). Default limits govern nothing.
  RunLimits limits;
  /// Optional external cancel token; not owned, may be null.
  CancelToken* cancel = nullptr;
  /// Optional trace collector (obs/trace.hpp), forwarded to every
  /// algorithm. Not owned; must be sized for at least num_threads workers
  /// and outlive the run.
  obs::TraceCollector* trace = nullptr;
};

/// Algorithm names accepted by run_algorithm, in the order the paper's
/// comparison figures list them: SCAN, pSCAN, anySCAN, SCAN-XP, ppSCAN,
/// plus ppSCAN-NO (the no-vectorization configuration of Figure 5).
std::vector<std::string> algorithm_names();

/// Runs `name` on `graph`. Sequential algorithms ignore config.num_threads.
/// Throws std::invalid_argument for unknown names.
ScanRun run_algorithm(const std::string& name, const CsrGraph& graph,
                      const ScanParams& params,
                      const AlgorithmConfig& config = {});

}  // namespace ppscan
