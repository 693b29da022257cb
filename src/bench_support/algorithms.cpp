#include "bench_support/algorithms.hpp"

#include <stdexcept>

#include "core/ppscan.hpp"
#include "scan/anyscan_lite.hpp"
#include "scan/pscan.hpp"
#include "scan/scan_original.hpp"
#include "scan/scanxp.hpp"

namespace ppscan {

std::vector<std::string> algorithm_names() {
  return {"SCAN", "pSCAN", "anySCAN", "SCAN-XP", "ppSCAN", "ppSCAN-NO"};
}

ScanRun run_algorithm(const std::string& name, const CsrGraph& graph,
                      const ScanParams& params, const AlgorithmConfig& config) {
  if (name == "SCAN") {
    ScanOriginalOptions options;
    options.limits = config.limits;
    options.cancel = config.cancel;
    options.trace = config.trace;
    return scan_original(graph, params, options);
  }
  if (name == "pSCAN") {
    PscanOptions options;
    options.limits = config.limits;
    options.cancel = config.cancel;
    options.trace = config.trace;
    return pscan(graph, params, options);
  }
  if (name == "anySCAN") {
    AnyScanLiteOptions options;
    options.num_threads = config.num_threads;
    options.limits = config.limits;
    options.cancel = config.cancel;
    options.trace = config.trace;
    return anyscan_lite(graph, params, options);
  }
  if (name == "SCAN-XP") {
    ScanXpOptions options;
    options.num_threads = config.num_threads;
    options.limits = config.limits;
    options.cancel = config.cancel;
    options.trace = config.trace;
    return scanxp(graph, params, options);
  }
  if (name == "ppSCAN" || name == "ppSCAN-NO") {
    PpScanOptions options;
    options.num_threads = config.num_threads;
    options.kernel =
        name == "ppSCAN" ? config.kernel : IntersectKind::MergeEarlyStop;
    options.limits = config.limits;
    options.cancel = config.cancel;
    options.trace = config.trace;
    return ppscan(graph, params, options);
  }
  throw std::invalid_argument("unknown algorithm: " + name);
}

}  // namespace ppscan
