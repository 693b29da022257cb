// Figure 5: set-intersection optimization experiment (µ = 5).
//
// Core-checking speedup of vectorized ppSCAN over ppSCAN-NO (the merge
// early-stop kernel), for the paper's AVX2 and AVX512 pivot paths and for
// the 16×16 AVX512 block kernel. Expected shape: speedup > 1, larger for
// AVX512 than AVX2, decreasing as ε grows (more work is pruned before any
// intersection runs).
#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "common.hpp"
#include "core/ppscan.hpp"

int main(int argc, char** argv) {
  using namespace ppscan;
  const Flags flags(argc, argv);
  bench::print_banner(flags, "Figure 5: vectorization speedup");

  const auto mu = static_cast<std::uint32_t>(flags.get_int("mu", 5));
  const int threads = static_cast<int>(
      flags.get_int("threads", default_threads()));

  const auto check_seconds = [&](const CsrGraph& graph,
                                 const ScanParams& params,
                                 IntersectKind kernel) {
    PpScanOptions options;
    options.num_threads = threads;
    options.kernel = kernel;
    // Best of three runs: the stage is short and mildly noisy.
    double best = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
      const auto run = ppscan::ppscan(graph, params, options);
      best = std::min(best, run.stats.stage_check_seconds);
    }
    return best;
  };

  // Seconds for `kernel`, or 0 when this CPU cannot run it.
  const auto seconds_if_supported = [&](const CsrGraph& graph,
                                        const ScanParams& params,
                                        IntersectKind kernel) {
    return kernel_supported(kernel) ? check_seconds(graph, params, kernel)
                                    : 0.0;
  };
  const auto speedup = [](double base, double t) {
    return Table::fmt(t > 0 ? base / t : 0, 2);
  };

  Table table({"dataset", "eps", "merge(s)", "avx2(s)", "avx512(s)",
               "block512(s)", "speedup-avx2", "speedup-avx512",
               "speedup-block512"});
  for (const auto& name : bench::dataset_flag(flags)) {
    const auto graph = load_dataset(name);
    for (const auto& eps : bench::eps_flag(flags)) {
      const auto params = ScanParams::make(eps, mu);
      const double merge =
          check_seconds(graph, params, IntersectKind::MergeEarlyStop);
      const double avx2 =
          seconds_if_supported(graph, params, IntersectKind::PivotAvx2);
      const double avx512 =
          seconds_if_supported(graph, params, IntersectKind::PivotAvx512);
      const double block512 =
          seconds_if_supported(graph, params, IntersectKind::BlockAvx512);
      table.add_row({name, eps, Table::fmt(merge), Table::fmt(avx2),
                     Table::fmt(avx512), Table::fmt(block512),
                     speedup(merge, avx2), speedup(merge, avx512),
                     speedup(merge, block512)});
    }
  }
  table.print(std::cout,
              "Figure 5: core-checking speedup over ppSCAN-NO, mu=" +
                  std::to_string(mu));
  return 0;
}
