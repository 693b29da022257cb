// Shared plumbing for the figure/table harnesses: standard flags, list
// parsing, and the environment banner each binary prints so a saved output
// records how it was produced.
#pragma once

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support/datasets.hpp"
#include "bench_support/metrics.hpp"
#include "obs/metrics_json.hpp"
#include "setops/intersect.hpp"
#include "util/env.hpp"
#include "util/flags.hpp"
#include "util/report.hpp"

namespace ppscan::bench {

/// Machine-readable sidecar for a figure harness: rows collected via add()
/// are written as the schema-v2 file envelope (obs/metrics_json.hpp) when
/// `--metrics-json FILE` was given, e.g. the CI BENCH_*.json artifacts.
/// Inactive (add() is a no-op) when the flag is absent.
class MetricsSink {
 public:
  MetricsSink(const Flags& flags, std::string figure)
      : path_(flags.get_string("metrics-json", "")),
        figure_(std::move(figure)) {}

  [[nodiscard]] bool active() const { return !path_.empty(); }

  void add(obs::MetricsReport row) {
    if (active()) rows_.push_back(std::move(row));
  }

  /// Writes the envelope; returns false (with a message on stderr) when the
  /// file cannot be written. No-op when inactive.
  bool flush() const {
    if (!active()) return true;
    std::ofstream stream(path_);
    if (!stream) {
      std::cerr << "metrics-json: cannot open " << path_ << " for writing\n";
      return false;
    }
    stream << obs::metrics_file_json(figure_, rows_).dump(2) << "\n";
    std::cout << "# metrics -> " << path_ << " (" << rows_.size()
              << " rows, schema v" << obs::kMetricsSchemaVersion << ")\n";
    return true;
  }

 private:
  std::string path_;
  std::string figure_;
  std::vector<obs::MetricsReport> rows_;
};

inline std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// The ε sweep the paper's figures use.
inline std::vector<std::string> default_eps_list() {
  return {"0.2", "0.4", "0.6", "0.8"};
}

inline std::vector<std::string> default_dataset_list() {
  std::vector<std::string> names;
  for (const auto& d : real_world_datasets()) names.push_back(d.name);
  return names;
}

/// Prints the reproducibility banner: binary name, scale, threads, CPU
/// vector support.
inline void print_banner(const Flags& flags, const std::string& purpose) {
  std::cout << "# " << flags.program() << " — " << purpose << "\n"
            << "# scale=" << bench_scale()
            << " default_threads=" << default_threads()
            << " avx2=" << (kernel_supported(IntersectKind::PivotAvx2) ? 1 : 0)
            << " avx512="
            << (kernel_supported(IntersectKind::PivotAvx512) ? 1 : 0) << "\n";
}

/// Common flag: --datasets=a,b,c (default: the four Table-1 stand-ins).
inline std::vector<std::string> dataset_flag(const Flags& flags) {
  if (flags.has("datasets")) {
    return split_list(flags.get_string("datasets", ""));
  }
  return default_dataset_list();
}

/// Common flag: --eps=0.2,0.4 (default: the paper's sweep).
inline std::vector<std::string> eps_flag(const Flags& flags) {
  if (flags.has("eps")) return split_list(flags.get_string("eps", ""));
  return default_eps_list();
}

}  // namespace ppscan::bench
