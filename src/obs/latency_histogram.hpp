// Fixed geometric latency histogram: bucket i counts latencies ≤ 2^i µs
// (last bucket is unbounded). Cheap enough to update under a stats mutex,
// coarse enough to answer p50/p99 without storing samples.
//
// Lives in obs so the Prometheus exposition (serve/serving_metrics.hpp)
// and the CLI's interval status line can read it without depending on the
// serving layer: the exposition renders cumulative buckets plus an exact
// _sum, and the status line takes delta_since() of two snapshots.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace ppscan::obs {

struct LatencyHistogram {
  static constexpr std::size_t kBuckets = 28;  // 1 µs .. ~67 s, then +inf
  std::array<std::uint64_t, kBuckets> counts{};
  std::uint64_t total = 0;
  double max_ms = 0;
  /// Exact sum of every recorded latency (ms) — the Prometheus `_sum`
  /// series, and the honest way to report a mean from bucketed data.
  double sum_ms = 0;

  void record(double latency_ms);
  /// Upper bound (ms) of the bucket containing quantile q ∈ [0, 1]; exact
  /// max for the unbounded tail. 0 when empty.
  [[nodiscard]] double quantile_ms(double q) const;
  /// Upper bound (µs) of bucket i, for serialization.
  [[nodiscard]] static double bucket_le_us(std::size_t i);

  /// Bucket-wise `this - baseline`, where `baseline` is an earlier
  /// observation of the same monotone histogram (every bucket of this is
  /// ≥ the baseline's). The delta's max_ms is this histogram's max — an
  /// upper bound, since per-interval maxima are not tracked — and its
  /// sum_ms is the exact sum difference.
  [[nodiscard]] LatencyHistogram delta_since(
      const LatencyHistogram& baseline) const;
};

}  // namespace ppscan::obs
