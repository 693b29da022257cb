#include "obs/latency_histogram.hpp"

#include <algorithm>

namespace ppscan::obs {

void LatencyHistogram::record(double latency_ms) {
  const double us = latency_ms * 1000.0;
  std::size_t bucket = 0;
  double bound = 1.0;
  while (bucket + 1 < kBuckets && us > bound) {
    bound *= 2.0;
    ++bucket;
  }
  counts[bucket] += 1;
  total += 1;
  max_ms = std::max(max_ms, latency_ms);
  sum_ms += latency_ms;
}

double LatencyHistogram::quantile_ms(double q) const {
  if (total == 0) return 0;
  const double target = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts[i];
    if (static_cast<double>(seen) >= target) {
      const double bound_ms = bucket_le_us(i) / 1000.0;
      // The unbounded-in-spirit tail reports the true maximum instead of
      // its nominal bound.
      return i + 1 == kBuckets ? std::max(bound_ms, max_ms)
                               : std::min(bound_ms, max_ms);
    }
  }
  return max_ms;
}

double LatencyHistogram::bucket_le_us(std::size_t i) {
  return static_cast<double>(std::uint64_t{1} << i);
}

LatencyHistogram LatencyHistogram::delta_since(
    const LatencyHistogram& baseline) const {
  LatencyHistogram delta;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    // Defensive clamp: a histogram is monotone per bucket, so the
    // subtraction cannot underflow unless the caller crossed streams.
    delta.counts[i] =
        counts[i] >= baseline.counts[i] ? counts[i] - baseline.counts[i] : 0;
    delta.total += delta.counts[i];
  }
  if (delta.total > 0) {
    delta.max_ms = max_ms;
    delta.sum_ms = std::max(0.0, sum_ms - baseline.sum_ms);
  }
  return delta;
}

}  // namespace ppscan::obs
