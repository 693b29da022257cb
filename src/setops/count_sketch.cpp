#include "setops/count_sketch.hpp"

#include <algorithm>
#include <limits>

namespace ppscan {

bool sketch_counts_exact(const std::uint8_t* sketch, std::uint64_t degree) {
  if (degree < 255) return true;
  std::uint64_t sum = 0;
  std::uint8_t top = 0;
  for (std::size_t i = 0; i < kSketchBuckets; ++i) {
    sum += sketch[i];
    top = std::max(top, sketch[i]);
  }
  return sum == degree && top < 255;
}

std::uint32_t sketch_min_sum_scalar(const std::uint8_t* a,
                                    const std::uint8_t* b) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < kSketchBuckets; ++i) {
    sum += std::min(a[i], b[i]);
  }
  return sum;
}

bool sketch_avx512_supported() {
  return __builtin_cpu_supports("avx512bw") != 0;
}

bool sketch_avx2_supported() { return __builtin_cpu_supports("avx2") != 0; }

SketchMinSumFn sketch_min_sum_fn() {
  if (sketch_avx512_supported()) return &sketch_min_sum_avx512;
  if (sketch_avx2_supported()) return &sketch_min_sum_avx2;
  return &sketch_min_sum_scalar;
}

namespace {

using I128 = __int128;

/// (a(d+1) − 2b)(K + d) − b·d²: the per-vertex gate holds where this is > 0.
I128 gate_margin(const EpsRational& eps, VertexId d) {
  const I128 a = eps.num;
  const I128 b = eps.den;
  const I128 dd = d;
  return (a * (dd + 1) - 2 * b) * (I128{kSketchBuckets} + dd) - b * dd * dd;
}

/// Smallest d in [lo, hi] with pred(d), for pred false-then-true on the
/// range; hi when there is none.
template <typename Pred>
VertexId first_where(VertexId lo, VertexId hi, Pred pred) {
  while (lo < hi) {
    const VertexId mid = lo + (hi - lo) / 2;
    if (pred(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace

bool sketch_worth_building(const EpsRational& eps, VertexId d) {
  return d >= kSketchMinDegree && gate_margin(eps, d) > 0;
}

SketchDegreeRange sketch_degree_range(const EpsRational& eps) {
  // The margin is concave: it rises up to its peak and falls after it.
  constexpr VertexId kTop = std::numeric_limits<VertexId>::max() - 1;
  const VertexId peak = first_where(kSketchMinDegree, kTop, [&](VertexId d) {
    return gate_margin(eps, d + 1) <= gate_margin(eps, d);
  });
  if (!sketch_worth_building(eps, peak)) return {};
  const VertexId lo = first_where(kSketchMinDegree, peak, [&](VertexId d) {
    return sketch_worth_building(eps, d);
  });
  const VertexId past = first_where(peak, kTop, [&](VertexId d) {
    return !sketch_worth_building(eps, d);
  });
  return {lo, sketch_worth_building(eps, past) ? past : past - 1};
}

}  // namespace ppscan
