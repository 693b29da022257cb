// Count sketch: an exact upper bound on the common-neighbor count of an
// edge, used to prove "not similar" without intersecting.
//
// A vertex's sketch is kSketchBuckets 8-bit counters; each neighbor w adds 1
// to bucket sketch_bucket(w). Two neighbor lists share at most
// min(c_u[b], c_v[b]) members in bucket b, so for an edge (u, v)
//
//     |Γ(u)∩Γ(v)| = |N(u)∩N(v)| + 2  ≤  Σ_b min(c_u[b], c_v[b]) + 2.
//
// The bound can only overestimate, so "bound < min_cn" (the bound fails the
// similarity predicate) decides NSim exactly and never Sim. Counters are
// exact: a vertex with a bucket that would reach 255 gets no sketch
// (sketch_counts_exact returns false), so no counter ever saturates and the
// min-sum fits 16 bits.
//
// The min-sum is `min_epu8` + `sad_epu8` per vector in the AVX-512BW and
// AVX2 versions; sketch_min_sum_fn() picks the best the CPU supports, like
// the intersection kernels' Auto dispatch.
#pragma once

#include <cstddef>
#include <cstdint>

#include "setops/similarity.hpp"

namespace ppscan {

inline constexpr std::size_t kSketchBuckets = 256;

/// Vertices below this degree get no sketch: their lists are short enough
/// that the kernel costs about as much as the bound.
inline constexpr VertexId kSketchMinDegree = 16;

/// Bucket of neighbor w: the top byte of a multiplicative (Fibonacci) hash.
[[nodiscard]] inline std::size_t sketch_bucket(VertexId w) {
  return static_cast<std::uint32_t>(w * 0x9E3779B1U) >> 24;
}

/// Checks a sketch counted (with wrapping byte adds) from a list of
/// `degree` neighbors: false when some bucket reached 255, so the sketch is
/// unusable. Below degree 255 no bucket can; above it, a bucket that went
/// past 255 wrapped and left the byte sum short of `degree`.
bool sketch_counts_exact(const std::uint8_t* sketch, std::uint64_t degree);

/// Σ_b min(a[b], b[b]) over kSketchBuckets counters (any byte values, 255
/// included, so the three versions can be compared on random input).
std::uint32_t sketch_min_sum_scalar(const std::uint8_t* a,
                                    const std::uint8_t* b);
std::uint32_t sketch_min_sum_avx2(const std::uint8_t* a,
                                  const std::uint8_t* b);
std::uint32_t sketch_min_sum_avx512(const std::uint8_t* a,
                                    const std::uint8_t* b);

using SketchMinSumFn = std::uint32_t (*)(const std::uint8_t*,
                                         const std::uint8_t*);

/// True when the executing CPU runs sketch_min_sum_avx512 (AVX-512BW) or
/// sketch_min_sum_avx2.
bool sketch_avx512_supported();
bool sketch_avx2_supported();

/// The best min-sum the CPU supports: AVX-512BW, else AVX2, else scalar.
SketchMinSumFn sketch_min_sum_fn();

/// Per-vertex gate: true when a sketch of a vertex of degree `d` could
/// reject an arc to a vertex of about the same degree. With ε = a/b, that
/// arc needs min_cn ≈ ε(d+1), and two lists of length d collide in about
/// d²/(K+d) buckets, so a sketch pays off when
///     (a(d+1) − 2b)(K + d) > b·d²   and   d ≥ kSketchMinDegree.
bool sketch_worth_building(const EpsRational& eps, VertexId d);

/// The degrees that pass sketch_worth_building for one ε, as one interval
/// [lo, hi] (empty when lo > hi): the gate's left side minus its right is
/// a concave quadratic in d (linear at ε = 1), so it holds on one run of
/// degrees. Computed once per call; a vertex then costs two compares.
struct SketchDegreeRange {
  VertexId lo = 1;
  VertexId hi = 0;

  [[nodiscard]] bool empty() const { return lo > hi; }
  [[nodiscard]] bool contains(VertexId d) const { return lo <= d && d <= hi; }
};

SketchDegreeRange sketch_degree_range(const EpsRational& eps);

/// Per-pair gate: check the bound only when min_cn − 2 exceeds the
/// expected collision noise of the two sketches, lo·(1 − e^(−hi/K)) for
/// lo/hi the smaller/larger degree, in the integer stand-in
///     min_cn > 2 + ⌊lo·hi / (K + hi)⌋.
/// min_cn is the least cn for which similarity_holds is true, so the gate
/// is decided from ε without computing min_cn.
[[nodiscard]] inline bool sketch_can_reject(const EpsRational& eps,
                                            VertexId du, VertexId dv) {
  const std::uint64_t lo = du < dv ? du : dv;
  const std::uint64_t hi = du < dv ? dv : du;
  return !similarity_holds(eps, 2 + lo * hi / (kSketchBuckets + hi), du, dv);
}

/// The bound test: the pair is dissimilar when the closed-count bound
/// min_sum + 2 falls below min_cn, i.e. when it fails the predicate.
[[nodiscard]] inline bool sketch_bound_rejects(const EpsRational& eps,
                                               std::uint32_t min_sum,
                                               VertexId du, VertexId dv) {
  return !similarity_holds(eps, std::uint64_t{min_sum} + 2, du, dv);
}

}  // namespace ppscan
