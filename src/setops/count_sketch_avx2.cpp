// AVX2 count-sketch min-sum: 32 buckets per step.
#include <immintrin.h>

#include "setops/count_sketch.hpp"

namespace ppscan {

std::uint32_t sketch_min_sum_avx2(const std::uint8_t* a,
                                  const std::uint8_t* b) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  for (std::size_t i = 0; i < kSketchBuckets; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    // sad against zero sums each 8-byte group of minima into a u64 lane.
    acc = _mm256_add_epi64(acc,
                           _mm256_sad_epu8(_mm256_min_epu8(va, vb), zero));
  }
  const __m128i half = _mm_add_epi64(_mm256_castsi256_si128(acc),
                                     _mm256_extracti128_si256(acc, 1));
  return static_cast<std::uint32_t>(_mm_cvtsi128_si64(half) +
                                    _mm_extract_epi64(half, 1));
}

}  // namespace ppscan
