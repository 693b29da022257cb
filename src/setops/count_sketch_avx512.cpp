// AVX-512BW count-sketch min-sum: 64 buckets per step. The final reduction
// is written out by hand (512 → 256 → 128 → 64 bits): GCC 12 flags
// _mm512_reduce_add_epi64 and the unmasked 256-bit extract (which the cast
// also uses) as reading an uninitialized vector, so both halves are taken
// zero-masked.
#include <immintrin.h>

#include "setops/count_sketch.hpp"

namespace ppscan {

std::uint32_t sketch_min_sum_avx512(const std::uint8_t* a,
                                    const std::uint8_t* b) {
  const __m512i zero = _mm512_setzero_si512();
  __m512i acc = zero;
  for (std::size_t i = 0; i < kSketchBuckets; i += 64) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    // sad against zero sums each 8-byte group of minima into a u64 lane.
    acc = _mm512_add_epi64(acc,
                           _mm512_sad_epu8(_mm512_min_epu8(va, vb), zero));
  }
  const __m256i quad =
      _mm256_add_epi64(_mm512_maskz_extracti64x4_epi64(0xFF, acc, 0),
                       _mm512_maskz_extracti64x4_epi64(0xFF, acc, 1));
  const __m128i half = _mm_add_epi64(_mm256_castsi256_si128(quad),
                                     _mm256_extracti128_si256(quad, 1));
  return static_cast<std::uint32_t>(_mm_cvtsi128_si64(half) +
                                    _mm_extract_epi64(half, 1));
}

}  // namespace ppscan
