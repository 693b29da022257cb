// AVX-512 kernels: the paper's Algorithm 6 (pivot-based vectorized CompSim)
// and a 16×16 block-merge variant that keeps its early termination.
//
// Pivot (similar_pivot_avx512): per 16-lane step, the pivot (the current head
// of the other list) is broadcast and compared against 16 sorted elements;
// the popcount of the comparison mask is exactly the number of elements below
// the pivot (they form a prefix of the vector because the list is sorted),
// so the offset and the upper bound `du`/`dv` advance by bit_cnt in one
// instruction — fewer bound updates and no data-dependent branches inside
// the scan. On interleaved lists of similar length it moves about one
// element per branchy step.
//
// Block (similar_block_avx512, intersect_count_avx512): every step compares
// one 16-element block of each list all-pairs (16 broadcasts, 16 cmpeq
// masks OR-ed together) and retires the block whose last element is
// smaller, both on a tie — the block-merge of Inoue et al. (the paper's
// reference [12]). A retired block has met every block it can match, so its
// unmatched elements are proven mismatches: the bounds move once per block
// and the kernel still terminates early, at block boundaries.
#include <immintrin.h>

#include "setops/intersect.hpp"

namespace ppscan {

namespace {
constexpr std::size_t kLanes = 16;

inline std::uint32_t popcnt(__mmask16 mask) {
  return static_cast<std::uint32_t>(
      _mm_popcnt_u32(static_cast<unsigned>(mask)));
}

inline __m512i load_block(const VertexId* ptr) {
  return _mm512_loadu_si512(reinterpret_cast<const void*>(ptr));
}

/// Lanes of the 16-element block at `a` equal to one of the 16 elements at
/// `b`. Both lists hold distinct ids, so popcnt(result) is the number of
/// common elements of the two blocks.
inline __mmask16 block_matches(const VertexId* a, const VertexId* b) {
  const __m512i block = load_block(a);
  __mmask16 hits = 0;
#pragma GCC unroll 16
  for (std::size_t k = 0; k < kLanes; ++k) {
    hits |= _mm512_cmpeq_epi32_mask(block,
                                    _mm512_set1_epi32(static_cast<int>(b[k])));
  }
  return hits;
}

/// Lanes of the 16-element block at `block` strictly below `bound`.
inline __mmask16 lanes_below(const VertexId* block, VertexId bound) {
  return _mm512_cmplt_epi32_mask(load_block(block),
                                 _mm512_set1_epi32(static_cast<int>(bound)));
}

}  // namespace

bool similar_pivot_avx512(Neighbors nu, Neighbors nv, std::uint32_t min_cn) {
  std::uint32_t cn = 2;
  std::uint64_t du = nu.size() + 2;
  std::uint64_t dv = nv.size() + 2;
  if (cn >= min_cn) return true;
  if (du < min_cn || dv < min_cn) return false;

  std::size_t off_u = 0, off_v = 0;
  while (off_u + kLanes <= nu.size() && off_v + kLanes <= nv.size()) {
    // Step 1: find the first u-element >= pivot nv[off_v].
    while (off_u + kLanes <= nu.size()) {
      const __m512i pivot = _mm512_set1_epi32(static_cast<int>(nv[off_v]));
      const __m512i u_eles = load_block(nu.data() + off_u);
      const std::uint32_t bit_cnt =
          popcnt(_mm512_cmpgt_epi32_mask(pivot, u_eles));
      off_u += bit_cnt;
      du -= bit_cnt;
      if (du < min_cn) return false;
      if (bit_cnt < kLanes) break;
    }
    if (off_u + kLanes > nu.size()) break;

    // Step 2: find the first v-element >= pivot nu[off_u].
    while (off_v + kLanes <= nv.size()) {
      const __m512i pivot = _mm512_set1_epi32(static_cast<int>(nu[off_u]));
      const __m512i v_eles = load_block(nv.data() + off_v);
      const std::uint32_t bit_cnt =
          popcnt(_mm512_cmpgt_epi32_mask(pivot, v_eles));
      off_v += bit_cnt;
      dv -= bit_cnt;
      if (dv < min_cn) return false;
      if (bit_cnt < kLanes) break;
    }
    if (off_v + kLanes > nv.size()) break;

    // Step 3: both heads are >= each other's pivot; on equality it's a match.
    if (nu[off_u] == nv[off_v]) {
      if (++cn >= min_cn) return true;
      ++off_u;
      ++off_v;
    }
  }

  // Fewer than one vector width remains on a side: finish scalar.
  return detail::pivot_scalar_tail(nu, nv, off_u, off_v, cn, du, dv, min_cn);
}

bool similar_block_avx512(Neighbors nu, Neighbors nv, std::uint32_t min_cn) {
  std::uint32_t cn = 2;
  std::uint64_t du = nu.size() + 2;
  std::uint64_t dv = nv.size() + 2;
  if (cn >= min_cn) return true;
  if (du < min_cn || dv < min_cn) return false;

  std::size_t i = 0, j = 0;
  __mmask16 ma = 0;      // matched lanes of u's head block, not yet in cn
  std::uint32_t mb = 0;  // matches inside v's head block
  while (i + kLanes <= nu.size() && j + kLanes <= nv.size()) {
    const __mmask16 hits = block_matches(nu.data() + i, nv.data() + j);
    ma |= hits;
    mb += popcnt(hits);
    const VertexId last_u = nu[i + kLanes - 1];
    const VertexId last_v = nv[j + kLanes - 1];
    if (last_u <= last_v) {
      // u's block is settled: each match counts once, here.
      const std::uint32_t matched = popcnt(ma);
      cn += matched;
      du -= kLanes - matched;
      ma = 0;
      i += kLanes;
      if (cn >= min_cn) return true;
      if (du < min_cn) return false;
    }
    if (last_v <= last_u) {
      dv -= kLanes - mb;
      mb = 0;
      j += kLanes;
      if (dv < min_cn) return false;
    }
  }

  // Exit settlement. At most one head block still has matches the bounds
  // have not seen (every step retires one block), and that block is a full
  // one because it did not move. Its matches all lie below the other side's
  // head, since they met retired blocks. Skip the block's elements below
  // that head and charge their matches and mismatches here; the scalar tail
  // would otherwise count the matched ones again as mismatches.
  if (ma != 0) {
    const std::uint32_t skipped =
        j < nv.size() ? popcnt(lanes_below(nu.data() + i, nv[j]))
                      : static_cast<std::uint32_t>(kLanes);
    const std::uint32_t matched = popcnt(ma);
    cn += matched;
    du -= skipped - matched;
    i += skipped;
    if (cn >= min_cn) return true;
    if (du < min_cn) return false;
  } else if (mb != 0) {
    const std::uint32_t skipped =
        i < nu.size() ? popcnt(lanes_below(nv.data() + j, nu[i]))
                      : static_cast<std::uint32_t>(kLanes);
    dv -= skipped - mb;
    j += skipped;
    if (dv < min_cn) return false;
  }
  return detail::pivot_scalar_tail(nu, nv, i, j, cn, du, dv, min_cn);
}

std::uint64_t intersect_count_avx512(Neighbors a, Neighbors b) {
  std::uint64_t count = 0;
  std::size_t i = 0, j = 0;
  while (i + kLanes <= a.size() && j + kLanes <= b.size()) {
    count += popcnt(block_matches(a.data() + i, b.data() + j));
    const VertexId last_a = a[i + kLanes - 1];
    const VertexId last_b = b[j + kLanes - 1];
    i += last_a <= last_b ? kLanes : 0;
    j += last_b <= last_a ? kLanes : 0;
  }
  // A pending head block's matches lie below the other side's head, so the
  // merge from (i, j) passes them as mismatches and counts no pair twice.
  return detail::merge_count_tail(a, b, i, j, count);
}

}  // namespace ppscan
