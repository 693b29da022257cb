// Sorted-set intersection kernels for structural-similarity computation.
//
// Every `similar_*` kernel answers CompSim(u,v) for *adjacent* u, v: given
// the two sorted open neighbor lists and the required closed-neighborhood
// overlap `min_cn` (= ⌈ε·√((d_u+1)(d_v+1))⌉), it decides whether
// |Γ(u)∩Γ(v)| = |N(u)∩N(v)| + 2 ≥ min_cn, maintaining pSCAN's
// early-termination bounds (paper Definition 3.9):
//     cn ≤ |Γ(u)∩Γ(v)| ≤ min(du, dv),
//     du/dv start at d+2 and shrink with every observed mismatch,
//     cn starts at 2 (u and v are adjacent) and grows with every match.
//
// Kernel menu:
//   MergeEarlyStop  — scalar merge with the bounds; pSCAN's kernel and the
//                     "ppSCAN-NO" configuration of the paper's Figure 5.
//   PivotScalar     — the paper's pivot-based loop without vector units;
//                     also the tail fallback of both vector kernels.
//   PivotAvx2       — Algorithm 6 ported to 8-lane AVX2.
//   PivotAvx512     — Algorithm 6 verbatim (16-lane,
//                     `_mm512_cmpgt_epi32_mask`).
//   BlockAvx512     — 16×16 all-pairs block-merge that retires one block per
//                     step and checks the bounds at block boundaries; the
//                     fastest kernel on lists of similar length.
//   GallopEarlyStop — galloping (binary-search) intersection from the
//                     smaller list, with the same early-termination bounds;
//                     wins on heavy degree skew (hub vs member) where the
//                     linear kernels walk the long list element by element.
//   Auto            — best kernel the executing CPU supports (BlockAvx512,
//                     else PivotAvx2, else PivotScalar), switching to
//                     GallopEarlyStop per pair when max(du,dv)/min(du,dv)
//                     exceeds a threshold (PPSCAN_GALLOP_SKEW, default 64).
//                     The Auto exact count dispatches the same way.
//
// Vector kernels require vertex ids < 2^31 (compares are signed); CsrGraph
// guarantees that for any graph that fits in memory.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "util/types.hpp"

namespace ppscan {

enum class IntersectKind : std::uint8_t {
  MergeEarlyStop,
  PivotScalar,
  PivotAvx2,
  PivotAvx512,
  BlockAvx512,
  GallopEarlyStop,
  Auto,
};

[[nodiscard]] std::string to_string(IntersectKind kind);

/// Parses "merge" / "pivot" / "avx2" / "avx512" / "block512" / "gallop" /
/// "auto".
IntersectKind parse_intersect_kind(const std::string& name);

/// True when the executing CPU can run `kind`.
bool kernel_supported(IntersectKind kind);

/// Resolves Auto to the best supported kernel; other kinds pass through
/// (throws std::runtime_error if unsupported on this CPU).
IntersectKind resolve_kernel(IntersectKind kind);

using Neighbors = std::span<const VertexId>;

// --- individual kernels -----------------------------------------------------

bool similar_merge_early_stop(Neighbors nu, Neighbors nv, std::uint32_t min_cn);
bool similar_pivot_scalar(Neighbors nu, Neighbors nv, std::uint32_t min_cn);
bool similar_pivot_avx2(Neighbors nu, Neighbors nv, std::uint32_t min_cn);
bool similar_pivot_avx512(Neighbors nu, Neighbors nv, std::uint32_t min_cn);
bool similar_block_avx512(Neighbors nu, Neighbors nv, std::uint32_t min_cn);
bool similar_gallop(Neighbors nu, Neighbors nv, std::uint32_t min_cn);

/// Function-pointer type of the kernels above.
using SimilarFn = bool (*)(Neighbors, Neighbors, std::uint32_t);

/// Returns the kernel function for `kind` (resolving Auto).
SimilarFn similar_fn(IntersectKind kind);

// --- exact counting (no early termination) ----------------------------------

/// |A ∩ B| by linear merge. Reference for tests and triangle counting.
std::uint64_t intersect_count_merge(Neighbors a, Neighbors b);

/// |A ∩ B| by galloping (binary-search) from the smaller side; the
/// related-work alternative the paper discusses and rejects for pSCAN.
std::uint64_t intersect_count_galloping(Neighbors a, Neighbors b);

/// |A ∩ B| with no early termination — the exhaustive SIMD intersection
/// SCAN-XP runs on every edge. The AVX2 count is the pivot-skipping loop;
/// the AVX-512 count is BlockAvx512's 16×16 block-merge step.
std::uint64_t intersect_count_avx2(Neighbors a, Neighbors b);
std::uint64_t intersect_count_avx512(Neighbors a, Neighbors b);

/// |A ∩ B| by branchless block-merge (after Inoue et al., VLDB 2015 —
/// reference [12] of the paper): 4×4 all-pairs vector comparisons per
/// step, advancing whichever block ends first. The paper rejects this
/// family for pSCAN because it cannot early-terminate; it is provided as
/// the related-work point of the kernel study. Requires AVX2.
std::uint64_t intersect_count_blocked_simd(Neighbors a, Neighbors b);

/// |A ∩ B| by the Auto dispatch of similar_fn: galloping when the longer
/// list is more than PPSCAN_GALLOP_SKEW times the shorter (0 disables
/// galloping), else the best vector count the CPU supports.
std::uint64_t intersect_count_auto(Neighbors a, Neighbors b);

using CountFn = std::uint64_t (*)(Neighbors, Neighbors);

/// Exact-count kernel for `kind`: scalar kinds map to the merge count,
/// vector kinds to their SIMD counts, Auto to intersect_count_auto.
CountFn count_fn(IntersectKind kind);

// --- shared pivot tail (exposed for the vector kernels and tests) -----------

namespace detail {

/// Continues a pivot intersection from (off_u, off_v) with live bounds; used
/// as the scalar tail once fewer than one vector width of elements remains.
bool pivot_scalar_tail(Neighbors nu, Neighbors nv, std::size_t off_u,
                       std::size_t off_v, std::uint32_t cn, std::uint64_t du,
                       std::uint64_t dv, std::uint32_t min_cn);

/// Scalar merge-count tail for the vector exact-count kernels.
std::uint64_t merge_count_tail(Neighbors a, Neighbors b, std::size_t i,
                               std::size_t j, std::uint64_t count);

}  // namespace detail

}  // namespace ppscan
