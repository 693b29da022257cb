// Exact structural-similarity arithmetic (paper Definitions 2.2 and 3.9).
//
// The predicate  σ_ε(u,v) = |Γ(u)∩Γ(v)| ≥ ε·√((d_u+1)(d_v+1))  is decided
// with integer arithmetic on a rational ε = a/b:
//
//     cn ≥ (a/b)·√P   ⇔   cn²·b² ≥ a²·P      (cn ≥ 0, P = (d_u+1)(d_v+1))
//
// so every algorithm in the library agrees bit-exactly and no result depends
// on floating-point rounding — the same approach as the pSCAN reference
// implementation. 128-bit intermediates rule out overflow for any 32-bit
// degrees and ε denominators up to 10^6.
#pragma once

#include <cstdint>
#include <string>

#include "util/types.hpp"

namespace ppscan {

/// ε as an exact rational in (0, 1].
struct EpsRational {
  std::uint64_t num = 1;
  std::uint64_t den = 1;

  /// Parses decimal text such as "0.2", "0.35", ".5" or "1". Throws
  /// std::invalid_argument outside (0, 1] or on malformed input.
  static EpsRational parse(const std::string& text);

  /// Rational with denominator 10^6 closest to `value` from below.
  static EpsRational from_double(double value);

  [[nodiscard]] double to_double() const {
    return static_cast<double>(num) / static_cast<double>(den);
  }
};

/// True iff cn common closed-neighbors satisfy the similarity predicate for
/// degrees d_u, d_v: cn²·b² ≥ a²·(d_u+1)(d_v+1) in 128-bit arithmetic.
/// Inline: ppSCAN's sketch test calls it once or twice per arc.
[[nodiscard]] inline bool similarity_holds(const EpsRational& eps,
                                           std::uint64_t cn, VertexId d_u,
                                           VertexId d_v) {
  using U128 = unsigned __int128;
  const U128 p = U128(std::uint64_t{d_u} + 1) * (std::uint64_t{d_v} + 1);
  return U128(cn) * cn * eps.den * eps.den >= U128(eps.num) * eps.num * p;
}

/// ⌈ε·√((d_u+1)(d_v+1))⌉ as used by the early-termination bounds — the
/// smallest integer cn for which similarity_holds() is true.
std::uint32_t min_common_neighbors(const EpsRational& eps, VertexId d_u,
                                   VertexId d_v);

/// Outcome of the similarity-predicate pruning rules (paper §3.2.2): decide
/// Sim/NSim from degrees alone when possible, else Unknown.
enum class PruneOutcome : std::uint8_t { Sim, NSim, Unknown };

/// The pruning rules for every arc (u, v) out of one vertex u, as three
/// degree thresholds computed once per vertex. With need =
/// min_common_neighbors(ε, d_u, d_v), the rules are Sim iff need ≤ 2 and NSim
/// iff need > min(d_u, d_v) + 1 (an edge's closed neighbourhoods share 2 to
/// min + 1 vertices). For ε = a/b and x = d_v + 1 they are exactly
///
///     Sim  iff  x ≤ ⌊4b² / (a²(d_u+1))⌋
///     NSim iff  x ≤ ⌊(a²(d_u+1) − 1) / b²⌋   (only when d_v < d_u)
///           or  x > ⌊(d_u+1)·b² / a²⌋       (only when d_v > d_u)
///
/// so an arc costs two or three integer compares: no root, no division.
/// Sim takes precedence; both hold only when an endpoint has degree 0.
class PruneThresholds {
 public:
  PruneThresholds(const EpsRational& eps, VertexId d_u);

  [[nodiscard]] bool sim(VertexId d_v) const {
    return std::uint64_t{d_v} + 1 <= sim_max_;
  }
  [[nodiscard]] bool nsim(VertexId d_v) const {
    const std::uint64_t x = std::uint64_t{d_v} + 1;
    return (x <= nsim_below_) | (x > nsim_above_);
  }
  [[nodiscard]] PruneOutcome classify(VertexId d_v) const {
    if (sim(d_v)) return PruneOutcome::Sim;
    return nsim(d_v) ? PruneOutcome::NSim : PruneOutcome::Unknown;
  }

 private:
  std::uint64_t sim_max_;
  std::uint64_t nsim_below_;
  std::uint64_t nsim_above_;
};

}  // namespace ppscan
