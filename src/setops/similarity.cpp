#include "setops/similarity.hpp"

#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace ppscan {
namespace {

using U128 = unsigned __int128;

}  // namespace

EpsRational EpsRational::parse(const std::string& text) {
  std::uint64_t num = 0;
  std::uint64_t den = 1;
  bool seen_digit = false;
  bool seen_dot = false;
  for (const char c : text) {
    if (c == '.') {
      if (seen_dot) throw std::invalid_argument("EpsRational: two dots");
      seen_dot = true;
      continue;
    }
    if (c < '0' || c > '9') {
      throw std::invalid_argument("EpsRational: bad char in '" + text + "'");
    }
    seen_digit = true;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    // num * 10 + digit silently wraps for ~20-digit inputs, which could
    // sneak a wrapped value past the num > den range check below.
    if (num > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      throw std::invalid_argument("EpsRational: overflow in '" + text + "'");
    }
    num = num * 10 + digit;
    if (seen_dot) den *= 10;
    if (den > 1'000'000'000ULL) {
      throw std::invalid_argument("EpsRational: too many decimals");
    }
  }
  if (!seen_digit) throw std::invalid_argument("EpsRational: empty");
  if (num == 0 || num > den) {
    throw std::invalid_argument("EpsRational: ε must be in (0, 1]: " + text);
  }
  const std::uint64_t g = std::gcd(num, den);
  return {num / g, den / g};
}

EpsRational EpsRational::from_double(double value) {
  if (!(value > 0.0) || value > 1.0) {
    throw std::invalid_argument("EpsRational: ε must be in (0, 1]");
  }
  constexpr std::uint64_t kDen = 1'000'000;
  auto num = static_cast<std::uint64_t>(value * kDen + 0.5);
  if (num == 0) num = 1;
  const std::uint64_t g = std::gcd(num, kDen);
  return {num / g, kDen / g};
}

std::uint32_t min_common_neighbors(const EpsRational& eps, VertexId d_u,
                                   VertexId d_v) {
  // Double-precision first guess, then exact integer fix-up (±2 at most).
  const double guess = std::sqrt((static_cast<double>(d_u) + 1) *
                                 (static_cast<double>(d_v) + 1)) *
                       eps.to_double();
  auto c = static_cast<std::uint64_t>(guess);
  while (!similarity_holds(eps, c, d_u, d_v)) ++c;
  while (c > 0 && similarity_holds(eps, c - 1, d_u, d_v)) --c;
  return static_cast<std::uint32_t>(c);
}

PruneThresholds::PruneThresholds(const EpsRational& eps, VertexId d_u) {
  const U128 a2 = U128(eps.num) * eps.num;
  const U128 b2 = U128(eps.den) * eps.den;
  const U128 du1 = U128(d_u) + 1;
  const U128 above = du1 * b2 / a2;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  sim_max_ = static_cast<std::uint64_t>(4 * b2 / (a2 * du1));
  nsim_below_ = static_cast<std::uint64_t>((a2 * du1 - 1) / b2);
  nsim_above_ = above > kMax ? kMax : static_cast<std::uint64_t>(above);
}

}  // namespace ppscan
