#include "core/guess_ladder.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace fkc {
namespace {

// Where the exponent search starts and where the infinite bucket lies stay
// within +-kExponentLimit, far inside int: only a ladder with beta below
// ~1e-6 reaches it, and its exponents then saturate instead of overflowing.
constexpr int kExponentLimit = 1 << 30;

}  // namespace

GuessLadder::GuessLadder(double beta) : beta_(beta) {
  FKC_CHECK_GT(beta, 0.0);
  log_base_ = std::log1p(beta);
  // Near log_{1+beta}(DBL_MAX), then the exact boundary. A ladder so fine
  // that the boundary lies past kExponentLimit never reaches it.
  const double boundary =
      std::ceil(std::log(std::numeric_limits<double>::max()) / log_base_);
  if (boundary >= kExponentLimit) {
    infinite_exponent_ = kExponentLimit;
    return;
  }
  int e = static_cast<int>(boundary);
  while (std::isinf(Value(e - 1))) --e;
  while (!std::isinf(Value(e))) ++e;
  infinite_exponent_ = e;
}

double GuessLadder::Value(int exponent) const {
  return std::exp(log_base_ * exponent);
}

int GuessLadder::FloorExponent(double value) const {
  FKC_CHECK_GT(value, 0.0);
  if (std::isinf(value)) return infinite_exponent_;
  // Relative tolerance absorbs floating-point drift at bucket boundaries
  // (e.g. Value(1) = 2.9999999999999996 for beta = 2): a value within one
  // part in 1e12 of a guess is treated as equal to it. Near DBL_MAX the
  // tolerance overflows to +inf, which every infinite guess would pass: the
  // climb stops below InfiniteExponent().
  constexpr double kRelTol = 1e-12;
  const double slack = value * (1.0 + kRelTol);
  int e = static_cast<int>(
      std::clamp(std::floor(std::log(value) / log_base_ + 1e-9),
                 -static_cast<double>(kExponentLimit),
                 static_cast<double>(infinite_exponent_ - 1)));
  while (Value(e) > slack) --e;
  while (e + 1 < infinite_exponent_ && Value(e + 1) <= slack) ++e;
  return e;
}

int GuessLadder::CeilExponent(double value) const {
  FKC_CHECK_GT(value, 0.0);
  constexpr double kRelTol = 1e-12;
  const int e = FloorExponent(value);
  return Value(e) >= value * (1.0 - kRelTol) ? e : e + 1;
}

std::vector<int> GuessLadder::Range(double d_min, double d_max) const {
  FKC_CHECK_GT(d_min, 0.0);
  FKC_CHECK_GE(d_max, d_min);
  std::vector<int> exponents;
  for (int e = FloorExponent(d_min); e <= CeilExponent(d_max); ++e) {
    exponents.push_back(e);
  }
  return exponents;
}

}  // namespace fkc
