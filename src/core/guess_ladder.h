// The geometric guess ladder Gamma = { (1+beta)^i } over which the sliding
// window algorithm maintains one structure per guess. Guesses are addressed
// by their integer exponent so fixed-range (Ours) and adaptive
// (OursOblivious) variants share arithmetic.
#ifndef FKC_CORE_GUESS_LADDER_H_
#define FKC_CORE_GUESS_LADDER_H_

#include <vector>

namespace fkc {

/// Exponent arithmetic for the ladder gamma_i = (1+beta)^i.
class GuessLadder {
 public:
  /// `beta` > 0 controls the progression (the paper's experiments fix
  /// beta = 2, i.e. consecutive guesses differ by 3x).
  explicit GuessLadder(double beta);

  double beta() const { return beta_; }

  /// gamma_i = (1+beta)^i.
  double Value(int exponent) const;

  /// Largest i with (1+beta)^i <= value; value must be positive (not NaN).
  /// Total on the doubles: a finite value never maps past the last exponent
  /// with a finite guess, and +inf maps to InfiniteExponent().
  int FloorExponent(double value) const;

  /// The first exponent whose guess (1+beta)^i overflows to +inf: the
  /// bucket of an infinite distance, which no finite guess can hold.
  int InfiniteExponent() const { return infinite_exponent_; }

  /// Smallest i with (1+beta)^i >= value; value must be positive.
  int CeilExponent(double value) const;

  /// The paper's Gamma: exponents floor(log_{1+beta} d_min) ..
  /// ceil(log_{1+beta} d_max), inclusive.
  std::vector<int> Range(double d_min, double d_max) const;

 private:
  double beta_;
  double log_base_;  // log(1 + beta)
  int infinite_exponent_;
};

}  // namespace fkc

#endif  // FKC_CORE_GUESS_LADDER_H_
