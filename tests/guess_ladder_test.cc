// Tests for the geometric guess ladder: exponent arithmetic, boundary
// behaviour, and range construction as defined in Section 3 of the paper.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "core/guess_ladder.h"

namespace fkc {
namespace {

TEST(GuessLadderTest, ValueIsPowerOfBase) {
  const GuessLadder ladder(2.0);  // base 3
  EXPECT_NEAR(ladder.Value(0), 1.0, 1e-12);
  EXPECT_NEAR(ladder.Value(2), 9.0, 1e-9);
  EXPECT_NEAR(ladder.Value(-1), 1.0 / 3.0, 1e-12);
}

TEST(GuessLadderTest, FloorExponentBrackets) {
  const GuessLadder ladder(2.0);
  EXPECT_EQ(ladder.FloorExponent(1.0), 0);
  EXPECT_EQ(ladder.FloorExponent(2.9), 0);
  EXPECT_EQ(ladder.FloorExponent(3.0), 1);
  EXPECT_EQ(ladder.FloorExponent(8.9), 1);
  EXPECT_EQ(ladder.FloorExponent(0.5), -1);
}

TEST(GuessLadderTest, CeilExponentBrackets) {
  const GuessLadder ladder(2.0);
  EXPECT_EQ(ladder.CeilExponent(1.0), 0);
  EXPECT_EQ(ladder.CeilExponent(1.1), 1);
  EXPECT_EQ(ladder.CeilExponent(3.0), 1);
  EXPECT_EQ(ladder.CeilExponent(3.1), 2);
}

TEST(GuessLadderTest, FloorCeilConsistentOnRandomValues) {
  // floor <= ceil, and value is bracketed by the corresponding guesses.
  for (double beta : {0.5, 1.0, 2.0, 3.0}) {
    const GuessLadder ladder(beta);
    Rng rng(17);
    for (int i = 0; i < 500; ++i) {
      const double v = std::exp(rng.NextUniform(-20, 20));
      const int floor_e = ladder.FloorExponent(v);
      const int ceil_e = ladder.CeilExponent(v);
      EXPECT_LE(ladder.Value(floor_e), v * (1 + 1e-12));
      EXPECT_GT(ladder.Value(floor_e + 1), v * (1 - 1e-12));
      EXPECT_GE(ladder.Value(ceil_e), v * (1 - 1e-12));
      EXPECT_LE(floor_e, ceil_e);
      EXPECT_LE(ceil_e - floor_e, 1);
    }
  }
}

TEST(GuessLadderTest, FloorExponentIsTotalOnHugeAndInfiniteValues) {
  // The last finite guess, then the first infinite one: a finite value
  // never maps past the former, and +inf maps to the latter (the search
  // once climbed forever there, the tolerance having overflowed to +inf).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMax = std::numeric_limits<double>::max();
  for (double beta : {2.0, 0.5, 1e-3}) {
    const GuessLadder ladder(beta);
    const int top = ladder.InfiniteExponent();
    EXPECT_TRUE(std::isinf(ladder.Value(top))) << beta;
    EXPECT_FALSE(std::isinf(ladder.Value(top - 1))) << beta;
    EXPECT_EQ(ladder.FloorExponent(kInf), top) << beta;
    EXPECT_EQ(ladder.FloorExponent(kMax), top - 1) << beta;
    EXPECT_LE(ladder.FloorExponent(0.5 * kMax), top - 1) << beta;
    EXPECT_EQ(ladder.CeilExponent(kInf), top) << beta;
  }
}

TEST(GuessLadderTest, RangeCoversBounds) {
  const GuessLadder ladder(2.0);
  const auto range = ladder.Range(0.5, 100.0);
  ASSERT_FALSE(range.empty());
  // Smallest guess <= d_min, largest >= d_max (the paper's Gamma).
  EXPECT_LE(ladder.Value(range.front()), 0.5 + 1e-12);
  EXPECT_GE(ladder.Value(range.back()), 100.0 - 1e-9);
  // Contiguous exponents.
  for (size_t i = 1; i < range.size(); ++i) {
    EXPECT_EQ(range[i], range[i - 1] + 1);
  }
}

TEST(GuessLadderTest, RangeSizeMatchesLogDelta) {
  // |Gamma| = O(log Delta / log(1+beta)): for Delta = 3^10 and beta = 2 the
  // ladder has ~11 guesses.
  const GuessLadder ladder(2.0);
  const double d_min = 1.0;
  const double d_max = std::pow(3.0, 10);
  const auto range = ladder.Range(d_min, d_max);
  EXPECT_GE(range.size(), 11u);
  EXPECT_LE(range.size(), 12u);
}

TEST(GuessLadderTest, DegenerateRangeSinglePoint) {
  const GuessLadder ladder(2.0);
  const auto range = ladder.Range(5.0, 5.0);
  ASSERT_FALSE(range.empty());
  EXPECT_LE(ladder.Value(range.front()), 5.0 + 1e-12);
  EXPECT_GE(ladder.Value(range.back()), 5.0 - 1e-12);
}

TEST(GuessLadderTest, SmallBetaGivesDenseLadder) {
  const GuessLadder fine(0.1);
  const GuessLadder coarse(2.0);
  EXPECT_GT(fine.Range(1.0, 1000.0).size(),
            coarse.Range(1.0, 1000.0).size() * 5);
}

}  // namespace
}  // namespace fkc
