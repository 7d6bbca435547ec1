// Tests for the sliding-window distance-range estimator behind
// OursOblivious: witness bucketing, expiry, and range tracking.
#include <gtest/gtest.h>

#include <limits>

#include "core/distance_estimator.h"
#include "core/guess_ladder.h"

namespace fkc {
namespace {

TEST(DistanceEstimatorTest, EmptyHasNoRange) {
  const GuessLadder ladder(2.0);
  WindowDistanceEstimator estimator(ladder, 10);
  EXPECT_FALSE(estimator.Range().has_value());
}

TEST(DistanceEstimatorTest, ZeroDistancesIgnored) {
  const GuessLadder ladder(2.0);
  WindowDistanceEstimator estimator(ladder, 10);
  estimator.BeginStep(1);
  estimator.ObserveDistance(0.0);
  EXPECT_FALSE(estimator.Range().has_value());
}

TEST(DistanceEstimatorTest, NonFiniteDistancesAreTotal) {
  // NaN carries no scale and is ignored; +inf lands in the ladder's
  // infinite bucket, above every finite one.
  const GuessLadder ladder(2.0);
  WindowDistanceEstimator estimator(ladder, 10);
  estimator.BeginStep(1);
  estimator.ObserveDistance(std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(estimator.Range().has_value());
  estimator.ObserveDistance(std::numeric_limits<double>::infinity());
  estimator.ObserveDistance(std::numeric_limits<double>::max());
  ASSERT_TRUE(estimator.Range().has_value());
  EXPECT_EQ(estimator.Range()->second, ladder.InfiniteExponent());
  EXPECT_EQ(estimator.Range()->first, ladder.InfiniteExponent() - 1);
}

TEST(DistanceEstimatorTest, TracksMinAndMaxExponents) {
  const GuessLadder ladder(2.0);  // base 3
  WindowDistanceEstimator estimator(ladder, 100);
  estimator.BeginStep(1);
  estimator.ObserveDistance(1.5);   // exponent 0 ([1, 3))
  estimator.ObserveDistance(30.0);  // exponent 3 ([27, 81))
  ASSERT_TRUE(estimator.Range().has_value());
  EXPECT_EQ(estimator.Range()->first, 0);
  EXPECT_EQ(estimator.Range()->second, 3);
  EXPECT_EQ(estimator.LiveBuckets(), 2);
}

TEST(DistanceEstimatorTest, WitnessesExpireAfterOneWindow) {
  const GuessLadder ladder(2.0);
  WindowDistanceEstimator estimator(ladder, 10);
  estimator.BeginStep(1);
  estimator.ObserveDistance(100.0);
  estimator.BeginStep(5);
  estimator.ObserveDistance(1.0);
  // At t=11 the t=1 witness (both endpoints alive at t=1) must be gone:
  // its endpoints expire by t = 1 + 10.
  estimator.BeginStep(11);
  ASSERT_TRUE(estimator.Range().has_value());
  EXPECT_EQ(estimator.Range()->second, 0);  // only the 1.0 witness remains
  // And at t=15 everything is gone.
  estimator.BeginStep(15);
  EXPECT_FALSE(estimator.Range().has_value());
}

TEST(DistanceEstimatorTest, ReobservationRefreshesBucket) {
  const GuessLadder ladder(2.0);
  WindowDistanceEstimator estimator(ladder, 10);
  estimator.BeginStep(1);
  estimator.ObserveDistance(100.0);
  estimator.BeginStep(9);
  estimator.ObserveDistance(100.0);  // same scale, fresh witness
  estimator.BeginStep(12);           // first witness stale, second alive
  ASSERT_TRUE(estimator.Range().has_value());
  EXPECT_EQ(estimator.LiveBuckets(), 1);
}

TEST(DistanceEstimatorTest, RangeShrinksAsScalesLeaveWindow) {
  // Scales 1000 -> 1 over time: max exponent must ratchet down once the
  // large-scale witnesses age out.
  const GuessLadder ladder(2.0);
  WindowDistanceEstimator estimator(ladder, 5);
  estimator.BeginStep(1);
  estimator.ObserveDistance(1000.0);
  const int big = estimator.Range()->second;
  for (int64_t t = 2; t <= 12; ++t) {
    estimator.BeginStep(t);
    estimator.ObserveDistance(1.0);
  }
  ASSERT_TRUE(estimator.Range().has_value());
  EXPECT_LT(estimator.Range()->second, big);
  EXPECT_EQ(estimator.Range()->second, 0);
}

}  // namespace
}  // namespace fkc
