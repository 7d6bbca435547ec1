// Tests for the insertion-only streaming fair-center summary: buffering
// semantics, prefix (never-forget) behaviour, guess death/doubling,
// fairness, approximation quality against exact prefix optima, memory
// bounds independent of the stream length, and Status rejection of invalid
// arrivals.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "core/insertion_only_fair_center.h"
#include "metric/metric.h"
#include "sequential/brute_force.h"
#include "sequential/jones_fair_center.h"
#include "sequential/radius.h"

namespace fkc {
namespace {

const EuclideanMetric kMetric;
const JonesFairCenter kJones;

InsertionOnlyFairCenter Make(ColorConstraint constraint, double beta = 2.0) {
  InsertionOnlyOptions options;
  options.beta = beta;
  return InsertionOnlyFairCenter(options, std::move(constraint), &kMetric,
                                 &kJones);
}

TEST(InsertionOnlyTest, EmptyStream) {
  auto summary = Make(ColorConstraint({1}));
  auto result = summary.Query();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().centers.empty());
}

TEST(InsertionOnlyTest, BufferingPhaseIsExact) {
  // With k = 2 the buffer holds until k+2 = 4 distinct locations exist;
  // queries before that are solved on the raw points.
  auto summary = Make(ColorConstraint({1, 1}));
  summary.Update({0.0}, 0);
  summary.Update({10.0}, 1);
  summary.Update({10.5}, 0);
  auto result = summary.Query();
  ASSERT_TRUE(result.ok());
  // Exact optimum: centers {0 (c0), 10 or 10.5 (c1 -> 10)} -> radius 0.5.
  EXPECT_NEAR(result.value().radius, 0.5, 1e-9);
}

TEST(InsertionOnlyTest, DuplicatesNeverLeaveBuffering) {
  auto summary = Make(ColorConstraint({1, 1}));
  for (int i = 0; i < 100; ++i) summary.Update({3.0, 3.0}, i % 2);
  EXPECT_EQ(summary.AliveGuesses(), 0);  // still buffering
  // Buffer deduplicates: 2 points (one per color).
  EXPECT_EQ(summary.Memory().TotalPoints(), 2);
  auto result = summary.Query();
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().radius, 0.0);
}

TEST(InsertionOnlyTest, SolutionsFeasibleThroughoutStream) {
  const ColorConstraint constraint({2, 1});
  auto summary = Make(constraint);
  Rng rng(5);
  for (int t = 0; t < 500; ++t) {
    summary.Update({rng.NextUniform(0, 100), rng.NextUniform(0, 100)},
                   static_cast<int>(rng.NextBounded(2)));
    if (t % 50 == 49) {
      auto result = summary.Query();
      ASSERT_TRUE(result.ok());
      EXPECT_TRUE(constraint.IsFeasible(result.value().centers));
      EXPECT_FALSE(result.value().centers.empty());
    }
  }
}

TEST(InsertionOnlyTest, GuessesDieAsOptGrows) {
  // Feeding points at ever-larger scales kills small guesses and spawns
  // doubled ones; the ladder stays short.
  auto summary = Make(ColorConstraint({1, 1}));
  Rng rng(7);
  for (int burst = 0; burst < 5; ++burst) {
    const double scale = std::pow(10.0, burst);
    for (int i = 0; i < 30; ++i) {
      summary.Update({scale * 100.0 + rng.NextUniform(0, scale)},
                     static_cast<int>(rng.NextBounded(2)));
    }
  }
  EXPECT_GT(summary.AliveGuesses(), 0);
  EXPECT_LT(summary.AliveGuesses(), 40);
  auto result = summary.Query();
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().centers.empty());
}

TEST(InsertionOnlyTest, MemoryBoundedOnLongStreams) {
  const ColorConstraint constraint({2, 2});
  auto summary = Make(constraint);
  Rng rng(9);
  int64_t peak = 0;
  for (int t = 0; t < 5000; ++t) {
    summary.Update({rng.NextUniform(0, 100), rng.NextUniform(0, 100)},
                   static_cast<int>(rng.NextBounded(2)));
    peak = std::max(peak, summary.Memory().TotalPoints());
  }
  // O(k * |Gamma|) with k = 4 and a handful of guesses: far below the
  // 5000-point stream.
  EXPECT_LT(peak, 500);
}

class InsertionOnlyQualityTest : public ::testing::TestWithParam<int> {};

TEST_P(InsertionOnlyQualityTest, PrefixRadiusWithinFactorOfOpt) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const ColorConstraint constraint({1, 1});
  InsertionOnlyOptions options;
  options.beta = 0.5;  // fine ladder for a tight factor
  InsertionOnlyFairCenter summary(options, constraint, &kMetric, &kJones);

  std::vector<Point> prefix;
  for (int t = 0; t < 40; ++t) {
    Point p({rng.NextUniform(0, 80), rng.NextUniform(0, 80)},
            static_cast<int>(rng.NextBounded(2)));
    p.arrival = t + 1;
    prefix.push_back(p);
    summary.Update(p);
    if (t < 10 || t % 9 != 0) continue;

    auto streaming = summary.Query();
    ASSERT_TRUE(streaming.ok());
    auto exact = BruteForceFairCenter(kMetric, prefix, constraint);
    ASSERT_TRUE(exact.ok());
    const double radius =
        ClusteringRadius(kMetric, prefix, streaming.value().centers);
    // (3 + eps) with doubling/replay slack; assert a conservative 6x.
    EXPECT_LE(radius, 6.0 * exact.value().radius + 1e-9)
        << "seed=" << GetParam() << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InsertionOnlyQualityTest,
                         ::testing::Range(1, 11));

TEST(InsertionOnlyTest, NeverForgetsPrefix) {
  // The defining (anti-)property vs sliding windows: early far-away points
  // keep inflating the prefix coverage radius forever. (Evaluate over the
  // tracked prefix: the solution's own radius field refers to the coreset.)
  auto summary = Make(ColorConstraint({1}));
  std::vector<Point> prefix;
  auto feed = [&](double x) {
    Point p({x}, 0);
    prefix.push_back(p);
    summary.Update(std::move(p));
  };
  feed(0.0);
  feed(1.0);
  feed(100000.0);
  feed(2.0);
  for (int i = 0; i < 200; ++i) feed(3.0 + i * 0.001);
  auto result = summary.Query();
  ASSERT_TRUE(result.ok());
  // One center cannot cover both 0..3 and 100000 tightly.
  EXPECT_GT(ClusteringRadius(kMetric, prefix, result.value().centers),
            10000.0);
}

TEST(InsertionOnlyTest, RejectsInvalidArrivalsWithStatus) {
  // Invalid arrivals fail Update with a Status and are not consumed; the
  // summary goes on accepting valid ones.
  auto summary = Make(ColorConstraint({1, 0}));
  ASSERT_TRUE(summary.Update({1.0, 2.0}, 0).ok());
  const auto rejected = [&](Coordinates coords, int color) {
    return summary.Update(std::move(coords), color).code() ==
           StatusCode::kInvalidArgument;
  };
  EXPECT_TRUE(rejected({1.0, 2.0}, 2)) << "color past the constraint";
  EXPECT_TRUE(rejected({1.0, 2.0}, -1)) << "negative color";
  EXPECT_TRUE(rejected({1.0, 2.0}, 1)) << "zero-cap color";
  EXPECT_TRUE(rejected({}, 0)) << "empty arrival";
  EXPECT_TRUE(rejected({1.0, std::nan("")}, 0)) << "NaN coordinate";
  EXPECT_TRUE(rejected({std::numeric_limits<double>::infinity(), 2.0}, 0))
      << "infinite coordinate";
  EXPECT_TRUE(rejected({1.0, 2.0, 3.0}, 0)) << "dimension change";
  EXPECT_EQ(summary.count(), 1);
  ASSERT_TRUE(summary.Update({4.0, 6.0}, 0).ok());
  EXPECT_EQ(summary.count(), 2);
  auto result = summary.Query();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().centers.size(), 1u);
}

}  // namespace
}  // namespace fkc
