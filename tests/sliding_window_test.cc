// End-to-end behaviour of FairCenterSlidingWindow (Algorithms 1-3): window
// semantics, fairness of returned solutions, approximation quality against
// exact optima, space bounds, and agreement between fixed-range and adaptive
// modes.
#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/fair_center_sliding_window.h"
#include "metric/aspect_ratio.h"
#include "metric/metric.h"
#include "sequential/brute_force.h"
#include "sequential/color_constraint.h"
#include "sequential/jones_fair_center.h"
#include "sequential/radius.h"
#include "stream/reference_window.h"

namespace fkc {
namespace {

Point P(std::initializer_list<double> coords, int color) {
  return Point(Coordinates(coords), color);
}

// Builds a window in fixed-range mode with sane defaults for tiny tests.
FairCenterSlidingWindow MakeWindow(int64_t window_size,
                                   ColorConstraint constraint, double d_min,
                                   double d_max, double delta = 0.5,
                                   double beta = 2.0) {
  SlidingWindowOptions options;
  options.window_size = window_size;
  options.beta = beta;
  options.delta = delta;
  options.d_min = d_min;
  options.d_max = d_max;
  static const EuclideanMetric metric;
  static const JonesFairCenter solver;
  return FairCenterSlidingWindow(options, std::move(constraint), &metric,
                                 &solver);
}

TEST(SlidingWindowTest, EmptyWindowReturnsEmptySolution) {
  auto window = MakeWindow(10, ColorConstraint({1, 1}), 0.1, 100.0);
  auto result = window.Query();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().centers.empty());
  EXPECT_EQ(result.value().radius, 0.0);
}

TEST(SlidingWindowTest, SinglePointIsItsOwnCenter) {
  auto window = MakeWindow(10, ColorConstraint({1, 1}), 0.1, 100.0);
  window.Update({1.0, 2.0}, 0);
  auto result = window.Query();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().centers.size(), 1u);
  EXPECT_EQ(result.value().centers[0].coords, Coordinates({1.0, 2.0}));
}

TEST(SlidingWindowTest, SolutionsAlwaysRespectColorCaps) {
  const ColorConstraint constraint({2, 1});
  auto window = MakeWindow(50, constraint, 0.1, 1000.0);
  Rng rng(5);
  for (int t = 0; t < 200; ++t) {
    window.Update({rng.NextUniform(0, 100), rng.NextUniform(0, 100)},
                  static_cast<int>(rng.NextBounded(2)));
    if (t % 10 == 9) {
      auto result = window.Query();
      ASSERT_TRUE(result.ok());
      EXPECT_TRUE(constraint.IsFeasible(result.value().centers));
      EXPECT_FALSE(result.value().centers.empty());
    }
  }
}

TEST(SlidingWindowTest, ExpiredPointsDoNotServeAsCenters) {
  // Two clusters; the first cluster fully expires, so returned centers must
  // come from the second cluster only.
  auto window = MakeWindow(4, ColorConstraint({2}), 0.1, 1000.0);
  for (int i = 0; i < 4; ++i) {
    window.Update({0.0 + 0.01 * i}, 0);
  }
  for (int i = 0; i < 4; ++i) {
    window.Update({500.0 + 0.01 * i}, 0);
  }
  auto result = window.Query();
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().centers.empty());
  for (const Point& c : result.value().centers) {
    EXPECT_GE(c.coords[0], 499.0) << "center from expired region";
  }
}

TEST(SlidingWindowTest, RadiusTracksWindowNotStream) {
  // Window slides from a wide regime into a tight cluster; radius over the
  // *current window* must shrink accordingly.
  auto window = MakeWindow(10, ColorConstraint({1}), 0.01, 10000.0);
  ReferenceWindow truth(10);
  const EuclideanMetric metric;
  Rng rng(3);
  // Phase 1: spread over [0, 1000].
  for (int i = 0; i < 20; ++i) {
    Point p = P({rng.NextUniform(0, 1000)}, 0);
    p.arrival = window.now() + 1;
    truth.Update(p);
    window.Update(p);
  }
  // Phase 2: tight cluster at 5000.
  for (int i = 0; i < 15; ++i) {
    Point p = P({5000.0 + rng.NextUniform(0, 1.0)}, 0);
    p.arrival = window.now() + 1;
    truth.Update(p);
    window.Update(p);
  }
  auto result = window.Query();
  ASSERT_TRUE(result.ok());
  const double radius_on_window =
      ClusteringRadius(metric, truth.Snapshot(), result.value().centers);
  EXPECT_LE(radius_on_window, 2.0) << "window is a unit-size cluster";
}

// Property sweep: streaming radius within the theoretical factor of the
// exact optimum on brute-force-solvable instances.
struct QualityCase {
  uint64_t seed;
  double delta;
  int colors;
};

class SlidingWindowQualityTest
    : public ::testing::TestWithParam<QualityCase> {};

TEST_P(SlidingWindowQualityTest, RadiusWithinTheoreticalFactor) {
  const QualityCase param = GetParam();
  const EuclideanMetric metric;
  const JonesFairCenter jones;
  std::vector<int> caps(param.colors, 1);
  const ColorConstraint constraint(caps);

  SlidingWindowOptions options;
  options.window_size = 12;
  options.beta = 0.5;
  options.delta = param.delta;
  options.d_min = 0.05;
  options.d_max = 500.0;
  FairCenterSlidingWindow window(options, constraint, &metric, &jones);
  ReferenceWindow truth(12);

  Rng rng(param.seed);
  for (int t = 0; t < 60; ++t) {
    Point p = P({rng.NextUniform(0, 100), rng.NextUniform(0, 100)},
                static_cast<int>(rng.NextBounded(param.colors)));
    p.arrival = t + 1;
    truth.Update(p);
    window.Update(p);
    if (t < 20 || t % 7 != 0) continue;

    auto streaming = window.Query();
    ASSERT_TRUE(streaming.ok());
    auto exact = BruteForceFairCenter(metric, truth.Snapshot(), constraint);
    ASSERT_TRUE(exact.ok());
    const double streaming_radius =
        ClusteringRadius(metric, truth.Snapshot(), streaming.value().centers);
    // Theorem 1: radius <= (alpha + eps) * OPT with
    // eps = delta * (1 + beta) * (1 + 2 * alpha); alpha = 3 for Jones.
    const double eps = EpsilonForDelta(param.delta, options.beta, 3.0);
    const double bound = (3.0 + eps) * exact.value().radius + 1e-9;
    EXPECT_LE(streaming_radius, bound)
        << "seed=" << param.seed << " t=" << t
        << " opt=" << exact.value().radius;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SlidingWindowQualityTest,
    ::testing::Values(QualityCase{1, 0.5, 2}, QualityCase{2, 0.5, 3},
                      QualityCase{3, 1.0, 2}, QualityCase{4, 2.0, 2},
                      QualityCase{5, 4.0, 3}, QualityCase{6, 0.5, 1},
                      QualityCase{7, 1.5, 4}, QualityCase{8, 3.0, 2}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "_delta" +
             std::to_string(static_cast<int>(info.param.delta * 10)) +
             "_ell" + std::to_string(info.param.colors);
    });

TEST(SlidingWindowTest, MemoryIndependentOfWindowSize) {
  // Same stream, two window sizes 10x apart: stored points must not scale
  // with the window (Theorem 2).
  const EuclideanMetric metric;
  const JonesFairCenter jones;
  const ColorConstraint constraint({2, 2});

  auto run = [&](int64_t window_size) {
    SlidingWindowOptions options;
    options.window_size = window_size;
    options.delta = 1.0;
    options.d_min = 0.1;
    options.d_max = 2000.0;
    FairCenterSlidingWindow window(options, constraint, &metric, &jones);
    Rng rng(11);
    for (int t = 0; t < 4000; ++t) {
      window.Update({rng.NextUniform(0, 1000), rng.NextUniform(0, 1000)},
                    static_cast<int>(rng.NextBounded(2)));
    }
    return window.Memory().TotalPoints();
  };

  const int64_t small = run(200);
  const int64_t large = run(2000);
  // Allow slack for the larger window genuinely containing more distinct
  // scales, but reject anything close to linear growth.
  EXPECT_LT(large, small * 3 + 200);
}

TEST(SlidingWindowTest, AdaptiveModeMatchesFixedModeQuality) {
  const EuclideanMetric metric;
  const JonesFairCenter jones;
  const ColorConstraint constraint({2, 2});

  SlidingWindowOptions fixed_options;
  fixed_options.window_size = 100;
  fixed_options.delta = 0.5;
  fixed_options.d_min = 0.05;
  fixed_options.d_max = 2000.0;
  FairCenterSlidingWindow fixed(fixed_options, constraint, &metric, &jones);

  SlidingWindowOptions adaptive_options = fixed_options;
  adaptive_options.adaptive_range = true;
  adaptive_options.d_min = adaptive_options.d_max = 0.0;
  FairCenterSlidingWindow adaptive(adaptive_options, constraint, &metric,
                                   &jones);

  ReferenceWindow truth(100);
  Rng rng(23);
  for (int t = 0; t < 500; ++t) {
    Point p = P({rng.NextUniform(0, 500), rng.NextUniform(0, 500)},
                static_cast<int>(rng.NextBounded(2)));
    p.arrival = t + 1;
    truth.Update(p);
    fixed.Update(p);
    adaptive.Update(p);

    if (t > 150 && t % 50 == 0) {
      auto fixed_result = fixed.Query();
      auto adaptive_result = adaptive.Query();
      ASSERT_TRUE(fixed_result.ok());
      ASSERT_TRUE(adaptive_result.ok());
      const double fixed_radius = ClusteringRadius(
          metric, truth.Snapshot(), fixed_result.value().centers);
      const double adaptive_radius = ClusteringRadius(
          metric, truth.Snapshot(), adaptive_result.value().centers);
      // The paper finds the two variants comparable; allow generous slack.
      EXPECT_LE(adaptive_radius, 3.0 * fixed_radius + 1e-9);
      EXPECT_LE(fixed_radius, 3.0 * adaptive_radius + 1e-9);
    }
  }
  // Adaptive mode uses no more memory than fixed mode (typically less).
  EXPECT_LE(adaptive.Memory().TotalPoints(),
            fixed.Memory().TotalPoints() * 2);
}

TEST(SlidingWindowTest, DuplicatePointsOnlyWindow) {
  // All points identical: no guess structures can be witnessed in adaptive
  // mode; the fallback single-point solution must kick in.
  const EuclideanMetric metric;
  const JonesFairCenter jones;
  SlidingWindowOptions options;
  options.window_size = 10;
  options.adaptive_range = true;
  FairCenterSlidingWindow window(options, ColorConstraint({1}), &metric,
                                 &jones);
  for (int i = 0; i < 20; ++i) window.Update({7.0, 7.0}, 0);
  auto result = window.Query();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().centers.size(), 1u);
  EXPECT_EQ(result.value().radius, 0.0);
}

TEST(SlidingWindowTest, QueryStatsPopulated) {
  auto window = MakeWindow(20, ColorConstraint({1, 1}), 0.1, 100.0);
  Rng rng(31);
  for (int i = 0; i < 40; ++i) {
    window.Update({rng.NextUniform(0, 50)}, static_cast<int>(i % 2));
  }
  QueryStats stats;
  auto result = window.Query(&stats);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(stats.guess, 0.0);
  EXPECT_GT(stats.coreset_size, 0);
  EXPECT_GT(stats.guesses_inspected, 0);
}

TEST(SlidingWindowTest, FixedModeRejectsMissingBounds) {
  SlidingWindowOptions options;
  options.window_size = 10;
  options.adaptive_range = false;
  options.d_min = 0.0;  // missing
  const EuclideanMetric metric;
  const JonesFairCenter jones;
  EXPECT_DEATH(FairCenterSlidingWindow(options, ColorConstraint({1}), &metric,
                                       &jones),
               "d_min");
}

TEST(SlidingWindowTest, DeltaEpsilonRoundTrip) {
  const double delta = DeltaForEpsilon(0.5, 2.0, 3.0);
  EXPECT_NEAR(EpsilonForDelta(delta, 2.0, 3.0), 0.5, 1e-12);
  // Theorem 1's formula: eps / ((1+beta)(1+2alpha)) = 0.5 / (3 * 7).
  EXPECT_NEAR(delta, 0.5 / 21.0, 1e-12);
}

}  // namespace
}  // namespace fkc
