// Targeted edge cases across modules: degenerate geometries, extreme
// constraint configurations, contract violations (death tests), and
// boundary behaviour the broad property sweeps do not isolate.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/fair_center_sliding_window.h"
#include "core/guess_ladder.h"
#include "core/options_io.h"
#include "datasets/registry.h"
#include "metric/metric.h"
#include "sequential/brute_force.h"
#include "sequential/chen_matroid_center.h"
#include "sequential/gonzalez.h"
#include "sequential/jones_fair_center.h"
#include "stream/window_driver.h"

namespace fkc {
namespace {

const EuclideanMetric kMetric;
const JonesFairCenter kJones;

Point P(std::initializer_list<double> coords, int color) {
  return Point(Coordinates(coords), color);
}

// --- Sequential solvers on degenerate geometry. ---

TEST(EdgeCaseTest, JonesAllPointsCoincide) {
  std::vector<Point> points(7, P({5.0, 5.0}, 0));
  points.push_back(P({5.0, 5.0}, 1));
  auto result = kJones.Solve(kMetric, points, ColorConstraint({1, 1}));
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().radius, 0.0);
}

TEST(EdgeCaseTest, JonesTwoPoints) {
  const std::vector<Point> points = {P({0}, 0), P({9}, 1)};
  auto both = kJones.Solve(kMetric, points, ColorConstraint({1, 1}));
  ASSERT_TRUE(both.ok());
  EXPECT_DOUBLE_EQ(both.value().radius, 0.0);

  // Only color 0 allowed: one center must cover both points.
  auto one = kJones.Solve(kMetric, points, ColorConstraint({1, 0}));
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one.value().centers.size(), 1u);
  EXPECT_EQ(one.value().centers[0].color, 0);
  EXPECT_DOUBLE_EQ(one.value().radius, 9.0);
}

TEST(EdgeCaseTest, JonesCapsExceedAvailability) {
  // Caps far above the number of points of a color: must not crash, and the
  // solution can only use what exists.
  const std::vector<Point> points = {P({0}, 0), P({5}, 0), P({10}, 1)};
  auto result = kJones.Solve(kMetric, points, ColorConstraint({50, 50}));
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().centers.size(), 3u);
  EXPECT_DOUBLE_EQ(result.value().radius, 0.0);  // every point is a center
}

TEST(EdgeCaseTest, JonesSingleColorDegeneratesToKCenter) {
  Rng rng(3);
  std::vector<Point> points;
  for (int i = 0; i < 15; ++i) {
    points.push_back(P({rng.NextUniform(0, 100)}, 0));
  }
  auto fair = kJones.Solve(kMetric, points, ColorConstraint({3}));
  auto exact = BruteForceKCenter(kMetric, points, 3);
  ASSERT_TRUE(fair.ok());
  ASSERT_TRUE(exact.ok());
  EXPECT_LE(fair.value().radius, 3.0 * exact.value().radius + 1e-9);
}

TEST(EdgeCaseTest, ChenSinglePoint) {
  const ChenMatroidCenter chen;
  auto result = chen.Solve(kMetric, {P({1, 2}, 0)}, ColorConstraint({1}));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().centers.size(), 1u);
  EXPECT_DOUBLE_EQ(result.value().radius, 0.0);
}

TEST(EdgeCaseTest, ChenFairPathThreeApprox) {
  // The head <-> color matching picks the nearest point of the matched color
  // inside each accepted ball; the radius stays within the 3r envelope.
  // Verify it against the exact optimum on random instances.
  Rng rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Point> points;
    for (int i = 0; i < 18; ++i) {
      points.push_back(P({rng.NextUniform(0, 50), rng.NextUniform(0, 50)},
                         static_cast<int>(rng.NextBounded(2))));
    }
    const ColorConstraint constraint({2, 1});
    auto exact = BruteForceFairCenter(kMetric, points, constraint);
    ASSERT_TRUE(exact.ok());

    const ChenMatroidCenter chen;
    auto fair = chen.Solve(kMetric, points, constraint);
    ASSERT_TRUE(fair.ok());
    EXPECT_LE(fair.value().radius, 3.0 * exact.value().radius + 1e-9)
        << "trial " << trial;
  }
}

TEST(EdgeCaseTest, GonzalezBadFirstIndexDies) {
  const std::vector<Point> points = {P({0}, 0)};
  EXPECT_DEATH(GonzalezKCenter(kMetric, points, 1, 5), "first_index");
}

// --- Guess ladder contract. ---

TEST(EdgeCaseTest, LadderRejectsNonPositiveInputs) {
  const GuessLadder ladder(2.0);
  EXPECT_DEATH(ladder.FloorExponent(0.0), "value");
  EXPECT_DEATH(ladder.FloorExponent(-1.0), "value");
  EXPECT_DEATH(GuessLadder(-0.5), "beta");
}

TEST(EdgeCaseTest, LadderExtremeValues) {
  const GuessLadder ladder(2.0);
  // Very large and very small values must not overflow the exponent logic.
  EXPECT_GT(ladder.FloorExponent(1e100), 200);
  EXPECT_LT(ladder.FloorExponent(1e-100), -200);
  EXPECT_EQ(ladder.FloorExponent(ladder.Value(37)), 37);
  EXPECT_EQ(ladder.CeilExponent(ladder.Value(-37)), -37);
}

// --- Sliding window contract violations. ---

// Arrival content is user input: the window rejects a bad arrival with a
// Status and consumes nothing — same clock, same checkpoint bytes — in
// either mode and at any thread count, and a batch drops only its
// offenders.
TEST(EdgeCaseTest, WindowRejectsInvalidArrivalsWithStatus) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const ColorConstraint constraint({2, 0, 1});  // color 1 has a zero cap
  const std::vector<Point> invalid = {
      P({1.0, 2.0}, -1),      P({1.0, 2.0}, 3),    P({1.0, 2.0}, 1),
      Point(Coordinates{}, 0), P({nan, 2.0}, 0),   P({inf, 2.0}, 0),
      P({1.0, -inf}, 0),      P({1.0, 2.0, 3.0}, 0)};
  Rng rng(31);
  std::vector<Point> valid;
  for (int i = 0; i < 60; ++i) {
    valid.push_back(P({rng.NextUniform(0, 10), rng.NextUniform(0, 10)},
                      i % 3 == 1 ? 2 : 0));
  }
  for (bool adaptive : {false, true}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "adaptive=" << adaptive
                                      << " threads=" << threads);
      SlidingWindowOptions options;
      options.window_size = 25;
      options.adaptive_range = adaptive;
      options.d_min = 0.01;
      options.d_max = 20.0;
      options.num_threads = threads;
      FairCenterSlidingWindow window(options, constraint, &kMetric, &kJones);
      FairCenterSlidingWindow reference(options, constraint, &kMetric,
                                        &kJones);
      for (int i = 0; i < 30; ++i) {
        ASSERT_TRUE(window.Update(valid[i]).ok());
        ASSERT_TRUE(reference.Update(valid[i]).ok());
      }
      const std::string before = window.SerializeState();
      for (const Point& p : invalid) {
        EXPECT_EQ(window.Update(p).code(), StatusCode::kInvalidArgument)
            << p.ToString();
        EXPECT_EQ(window.now(), 30);
        EXPECT_EQ(window.SerializeState(), before) << p.ToString();
      }
      EXPECT_EQ(window.UpdateBatch(invalid).code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(window.now(), 30);
      EXPECT_EQ(window.SerializeState(), before);

      // Offenders mixed into a batch: the valid arrivals land exactly as
      // Update over the filtered stream would feed them.
      std::vector<Point> mixed;
      size_t next_invalid = 0;
      for (int i = 30; i < 60; ++i) {
        if (i % 3 == 0 && next_invalid < invalid.size()) {
          mixed.push_back(invalid[next_invalid++]);
        }
        mixed.push_back(valid[i]);
        ASSERT_TRUE(reference.Update(valid[i]).ok());
      }
      const Status status = window.UpdateBatch(mixed);
      EXPECT_EQ(status, ValidateArrival(invalid[0], constraint, 2))
          << "the batch reports its first offender";
      EXPECT_EQ(window.now(), 60);
      EXPECT_EQ(window.SerializeState(), reference.SerializeState());
    }
  }

  // In an empty window, a batch's first accepted arrival pins the
  // dimension for the rest of the batch.
  SlidingWindowOptions options;
  options.window_size = 10;
  options.adaptive_range = true;
  FairCenterSlidingWindow fresh(options, constraint, &kMetric, &kJones);
  EXPECT_EQ(fresh.UpdateBatch({P({1.0}, 0), P({1.0, 2.0}, 0), P({3.0}, 2)})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fresh.now(), 2);
  EXPECT_EQ(fresh.dimension(), 1);
}

TEST(EdgeCaseTest, WindowRejectsBadOptions) {
  SlidingWindowOptions options;
  options.window_size = 0;
  options.adaptive_range = true;
  EXPECT_DEATH(FairCenterSlidingWindow(options, ColorConstraint({1}),
                                       &kMetric, &kJones),
               "window_size");
  options.window_size = 10;
  options.delta = 0.0;
  EXPECT_DEATH(FairCenterSlidingWindow(options, ColorConstraint({1}),
                                       &kMetric, &kJones),
               "delta");
  // A beta below kMinBeta once walked the guess ladder for minutes.
  options.delta = 0.5;
  for (double beta : {kMinBeta / 2, 5e-324,
                      std::numeric_limits<double>::infinity(),
                      std::numeric_limits<double>::quiet_NaN()}) {
    options.beta = beta;
    EXPECT_DEATH(FairCenterSlidingWindow(options, ColorConstraint({1}),
                                         &kMetric, &kJones),
                 "beta");
  }
}

// Create answers every input the constructor would abort on with
// kInvalidArgument, one rejected input per case.
void ExpectCreateRejects(const SlidingWindowOptions& options,
                         const ColorConstraint& constraint,
                         const Metric* metric, const FairCenterSolver* solver,
                         const std::string& what) {
  const auto window =
      FairCenterSlidingWindow::Create(options, constraint, metric, solver);
  ASSERT_FALSE(window.ok()) << what;
  EXPECT_EQ(window.status().code(), StatusCode::kInvalidArgument) << what;
}

SlidingWindowOptions AdaptiveOptions() {
  SlidingWindowOptions options;
  options.window_size = 10;
  options.adaptive_range = true;
  return options;
}

TEST(EdgeCaseTest, CreateRejectsANullMetric) {
  ExpectCreateRejects(AdaptiveOptions(), ColorConstraint({1}), nullptr,
                      &kJones, "null metric");
}

TEST(EdgeCaseTest, CreateRejectsANullSolver) {
  ExpectCreateRejects(AdaptiveOptions(), ColorConstraint({1}), &kMetric,
                      nullptr, "null solver");
}

TEST(EdgeCaseTest, CreateRejectsAConstraintWithNoPositiveCap) {
  ExpectCreateRejects(AdaptiveOptions(), ColorConstraint({0, 0}), &kMetric,
                      &kJones, "all-zero caps");
  ExpectCreateRejects(AdaptiveOptions(), ColorConstraint(), &kMetric, &kJones,
                      "no colors");
}

TEST(EdgeCaseTest, CreateRejectsAZeroWindow) {
  SlidingWindowOptions options = AdaptiveOptions();
  options.window_size = 0;
  ExpectCreateRejects(options, ColorConstraint({1}), &kMetric, &kJones,
                      "window_size 0");
}

TEST(EdgeCaseTest, CreateRejectsANonPositiveDelta) {
  SlidingWindowOptions options = AdaptiveOptions();
  options.delta = 0.0;
  ExpectCreateRejects(options, ColorConstraint({1}), &kMetric, &kJones,
                      "delta 0");
  options.delta = std::numeric_limits<double>::quiet_NaN();
  ExpectCreateRejects(options, ColorConstraint({1}), &kMetric, &kJones,
                      "delta NaN");
}

TEST(EdgeCaseTest, CreateRejectsANonPositiveBeta) {
  SlidingWindowOptions options = AdaptiveOptions();
  options.beta = -1.0;
  ExpectCreateRejects(options, ColorConstraint({1}), &kMetric, &kJones,
                      "beta -1");
}

// A ratio 1 + beta the ladder cannot resolve: 5e-324 reads as a ratio of
// 1, and a rung lookup walked ~2^30 rungs (a checkpoint with that beta
// restored, then hung in its first Update).
TEST(EdgeCaseTest, CreateRejectsABetaBelowTheMinimum) {
  SlidingWindowOptions options = AdaptiveOptions();
  for (double beta : {5e-324, 1e-300, 1e-7}) {
    options.beta = beta;
    ExpectCreateRejects(options, ColorConstraint({1}), &kMetric, &kJones,
                        "beta " + std::to_string(beta));
  }
  options.beta = kMinBeta;
  EXPECT_TRUE(FairCenterSlidingWindow::Create(options, ColorConstraint({1}),
                                              &kMetric, &kJones)
                  .ok());
}

TEST(EdgeCaseTest, CreateRejectsAnUnknownVariant) {
  SlidingWindowOptions options = AdaptiveOptions();
  options.variant = static_cast<CoreVariant>(7);
  ExpectCreateRejects(options, ColorConstraint({1}), &kMetric, &kJones,
                      "variant 7");
}

TEST(EdgeCaseTest, CreateRejectsABadFixedRange) {
  SlidingWindowOptions options = AdaptiveOptions();
  options.adaptive_range = false;
  options.d_min = 0.0;
  options.d_max = 1.0;
  ExpectCreateRejects(options, ColorConstraint({1}), &kMetric, &kJones,
                      "d_min 0");
  options.d_min = 2.0;
  ExpectCreateRejects(options, ColorConstraint({1}), &kMetric, &kJones,
                      "d_max < d_min");
  options.d_min = 1e-300;
  options.d_max = 1e300;
  options.beta = 1e-5;
  ExpectCreateRejects(options, ColorConstraint({1}), &kMetric, &kJones,
                      "ladder past the exponent bound");
}

TEST(EdgeCaseTest, CreateBuildsWhatTheConstructorBuilds) {
  auto created = FairCenterSlidingWindow::Create(
      AdaptiveOptions(), ColorConstraint({1, 1}), &kMetric, &kJones);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  FairCenterSlidingWindow built(AdaptiveOptions(), ColorConstraint({1, 1}),
                                &kMetric, &kJones);
  for (int i = 0; i < 30; ++i) {
    const Coordinates coords = {static_cast<double>(i % 7), 1.0 * i};
    ASSERT_TRUE(created.value().Update(coords, i % 2).ok());
    ASSERT_TRUE(built.Update(coords, i % 2).ok());
  }
  EXPECT_EQ(created.value().SerializeState(), built.SerializeState());
}

TEST(EdgeCaseTest, ColorConstraintCreateRejectsANegativeCap) {
  const auto constraint = ColorConstraint::Create({2, -1, 3});
  ASSERT_FALSE(constraint.ok());
  EXPECT_EQ(constraint.status().code(), StatusCode::kInvalidArgument);
}

TEST(EdgeCaseTest, ColorConstraintCreateRejectsCapsSummingPastIntMax) {
  const auto constraint =
      ColorConstraint::Create({std::numeric_limits<int>::max(), 1});
  ASSERT_FALSE(constraint.ok());
  EXPECT_EQ(constraint.status().code(), StatusCode::kInvalidArgument);
  const auto at_max =
      ColorConstraint::Create({std::numeric_limits<int>::max() - 1, 1});
  ASSERT_TRUE(at_max.ok());
  EXPECT_EQ(at_max.value().TotalK(), std::numeric_limits<int>::max());
}

TEST(EdgeCaseTest, WindowPopulationTracksFill) {
  SlidingWindowOptions options;
  options.window_size = 5;
  options.adaptive_range = true;
  FairCenterSlidingWindow window(options, ColorConstraint({1}), &kMetric,
                                 &kJones);
  EXPECT_EQ(window.WindowPopulation(), 0);
  for (int i = 0; i < 3; ++i) window.Update({static_cast<double>(i)}, 0);
  EXPECT_EQ(window.WindowPopulation(), 3);
  for (int i = 0; i < 10; ++i) window.Update({static_cast<double>(i)}, 0);
  EXPECT_EQ(window.WindowPopulation(), 5);
  EXPECT_EQ(window.now(), 13);
}

TEST(EdgeCaseTest, RepeatedQueriesWithoutUpdatesAreStable) {
  SlidingWindowOptions options;
  options.window_size = 20;
  options.adaptive_range = true;
  FairCenterSlidingWindow window(options, ColorConstraint({1, 1}), &kMetric,
                                 &kJones);
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    window.Update({rng.NextUniform(0, 10)}, i % 2);
  }
  auto first = window.Query();
  auto second = window.Query();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(first.value().radius, second.value().radius);
  EXPECT_EQ(first.value().centers.size(), second.value().centers.size());
}

TEST(EdgeCaseTest, TinyWindowSizeOne) {
  // n = 1: the window is always exactly the latest point.
  SlidingWindowOptions options;
  options.window_size = 1;
  options.adaptive_range = true;
  FairCenterSlidingWindow window(options, ColorConstraint({1}), &kMetric,
                                 &kJones);
  for (double x : {0.0, 100.0, -50.0}) {
    window.Update({x}, 0);
    auto result = window.Query();
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result.value().centers.size(), 1u);
    EXPECT_DOUBLE_EQ(result.value().centers[0].coords[0], x);
  }
}

TEST(EdgeCaseTest, ExtremeAspectRatioStream) {
  // Scales spanning 12 orders of magnitude: the ladder must keep up and the
  // query must keep succeeding.
  SlidingWindowOptions options;
  options.window_size = 30;
  options.adaptive_range = true;
  FairCenterSlidingWindow window(options, ColorConstraint({2}), &kMetric,
                                 &kJones);
  Rng rng(9);
  for (int burst = 0; burst < 6; ++burst) {
    const double scale = std::pow(10.0, 2 * burst);
    for (int i = 0; i < 15; ++i) {
      window.Update({scale * rng.NextUniform(1.0, 2.0)}, 0);
    }
    auto result = window.Query();
    ASSERT_TRUE(result.ok()) << "burst " << burst;
    EXPECT_FALSE(result.value().centers.empty());
  }
}

// --- Driver contract. ---

TEST(EdgeCaseTest, DriverDiesOnExhaustedStream) {
  WindowDriver driver(&kMetric, ColorConstraint({1}), 10);
  driver.AddBaseline("jones", &kJones);
  VectorStream stream({P({1}, 0)}, 1, "tiny", /*cycle=*/false);
  DriverOptions run;
  run.stream_length = 5;
  run.num_queries = 1;
  EXPECT_DEATH(driver.Run(&stream, run), "exhausted");
}

TEST(EdgeCaseTest, DriverRequiresAlgorithms) {
  WindowDriver driver(&kMetric, ColorConstraint({1}), 10);
  VectorStream stream({P({1}, 0)}, 1, "tiny", /*cycle=*/true);
  DriverOptions run;
  run.stream_length = 5;
  run.num_queries = 1;
  EXPECT_DEATH(driver.Run(&stream, run), "algorithms");
}

TEST(EdgeCaseTest, OverflowingDistancesNeitherHangNorAnswerACoincidentWindow) {
  // Phones coordinates scaled by 1e154 overflow nearly every squared
  // distance to +inf; scaled by 1e150 they stay finite but come within a
  // factor of 1e12 of DBL_MAX. Either used to stall the adaptive ladder in
  // GuessLadder::FloorExponent. A window must take all 2,000 arrivals,
  // sequentially and through UpdateBatch on 4 threads, and a query must
  // either fail or answer from a guess: never with the one-point coreset
  // of a window whose points all coincide.
  auto made = datasets::MakeDataset("phones", 2000, /*seed=*/3);
  ASSERT_TRUE(made.ok());
  const ColorConstraint constraint =
      ColorConstraint::Proportional(made.value().points, made.value().ell, 14);
  for (double scale : {1e150, 1e154}) {
    std::vector<Point> points = made.value().points;
    for (Point& p : points) {
      for (double& x : p.coords) x *= scale;
    }
    for (int threads : {1, 4}) {
      SlidingWindowOptions options;
      options.window_size = 500;
      options.adaptive_range = true;
      options.num_threads = threads;
      FairCenterSlidingWindow window(options, constraint, &kMetric, &kJones);
      for (size_t first = 0; first < points.size(); first += 250) {
        const std::vector<Point> chunk(
            points.begin() + static_cast<std::ptrdiff_t>(first),
            points.begin() + static_cast<std::ptrdiff_t>(first + 250));
        if (threads == 1) {
          for (const Point& p : chunk) ASSERT_TRUE(window.Update(p).ok());
        } else {
          ASSERT_TRUE(window.UpdateBatch(chunk).ok());
        }
        QueryStats stats;
        const auto answer = window.Query(&stats);
        if (answer.ok()) {
          EXPECT_GT(stats.guesses_inspected, 0)
              << "scale " << scale << " after " << window.now();
        }
        // At 1e154 the window has witnessed +inf distances, which no radius
        // can cover: every query fails.
        if (scale == 1e154) {
          EXPECT_EQ(answer.status().code(), StatusCode::kOutOfRange);
        }
      }
      EXPECT_EQ(window.now(), 2000);
      const auto restored = FairCenterSlidingWindow::DeserializeState(
          window.SerializeState(), &kMetric, &kJones);
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      EXPECT_EQ(restored.value().SerializeState(), window.SerializeState());
    }
  }
}

}  // namespace
}  // namespace fkc
