// Tests for the Corollary-2 preset (ValidationOnlyOptions): configuration,
// quality, fairness, and the space advantage over the full algorithm in
// higher-dimensional data.
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/fair_center_sliding_window.h"
#include "metric/metric.h"
#include "sequential/brute_force.h"
#include "sequential/jones_fair_center.h"
#include "sequential/radius.h"
#include "stream/reference_window.h"

namespace fkc {
namespace {

const EuclideanMetric kMetric;
const JonesFairCenter kJones;

SlidingWindowOptions BaseOptions(int64_t window_size) {
  SlidingWindowOptions options;
  options.window_size = window_size;
  options.beta = 2.0;
  options.d_min = 0.05;
  options.d_max = 2000.0;
  return options;
}

TEST(ValidationOnlyPresetTest, ForcesValidationOnlyVariant) {
  FairCenterSlidingWindow lite(ValidationOnlyOptions(BaseOptions(10)),
                               ColorConstraint({1, 1}), &kMetric, &kJones);
  EXPECT_EQ(lite.options().variant, CoreVariant::kValidationOnly);
  EXPECT_DOUBLE_EQ(lite.options().delta, 4.0);
}

TEST(ValidationOnlyPresetTest, SolutionsFeasibleAndNonEmpty) {
  const ColorConstraint constraint({2, 1});
  FairCenterSlidingWindow lite(ValidationOnlyOptions(BaseOptions(50)),
                               constraint, &kMetric, &kJones);
  Rng rng(3);
  for (int t = 0; t < 200; ++t) {
    lite.Update({rng.NextUniform(0, 100), rng.NextUniform(0, 100)},
                static_cast<int>(rng.NextBounded(2)));
    if (t > 20 && t % 25 == 0) {
      auto result = lite.Query();
      ASSERT_TRUE(result.ok());
      EXPECT_FALSE(result.value().centers.empty());
      EXPECT_TRUE(constraint.IsFeasible(result.value().centers));
    }
  }
}

TEST(ValidationOnlyPresetTest, ConstantFactorOnSolvableInstances) {
  // Corollary 2 guarantees 31 + O(eps); verify a loose constant factor
  // against brute-force optima on tiny windows.
  const ColorConstraint constraint({1, 1});
  SlidingWindowOptions options = BaseOptions(12);
  options.beta = 0.5;
  FairCenterSlidingWindow lite(ValidationOnlyOptions(options), constraint,
                               &kMetric, &kJones);
  ReferenceWindow truth(12);
  Rng rng(11);
  for (int t = 0; t < 60; ++t) {
    Point p({rng.NextUniform(0, 100), rng.NextUniform(0, 100)},
            static_cast<int>(rng.NextBounded(2)));
    p.arrival = t + 1;
    truth.Update(p);
    lite.Update(p);
    if (t < 20 || t % 9 != 0) continue;
    auto streaming = lite.Query();
    ASSERT_TRUE(streaming.ok());
    auto exact = BruteForceFairCenter(kMetric, truth.Snapshot(), constraint);
    ASSERT_TRUE(exact.ok());
    const double radius =
        ClusteringRadius(kMetric, truth.Snapshot(), streaming.value().centers);
    EXPECT_LE(radius, 35.0 * exact.value().radius + 1e-9) << "t=" << t;
  }
}

TEST(ValidationOnlyPresetTest, NoCoresetStructuresAllocated) {
  FairCenterSlidingWindow lite(ValidationOnlyOptions(BaseOptions(30)),
                               ColorConstraint({1, 1}), &kMetric, &kJones);
  Rng rng(5);
  for (int t = 0; t < 100; ++t) {
    lite.Update({rng.NextUniform(0, 100)}, static_cast<int>(t % 2));
  }
  const MemoryStats memory = lite.Memory();
  EXPECT_EQ(memory.c_attractors, 0);
  EXPECT_EQ(memory.c_representatives, 0);
  EXPECT_GT(memory.v_representatives, 0);
}

TEST(ValidationOnlyPresetTest, UsesLessMemoryThanSmallDeltaFull) {
  // In moderate dimension the full algorithm's coreset at delta = 0.5 packs
  // many c-attractors; the Lite variant keeps only O(k) points per guess.
  const ColorConstraint constraint = ColorConstraint::Uniform(3, 2);
  SlidingWindowOptions options = BaseOptions(300);
  options.delta = 0.5;
  FairCenterSlidingWindow full(options, constraint, &kMetric, &kJones);
  FairCenterSlidingWindow lite(ValidationOnlyOptions(BaseOptions(300)),
                               constraint, &kMetric, &kJones);

  Rng rng(13);
  for (int t = 0; t < 900; ++t) {
    Coordinates coords(5);
    for (double& x : coords) x = rng.NextUniform(0, 200);
    const int color = static_cast<int>(rng.NextBounded(3));
    Point p(coords, color);
    full.Update(p);
    lite.Update(std::move(p));
  }
  EXPECT_LT(lite.Memory().TotalPoints(), full.Memory().TotalPoints());
}

}  // namespace
}  // namespace fkc
