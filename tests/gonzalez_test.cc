// Tests for the Gonzalez farthest-point greedy: selection invariants, the
// classic 2-approximation, and the head-separation properties the fair
// solvers rely on.
#include <gtest/gtest.h>

#include "common/random.h"
#include "metric/metric.h"
#include "sequential/brute_force.h"
#include "sequential/gonzalez.h"
#include "sequential/radius.h"

namespace fkc {
namespace {

const EuclideanMetric kMetric;

Point P(std::initializer_list<double> coords) {
  return Point(Coordinates(coords), 0);
}

std::vector<Point> RandomPoints(int n, int dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  for (int i = 0; i < n; ++i) {
    Coordinates coords(dim);
    for (double& x : coords) x = rng.NextUniform(0, 100);
    points.emplace_back(std::move(coords), 0);
  }
  return points;
}

TEST(GonzalezTest, EmptyAndDegenerateInputs) {
  EXPECT_TRUE(GonzalezKCenter(kMetric, std::vector<Point>{}, 3).head_indices.empty());
  EXPECT_TRUE(GonzalezKCenter(kMetric, {P({1})}, 0).head_indices.empty());
  const auto result = GonzalezKCenter(kMetric, {P({1})}, 5);
  EXPECT_EQ(result.head_indices.size(), 1u);
  EXPECT_EQ(result.coverage_radius, 0.0);
}

TEST(GonzalezTest, PicksExtremesOnALine) {
  // Points 0, 1, 10: first head is index 0, second must be the far end.
  const std::vector<Point> points = {P({0}), P({1}), P({10})};
  const auto result = GonzalezKCenter(kMetric, points, 2);
  ASSERT_EQ(result.head_indices.size(), 2u);
  EXPECT_EQ(result.head_indices[0], 0);
  EXPECT_EQ(result.head_indices[1], 2);
  EXPECT_DOUBLE_EQ(result.coverage_radius, 1.0);
  EXPECT_DOUBLE_EQ(result.insertion_distances[1], 10.0);
}

TEST(GonzalezTest, InsertionDistancesNonIncreasing) {
  const auto points = RandomPoints(200, 3, 7);
  const auto result = GonzalezKCenter(kMetric, points, 20);
  for (size_t j = 2; j < result.insertion_distances.size(); ++j) {
    EXPECT_LE(result.insertion_distances[j],
              result.insertion_distances[j - 1] + 1e-12);
  }
}

TEST(GonzalezTest, HeadsPairwiseSeparated) {
  // Pairwise head distances >= the last insertion distance >= coverage.
  const auto points = RandomPoints(150, 2, 9);
  const auto result = GonzalezKCenter(kMetric, points, 10);
  const auto heads = HeadPoints(points, result);
  const double last_delta = result.insertion_distances.back();
  for (size_t i = 0; i < heads.size(); ++i) {
    for (size_t j = i + 1; j < heads.size(); ++j) {
      EXPECT_GE(kMetric.Distance(heads[i], heads[j]), last_delta - 1e-9);
    }
  }
  EXPECT_GE(last_delta, result.coverage_radius - 1e-9);
}

TEST(GonzalezTest, CoverageRadiusIsExact) {
  const auto points = RandomPoints(100, 2, 11);
  const auto result = GonzalezKCenter(kMetric, points, 5);
  const auto heads = HeadPoints(points, result);
  EXPECT_NEAR(result.coverage_radius, ClusteringRadius(kMetric, points, heads),
              1e-12);
}

class GonzalezApproximationTest : public ::testing::TestWithParam<int> {};

TEST_P(GonzalezApproximationTest, WithinTwiceOptimal) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  std::vector<Point> points;
  for (int i = 0; i < 14; ++i) {
    points.push_back(P({rng.NextUniform(0, 50), rng.NextUniform(0, 50)}));
  }
  for (int k = 1; k <= 4; ++k) {
    const auto greedy = GonzalezKCenter(kMetric, points, k);
    const auto exact = BruteForceKCenter(kMetric, points, k);
    ASSERT_TRUE(exact.ok());
    EXPECT_LE(greedy.coverage_radius, 2.0 * exact.value().radius + 1e-9)
        << "k=" << k << " seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GonzalezApproximationTest,
                         ::testing::Range(1, 16));

TEST(GonzalezTest, AllDuplicatePointsTerminate) {
  const std::vector<Point> points(5, P({3, 3}));
  const auto result = GonzalezKCenter(kMetric, points, 3);
  EXPECT_EQ(result.head_indices.size(), 1u);  // early break: all covered
  EXPECT_DOUBLE_EQ(result.coverage_radius, 0.0);
}

TEST(GonzalezTest, FirstIndexSelectable) {
  const std::vector<Point> points = {P({0}), P({5}), P({10})};
  const auto result = GonzalezKCenter(kMetric, points, 2, /*first_index=*/1);
  EXPECT_EQ(result.head_indices[0], 1);
  // Farthest from 5 is 0 or 10 (distance 5 either way).
  EXPECT_DOUBLE_EQ(result.insertion_distances[1], 5.0);
}

}  // namespace
}  // namespace fkc
