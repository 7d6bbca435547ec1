// Tests for the Gonzalez farthest-point greedy: selection invariants, the
// classic 2-approximation, the head-separation properties the fair solvers
// rely on, and ties that do not depend on the order its scans read a pool.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "common/random.h"
#include "metric/coordinate_pool.h"
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

// Forwards Distance and DistanceSoA only, so its ordered scans are the
// base class's: forward, whatever order the caller asks for.
class ForwardOnlyMetric final : public Metric {
 public:
  double Distance(const Point& a, const Point& b) const override {
    return kMetric.Distance(a, b);
  }
  void DistanceSoA(const Point& p, const CoordinatePool& pool,
                   double* out) const override {
    kMetric.DistanceSoA(p, pool, out);
  }
  std::string Name() const override { return "forward-only"; }
};

TEST(GonzalezTest, TiesGoToTheLowestPositionInEitherScanOrder) {
  // A pool that borrows a three-block column pool (its head mid-block after
  // DropFront) and copies every fourth position, so copied positions
  // interleave with column positions, and skips some columns. Coordinates
  // come from a 3-value grid: many points coincide, and every head leaves
  // many farthest points tied, in both pools and across blocks. Odd heads
  // scan the pool last block first; the heads must still be the
  // lowest-position farthest points, as a forward-only run finds them.
  Rng rng(41);
  const auto grid_point = [&rng](int64_t id) {
    Coordinates coords(3);
    for (double& x : coords) {
      x = static_cast<double>(rng.NextBounded(3)) * 5.0;
    }
    return Point(std::move(coords), 0, id, static_cast<uint64_t>(id));
  };
  CoordinatePool columns(3);
  std::vector<Point> stored;
  for (int64_t id = 0; id < 400; ++id) {
    stored.push_back(grid_point(id));
    columns.Append(stored.back());
  }
  constexpr size_t kDropped = 45;
  columns.DropFront(kDropped);
  stored.erase(stored.begin(), stored.begin() + kDropped);
  ColoredPool::Builder builder(stored.size(), &columns);
  std::vector<Point> points;
  for (size_t e = 0; e < stored.size(); ++e) {
    if (e % 9 == 5) continue;  // a column that is no point of the set
    if (e % 4 == 1) {
      points.push_back(grid_point(1000 + static_cast<int64_t>(e)));
      builder.Add(points.back());
    }
    points.push_back(stored[e]);
    builder.AddColumn(stored[e], e);
  }
  const ColoredPool pool = std::move(builder).Build();
  ASSERT_EQ(pool.borrowed(), &columns);
  ASSERT_GT(pool.copied(), 0u);

  // The greedy over the points in position order: strict > keeps the
  // lowest position among the farthest. Counts the selections with a tie.
  const int k = 27;  // the grid has 27 distinct points
  std::vector<int> heads = {0};
  std::vector<double> insertion = {std::numeric_limits<double>::infinity()};
  std::vector<double> nearest(points.size(),
                              std::numeric_limits<double>::infinity());
  int ties = 0;
  double coverage = 0.0;
  for (int j = 0; j < k; ++j) {
    double best = 0.0;
    int next = -1;
    int at_best = 0;
    for (size_t i = 0; i < points.size(); ++i) {
      nearest[i] = std::min(nearest[i], kMetric.Distance(points[heads[j]],
                                                         points[i]));
      if (nearest[i] > best) {
        best = nearest[i];
        next = static_cast<int>(i);
        at_best = 0;
      }
      at_best += nearest[i] == best ? 1 : 0;
    }
    ties += best > 0.0 && at_best > 1 ? 1 : 0;
    coverage = best;
    if (next == -1) break;
    if (j + 1 < k) {
      heads.push_back(next);
      insertion.push_back(best);
    }
  }
  ASSERT_GT(ties, 4);

  const size_t stride = pool.slot_count();
  std::vector<double> rows(k * stride);
  std::vector<double> forward_rows(k * stride);
  const GonzalezResult result =
      GonzalezKCenter(kMetric, pool, k, 0, nullptr, rows.data());
  const GonzalezResult forward = GonzalezKCenter(
      ForwardOnlyMetric(), pool, k, 0, nullptr, forward_rows.data());
  EXPECT_EQ(result.head_indices, heads);
  EXPECT_EQ(result.insertion_distances, insertion);
  EXPECT_EQ(result.coverage_radius, coverage);
  EXPECT_EQ(forward.head_indices, result.head_indices);
  EXPECT_EQ(forward.insertion_distances, result.insertion_distances);
  EXPECT_EQ(forward.coverage_radius, result.coverage_radius);
  ASSERT_GT(result.head_indices.size(), 2u);
  EXPECT_EQ(std::memcmp(rows.data(), forward_rows.data(),
                        result.head_indices.size() * stride *
                            sizeof(double)),
            0);
}

}  // namespace
}  // namespace fkc
