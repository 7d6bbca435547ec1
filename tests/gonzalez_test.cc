// Tests for the Gonzalez farthest-point greedy: selection invariants, the
// classic 2-approximation, the head-separation properties the fair solvers
// rely on, ties that do not depend on the order its scans read a pool, and
// heads, per-color tables and Jones solutions equal to those of the loops
// the head-pass kernel replaced (head_pass_reference.h), bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "common/random.h"
#include "covtype_coreset.h"
#include "exact_scan_metric.h"
#include "head_pass_reference.h"
#include "metric/coordinate_pool.h"
#include "metric/metric.h"
#include "sequential/brute_force.h"
#include "sequential/gonzalez.h"
#include "sequential/jones_fair_center.h"
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

// Euclidean, but NaN between a point whose first coordinate is 5 and one
// whose first coordinate is 10 (never between a point and itself).
class NanMetric final : public Metric {
 public:
  double Distance(const Point& a, const Point& b) const override {
    if (a.coords[0] + b.coords[0] == 15.0) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    return kMetric.Distance(a, b);
  }
  std::string Name() const override { return "nan"; }
};

// A point on the grid {0, 5, 10}^3 (or {-1e308, 0, 1e308}^3, where most
// distances overflow to +inf), of a color below ell - 1: color ell - 1
// has no member.
Point GridPoint(Rng* rng, int ell, int64_t id, bool overflow) {
  Coordinates coords(3);
  for (double& x : coords) {
    const double step = static_cast<double>(rng->NextBounded(3));
    x = overflow ? (step - 1.0) * 1e308 : step * 5.0;
  }
  return Point(std::move(coords), static_cast<int>(rng->NextBounded(ell - 1)),
               id, static_cast<uint64_t>(id));
}

// One pool the head-pass tests run on, with the column pool it may borrow.
struct HeadPassPool {
  std::string name;
  const Metric* metric;
  int ell;
  std::unique_ptr<CoordinatePool> columns;
  ColoredPool pool;
};

// A pool that borrows a three-block column pool (its head mid-block after
// DropFront), skips every ninth column, so those are no point of the set,
// and copies a point before every fourth column: grid distances tie
// between borrowed and copied slots, whose slot order is not their
// positions'.
HeadPassPool BorrowingGridPool(const Metric* metric, int ell, bool overflow,
                               uint64_t seed) {
  Rng rng(seed);
  HeadPassPool out{std::string("borrowing grid") +
                       (overflow ? " overflow " : " ") + metric->Name(),
                   metric, ell, std::make_unique<CoordinatePool>(3),
                   ColoredPool()};
  std::vector<Point> stored;
  for (int64_t id = 0; id < 400; ++id) {
    stored.push_back(GridPoint(&rng, ell, id, overflow));
    out.columns->Append(stored.back());
  }
  constexpr size_t kDropped = 45;
  out.columns->DropFront(kDropped);
  stored.erase(stored.begin(), stored.begin() + kDropped);
  ColoredPool::Builder builder(stored.size(), out.columns.get());
  std::vector<Point> copies;  // read at Build
  copies.reserve(stored.size());
  for (size_t e = 0; e < stored.size(); ++e) {
    if (e % 9 == 5) continue;
    if (e % 4 == 1) {
      copies.push_back(
          GridPoint(&rng, ell, 1000 + static_cast<int64_t>(e), overflow));
      builder.Add(copies.back());
    }
    builder.AddColumn(stored[e], e);
  }
  out.pool = std::move(builder).Build();
  return out;
}

std::vector<HeadPassPool> HeadPassPools() {
  static const NanMetric kNan;
  std::vector<HeadPassPool> pools;
  pools.push_back(BorrowingGridPool(&kMetric, 4, false, 41));
  pools.push_back(BorrowingGridPool(&kMetric, 3, true, 42));
  pools.push_back(BorrowingGridPool(&kNan, 4, false, 43));
  // Owned pools around the vector widths.
  for (size_t n : {1u, 7u, 8u, 9u, 129u}) {
    Rng rng(n);
    std::vector<Point> points;
    for (size_t i = 0; i < n; ++i) {
      points.push_back(GridPoint(&rng, 3, static_cast<int64_t>(i), false));
    }
    pools.push_back({"owned grid of " + std::to_string(n), &kMetric, 3,
                     nullptr, ColoredPool::FromPoints(points)});
  }
  // Every point coincides: the first head leaves no next one.
  pools.push_back({"coincident", &kMetric, 2, nullptr,
                   ColoredPool::FromPoints(std::vector<Point>(
                       20, Point(Coordinates{1.0, 2.0, 3.0}, 0)))});
  // Behind a decorator, so the traversal reads exact rows (a float32
  // shadow's rows are not the exact ones; shadow_gonzalez_test diffs that
  // path's answers).
  static const ExactScanMetric kExact(&kMetric);
  CovtypeCoreset& covtype = Covtype();
  pools.push_back({"covtype dense-guess coreset", &kExact,
                   covtype.dataset.ell, nullptr,
                   covtype.guess.CoresetPool(covtype.arena)});
  return pools;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(HeadPassTest, GonzalezMatchesTheReferenceLoops) {
  for (const HeadPassPool& c : HeadPassPools()) {
    const size_t stride = c.pool.slot_count();
    for (int k : {1, 5, 27}) {
      SCOPED_TRACE(c.name + " k=" + std::to_string(k));
      const reference::Traversal want =
          reference::Gonzalez(*c.metric, c.pool, k, 0, c.ell);
      std::vector<double> rows(std::min<size_t>(k, c.pool.size()) * stride);
      std::vector<std::vector<double>> distances;
      std::vector<std::vector<int>> indices;
      const GonzalezResult got = GonzalezKCenter(
          *c.metric, c.pool, k, 0,
          [&](const GonzalezHead& head) {
            distances.emplace_back(head.color_distance,
                                   head.color_distance + c.ell);
            indices.emplace_back(head.color_index, head.color_index + c.ell);
            return true;
          },
          rows.data(), c.ell);
      ASSERT_EQ(got.head_indices, want.heads);
      ASSERT_EQ(got.insertion_distances.size(), want.insertion.size());
      for (size_t j = 0; j < want.heads.size(); ++j) {
        SCOPED_TRACE("head " + std::to_string(j));
        EXPECT_TRUE(SameBits(got.insertion_distances[j], want.insertion[j]));
        EXPECT_TRUE(SameBits(distances[j], want.color_distance[j]));
        EXPECT_EQ(indices[j], want.color_index[j]);
        EXPECT_EQ(std::memcmp(rows.data() + j * stride, want.rows[j].data(),
                              stride * sizeof(double)),
                  0);
      }
      EXPECT_TRUE(SameBits(got.coverage_radius, want.coverage));
      // Without a table the heads are the same.
      const GonzalezResult plain = GonzalezKCenter(*c.metric, c.pool, k);
      EXPECT_EQ(plain.head_indices, want.heads);
      EXPECT_TRUE(SameBits(plain.coverage_radius, want.coverage));
    }
  }
}

TEST(HeadPassTest, GonzalezTablesCoverEqualTiesAndEmptyColors) {
  // The cases above must reach what they are there for: ties in a color's
  // nearest point between slots in reverse position order, a color with no
  // member, and +inf and NaN distances.
  const HeadPassPool grid = BorrowingGridPool(&kMetric, 4, false, 41);
  const reference::Traversal t =
      reference::Gonzalez(*grid.metric, grid.pool, 27, 0, grid.ell);
  int reversed_ties = 0;
  for (size_t j = 0; j < t.heads.size(); ++j) {
    EXPECT_EQ(t.color_index[j][grid.ell - 1], -1);
    for (int c = 0; c + 1 < grid.ell; ++c) {
      const int best = t.color_index[j][c];
      for (size_t i = static_cast<size_t>(best) + 1; i < grid.pool.size();
           ++i) {
        if (grid.pool.color(i) == c &&
            t.rows[j][grid.pool.slot(i)] == t.color_distance[j][c] &&
            grid.pool.slot(i) < grid.pool.slot(best)) {
          ++reversed_ties;
        }
      }
    }
  }
  EXPECT_GT(reversed_ties, 10);
  const HeadPassPool overflow = BorrowingGridPool(&kMetric, 3, true, 42);
  const reference::Traversal o =
      reference::Gonzalez(kMetric, overflow.pool, 27, 0, overflow.ell);
  EXPECT_EQ(o.insertion[1], std::numeric_limits<double>::infinity());
  static const NanMetric kNan;
  const HeadPassPool nan = BorrowingGridPool(&kNan, 4, false, 43);
  const reference::Traversal n =
      reference::Gonzalez(kNan, nan.pool, 27, 0, nan.ell);
  size_t nan_entries = 0;
  for (const auto& row : n.rows) {
    for (double d : row) nan_entries += std::isnan(d) ? 1 : 0;
  }
  EXPECT_GT(nan_entries, 100u);
}

TEST(HeadPassTest, RadiusFromRowsMatchesTheReferenceFold) {
  for (const HeadPassPool& c : HeadPassPools()) {
    SCOPED_TRACE(c.name);
    // Rows of up to nine points, every seventh position, folded 0 to 9 at
    // a time.
    const size_t stride = c.pool.slot_count();
    const size_t centers = std::min<size_t>(9, c.pool.size());
    std::vector<std::vector<double>> rows(centers,
                                          std::vector<double>(stride));
    std::vector<const double*> row_ptrs;
    for (size_t r = 0; r < centers; ++r) {
      c.pool.DistanceRow(*c.metric, c.pool.At(r * 7 % c.pool.size()),
                         rows[r].data());
      row_ptrs.push_back(rows[r].data());
    }
    for (size_t used = 0; used <= centers; ++used) {
      const std::vector<const double*> some(row_ptrs.begin(),
                                            row_ptrs.begin() + used);
      EXPECT_TRUE(SameBits(ClusteringRadiusFromRows(c.pool, some),
                           reference::RadiusFromRows(c.pool, some)))
          << used << " rows";
    }
  }
}

TEST(HeadPassTest, JonesSolvePoolMatchesTheReferenceLoops) {
  for (const HeadPassPool& c : HeadPassPools()) {
    SCOPED_TRACE(c.name);
    std::vector<int> caps(c.ell);
    for (int color = 0; color < c.ell; ++color) caps[color] = 1 + color % 3;
    const ColorConstraint constraint =
        c.name == "covtype dense-guess coreset" ? Covtype().constraint
                                                : ColorConstraint(caps);
    const auto got = JonesFairCenter().SolvePool(*c.metric, c.pool,
                                                  constraint);
    const auto want = reference::Jones(*c.metric, c.pool, constraint);
    ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString();
    if (!got.ok()) {
      EXPECT_EQ(got.status().code(), want.status().code());
      continue;
    }
    EXPECT_TRUE(SameBits(got.value().radius, want.value().radius))
        << got.value().radius << " vs " << want.value().radius;
    ASSERT_EQ(got.value().centers.size(), want.value().centers.size());
    for (size_t i = 0; i < want.value().centers.size(); ++i) {
      const Point& a = got.value().centers[i];
      const Point& b = want.value().centers[i];
      EXPECT_EQ(a.id, b.id) << "center " << i;
      EXPECT_EQ(a.color, b.color) << "center " << i;
      EXPECT_EQ(a.arrival, b.arrival) << "center " << i;
      EXPECT_EQ(a.coords, b.coords) << "center " << i;
    }
  }
}

}  // namespace
}  // namespace fkc
