// Tests for src/metric: point semantics, metric implementations and axioms,
// ordered SoA scans, and distance extrema / aspect ratio.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "common/random.h"
#include "metric/aspect_ratio.h"
#include "metric/coordinate_pool.h"
#include "metric/counting_metric.h"
#include "metric/metric.h"
#include "metric/point.h"

namespace fkc {
namespace {

Point P(std::initializer_list<double> coords, int color = 0) {
  return Point(Coordinates(coords), color);
}

TEST(PointTest, TtlSemantics) {
  Point p({0.0}, 0);
  p.arrival = 10;
  // TTL(p) = n - (now - t(p)).
  EXPECT_EQ(TimeToLive(p, 10, 5), 5);
  EXPECT_EQ(TimeToLive(p, 14, 5), 1);
  EXPECT_EQ(TimeToLive(p, 15, 5), 0);
  EXPECT_EQ(TimeToLive(p, 100, 5), 0);  // clamped at zero
  EXPECT_TRUE(IsActive(p, 14, 5));
  EXPECT_FALSE(IsActive(p, 15, 5));
}

TEST(PointTest, ToStringContainsColorAndArrival) {
  Point p({1.5, -2.0}, 3);
  p.arrival = 42;
  const std::string s = p.ToString();
  EXPECT_NE(s.find("#3"), std::string::npos);
  EXPECT_NE(s.find("@42"), std::string::npos);
}

TEST(PointTest, SamePointComparesIds) {
  Point a({1.0}, 0), b({1.0}, 0);
  a.id = 5;
  b.id = 5;
  EXPECT_TRUE(SamePoint(a, b));
  b.id = 6;
  EXPECT_FALSE(SamePoint(a, b));
}

TEST(MetricTest, EuclideanKnownValues) {
  const EuclideanMetric metric;
  EXPECT_DOUBLE_EQ(metric.Distance(P({0, 0}), P({3, 4})), 5.0);
  EXPECT_DOUBLE_EQ(metric.Distance(P({1}), P({1})), 0.0);
}

TEST(MetricTest, ManhattanKnownValues) {
  const ManhattanMetric metric;
  EXPECT_DOUBLE_EQ(metric.Distance(P({0, 0}), P({3, 4})), 7.0);
}

TEST(MetricTest, ChebyshevKnownValues) {
  const ChebyshevMetric metric;
  EXPECT_DOUBLE_EQ(metric.Distance(P({0, 0}), P({3, 4})), 4.0);
  EXPECT_DOUBLE_EQ(metric.Distance(P({-2, 1}), P({2, 2})), 4.0);
}

// Metric axioms verified on random points for every implementation.
class MetricAxiomsTest : public ::testing::TestWithParam<const Metric*> {};

TEST_P(MetricAxiomsTest, IdentitySymmetryTriangle) {
  const Metric& metric = *GetParam();
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    Coordinates a(4), b(4), c(4);
    for (int d = 0; d < 4; ++d) {
      a[d] = rng.NextUniform(-10, 10);
      b[d] = rng.NextUniform(-10, 10);
      c[d] = rng.NextUniform(-10, 10);
    }
    const Point pa(a, 0), pb(b, 0), pc(c, 0);
    EXPECT_DOUBLE_EQ(metric.Distance(pa, pa), 0.0);
    EXPECT_DOUBLE_EQ(metric.Distance(pa, pb), metric.Distance(pb, pa));
    EXPECT_LE(metric.Distance(pa, pc),
              metric.Distance(pa, pb) + metric.Distance(pb, pc) + 1e-12);
    EXPECT_GE(metric.Distance(pa, pb), 0.0);
  }
}

const EuclideanMetric kEuclidean;
const ManhattanMetric kManhattan;
const ChebyshevMetric kChebyshev;

INSTANTIATE_TEST_SUITE_P(AllMetrics, MetricAxiomsTest,
                         ::testing::Values(&kEuclidean, &kManhattan,
                                           &kChebyshev),
                         [](const auto& info) { return info.param->Name(); });

TEST(MetricTest, DistanceToSetEmptyIsInfinite) {
  EXPECT_TRUE(std::isinf(DistanceToSet(kEuclidean, P({0}), {})));
}

TEST(MetricTest, DistanceToSetPicksClosest) {
  std::vector<Point> pool = {P({0}), P({10}), P({4})};
  EXPECT_DOUBLE_EQ(DistanceToSet(kEuclidean, P({5}), pool), 1.0);
}

TEST(MetricTest, DefaultMetricIsEuclidean) {
  EXPECT_EQ(DefaultMetric().Name(), "euclidean");
}

TEST(MetricTest, OrderedScansEqualTheForwardScanBitForBit) {
  // Pools of one block, one block exactly, just past it and several
  // blocks, plus one whose head sits mid-block after DropFront; each
  // built-in metric at d = 1, 3 and 54. A backward scan visits the blocks
  // last first and must still write every column's distance bit for bit as
  // DistanceSoA does, and a CountingMetric must count it as one.
  const EuclideanMetric euclidean;
  const ManhattanMetric manhattan;
  const ChebyshevMetric chebyshev;
  const Metric* metrics[] = {&euclidean, &manhattan, &chebyshev};
  Rng rng(17);
  for (size_t dim : {1, 3, 54}) {
    for (size_t columns : {1, 127, 128, 129, 300, 301}) {
      CoordinatePool pool(dim);
      for (size_t i = 0; i < columns; ++i) {
        Coordinates coords(dim);
        for (double& x : coords) x = rng.NextUniform(-50.0, 50.0);
        pool.Append(Point(std::move(coords), 0));
      }
      if (columns == 301) pool.DropFront(59);  // 242 left, from mid-block
      Coordinates query(dim);
      for (double& x : query) x = rng.NextUniform(-50.0, 50.0);
      const Point q(std::move(query), 0);
      for (const Metric* metric : metrics) {
        SCOPED_TRACE(metric->Name() + " dim=" + std::to_string(dim) +
                     " columns=" + std::to_string(columns));
        std::vector<double> want(pool.size(), -1.0);
        metric->DistanceSoA(q, pool, want.data());
        for (ScanOrder order : {ScanOrder::kForward, ScanOrder::kBackward}) {
          std::vector<double> got(pool.size(), -2.0);
          metric->DistanceSoAOrdered(q, pool, order, got.data());
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                got.size() * sizeof(double)),
                    0);
          CountingMetric counted(metric);
          CountingMetric counted_forward(metric);
          std::fill(got.begin(), got.end(), -3.0);
          counted.DistanceSoAOrdered(q, pool, order, got.data());
          counted_forward.DistanceSoA(q, pool, want.data());
          EXPECT_EQ(counted.count(), counted_forward.count());
          EXPECT_EQ(counted.count(), static_cast<int64_t>(pool.size()));
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                got.size() * sizeof(double)),
                    0);
        }
      }
    }
  }
}

TEST(MetricTest, BackwardSpansCoverTheForwardSpansInReverse) {
  CoordinatePool pool(2);
  for (int i = 0; i < 300; ++i) pool.Append(P({1.0 * i, -1.0 * i}));
  for (size_t drop : {0, 1, 127, 40}) {
    pool.DropFront(drop);
    std::vector<std::pair<size_t, size_t>> forward;
    std::vector<std::pair<size_t, size_t>> backward;
    pool.ForEachSpan(ScanOrder::kForward,
                     [&](const CoordinatePool::Span& span) {
                       forward.emplace_back(span.first, span.count);
                       EXPECT_EQ(span.data[0], pool.At(span.first, 0));
                     });
    pool.ForEachSpan(ScanOrder::kBackward,
                     [&](const CoordinatePool::Span& span) {
                       backward.emplace_back(span.first, span.count);
                       EXPECT_EQ(span.data[0], pool.At(span.first, 0));
                     });
    std::reverse(backward.begin(), backward.end());
    EXPECT_EQ(backward, forward) << "after dropping " << drop;
  }
}

TEST(AspectRatioTest, ExtremaSkipZeroPairs) {
  std::vector<Point> points = {P({0}), P({0}), P({3}), P({10})};
  const DistanceExtrema extrema =
      ComputeDistanceExtrema(kEuclidean, points).value();
  EXPECT_DOUBLE_EQ(extrema.min_distance, 3.0);
  EXPECT_DOUBLE_EQ(extrema.max_distance, 10.0);
  EXPECT_EQ(extrema.zero_pairs, 1);
}

TEST(AspectRatioTest, DegenerateInputsReturnOne) {
  EXPECT_DOUBLE_EQ(AspectRatio(kEuclidean, {}).value(), 1.0);
  EXPECT_DOUBLE_EQ(AspectRatio(kEuclidean, {P({1})}).value(), 1.0);
  EXPECT_DOUBLE_EQ(AspectRatio(kEuclidean, {P({1}), P({1})}).value(), 1.0);
}

TEST(AspectRatioTest, KnownRatio) {
  std::vector<Point> points = {P({0}), P({1}), P({100})};
  EXPECT_DOUBLE_EQ(AspectRatio(kEuclidean, points).value(), 100.0);
}

TEST(AspectRatioTest, DiameterBruteForce) {
  std::vector<Point> points = {P({0, 0}), P({1, 1}), P({-3, 4})};
  EXPECT_DOUBLE_EQ(Diameter(kEuclidean, points).value(), 5.0);
  EXPECT_DOUBLE_EQ(Diameter(kEuclidean, {}).value(), 0.0);
}

// The pair loop ComputeDistanceExtrema replaced: one Distance call per pair
// i < j, in that argument order. Counts the NaN distances it skips into
// `nan_pairs` when given.
DistanceExtrema PairLoopExtrema(const Metric& metric,
                                const std::vector<Point>& points,
                                int64_t* nan_pairs = nullptr) {
  DistanceExtrema out;
  out.min_distance = std::numeric_limits<double>::infinity();
  out.max_distance = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = i + 1; j < points.size(); ++j) {
      const double d = metric.Distance(points[i], points[j]);
      if (nan_pairs != nullptr && std::isnan(d)) ++*nan_pairs;
      if (d == 0.0) {
        ++out.zero_pairs;
        continue;
      }
      if (d < out.min_distance) out.min_distance = d;
      if (d > out.max_distance) out.max_distance = d;
    }
  }
  return out;
}

// A metric that overrides Distance only, so the walk reaches it through the
// base class's tile and SoA fallbacks. It is not symmetric on purpose (an
// L1 distance plus a tilt when a's first coordinate is the larger): a walk
// that swapped a pair's arguments would fold other values.
class DistanceOnlyMetric final : public Metric {
 public:
  double Distance(const Point& a, const Point& b) const override {
    double sum = 0.0;
    for (size_t i = 0; i < a.coords.size(); ++i) {
      sum += std::fabs(a.coords[i] - b.coords[i]);
    }
    return a.coords[0] > b.coords[0] ? 1.5 * sum : sum;
  }
  std::string Name() const override { return "distance_only"; }
};

enum class ExtremaData { kDuplicates, kSubnormal, kOverflowing, kNonFinite };

// n points of dimension dim: about a quarter repeat an earlier point, and
// the rest are uniform at the data kind's scale. Subnormal coordinates make
// distinct points' Euclidean squares underflow to zero distances; ~1e154
// coordinates overflow Euclidean distances to +inf; non-finite coordinates
// (+-inf, NaN) give +inf and NaN distances.
std::vector<Point> ExtremaPoints(ExtremaData data, size_t dim, size_t n,
                                 Rng* rng) {
  const double scale = data == ExtremaData::kSubnormal     ? 1e-310
                       : data == ExtremaData::kOverflowing ? 1e154
                                                           : 50.0;
  const double specials[] = {std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
  std::vector<Point> points;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && rng->NextBernoulli(0.25)) {
      points.push_back(points[rng->NextBounded(i)]);
      continue;
    }
    Coordinates coords(dim);
    for (double& x : coords) {
      x = scale * rng->NextUniform(-1.0, 1.0);
      if (data == ExtremaData::kNonFinite && rng->NextBernoulli(0.02)) {
        x = specials[rng->NextBounded(3)];
      }
    }
    points.emplace_back(std::move(coords), 0);
  }
  return points;
}

void ExpectSameExtrema(const DistanceExtrema& got,
                       const DistanceExtrema& want) {
  EXPECT_EQ(std::memcmp(&got.min_distance, &want.min_distance,
                        sizeof(double)),
            0)
      << got.min_distance << " vs " << want.min_distance;
  EXPECT_EQ(std::memcmp(&got.max_distance, &want.max_distance,
                        sizeof(double)),
            0)
      << got.max_distance << " vs " << want.max_distance;
  EXPECT_EQ(got.zero_pairs, want.zero_pairs);
}

TEST(AspectRatioTest, TiledWalkEqualsThePairLoopBitForBit) {
  // Sizes at the tile (8 rows) and pool block (128 columns) edges, and the
  // ~2,000-point sample size of the fixed-range set-up; the built-in
  // metrics, a CountingMetric over one, and a Distance-only metric on the
  // base-class fallbacks. Diameter and AspectRatio go through the walk too
  // (below the largest size).
  const CountingMetric counting(&kEuclidean);
  const DistanceOnlyMetric distance_only;
  const Metric* metrics[] = {&kEuclidean, &kManhattan, &kChebyshev, &counting,
                             &distance_only};
  const ExtremaData all_data[] = {ExtremaData::kDuplicates,
                                  ExtremaData::kSubnormal,
                                  ExtremaData::kOverflowing,
                                  ExtremaData::kNonFinite};
  Rng rng(2024);
  int64_t zero_pairs = 0;
  int infinite_max = 0;
  int64_t nan_pairs = 0;
  for (size_t dim : {1, 3, 54}) {
    for (size_t n : {0, 1, 2, 7, 8, 9, 127, 128, 129, 257, 2000}) {
      for (ExtremaData data : all_data) {
        // The largest size once per dimension: the pair loop is slow.
        if (n == 2000 && data != ExtremaData::kDuplicates) continue;
        const std::vector<Point> points = ExtremaPoints(data, dim, n, &rng);
        for (const Metric* metric : metrics) {
          SCOPED_TRACE(metric->Name() + " dim=" + std::to_string(dim) +
                       " n=" + std::to_string(n) + " data=" +
                       std::to_string(static_cast<int>(data)));
          const DistanceExtrema want =
              PairLoopExtrema(*metric, points, &nan_pairs);
          const Result<DistanceExtrema> got =
              ComputeDistanceExtrema(*metric, points);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ExpectSameExtrema(got.value(), want);
          zero_pairs += want.zero_pairs;
          infinite_max += std::isinf(want.max_distance) ? 1 : 0;
          if (n == 2000) continue;  // the walk again, twice
          const double diameter = Diameter(*metric, points).value();
          EXPECT_EQ(std::memcmp(&diameter, &want.max_distance,
                                sizeof(double)),
                    0);
          const double ratio = AspectRatio(*metric, points).value();
          if (want.max_distance > 0.0 && std::isfinite(want.min_distance)) {
            EXPECT_EQ(ratio, want.max_distance / want.min_distance);
          } else {
            EXPECT_EQ(ratio, 1.0);
          }
        }
      }
    }
  }
  // The data reached the cases it is there for.
  EXPECT_GT(zero_pairs, 0);
  EXPECT_GT(infinite_max, 0);
  EXPECT_GT(nan_pairs, 0);
}

TEST(AspectRatioTest, SubnormalDistinctPointsCountAsZeroPairs) {
  // Euclidean squares of subnormal differences underflow to 0: the pair
  // loop counted such distinct points as coincident, and so does the walk.
  const std::vector<Point> points = {P({1e-310}), P({3e-310}), P({5e-310})};
  const DistanceExtrema extrema =
      ComputeDistanceExtrema(kEuclidean, points).value();
  EXPECT_EQ(extrema.zero_pairs, 3);
  EXPECT_TRUE(std::isinf(extrema.min_distance));
  EXPECT_EQ(extrema.max_distance, 0.0);
  ExpectSameExtrema(ComputeDistanceExtrema(kManhattan, points).value(),
                    PairLoopExtrema(kManhattan, points));
}

TEST(AspectRatioTest, ZeroDimensionalPointsAreAllCoincident) {
  const std::vector<Point> points(5, P({}));
  const DistanceExtrema extrema =
      ComputeDistanceExtrema(kEuclidean, points).value();
  EXPECT_EQ(extrema.zero_pairs, 10);
  EXPECT_TRUE(std::isinf(extrema.min_distance));
  EXPECT_EQ(extrema.max_distance, 0.0);
}

TEST(AspectRatioTest, MixedDimensionsAreInvalidArgument) {
  // The odd point first, in the middle of a pool block and last: each is
  // reported, not read past its end.
  std::vector<Point> points;
  for (int i = 0; i < 200; ++i) {
    points.push_back(P({static_cast<double>(i), 1.0, 2.0}));
  }
  for (size_t odd : {size_t{0}, size_t{150}, size_t{199}}) {
    std::vector<Point> mixed = points;
    mixed[odd] = P({7.0});
    const Metric* metrics[] = {&kEuclidean, &kChebyshev};
    for (const Metric* metric : metrics) {
      const Result<DistanceExtrema> extrema =
          ComputeDistanceExtrema(*metric, mixed);
      ASSERT_FALSE(extrema.ok());
      EXPECT_EQ(extrema.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(extrema.status().message().find("mixed dimension"),
                std::string::npos);
      EXPECT_EQ(AspectRatio(*metric, mixed).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(Diameter(*metric, mixed).status().code(),
                StatusCode::kInvalidArgument);
    }
  }
}

}  // namespace
}  // namespace fkc
