// Tests for src/metric: point semantics, metric implementations and axioms,
// ordered SoA scans, and distance extrema / aspect ratio.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
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
  const DistanceExtrema extrema = ComputeDistanceExtrema(kEuclidean, points);
  EXPECT_DOUBLE_EQ(extrema.min_distance, 3.0);
  EXPECT_DOUBLE_EQ(extrema.max_distance, 10.0);
  EXPECT_EQ(extrema.zero_pairs, 1);
}

TEST(AspectRatioTest, DegenerateInputsReturnOne) {
  EXPECT_DOUBLE_EQ(AspectRatio(kEuclidean, {}), 1.0);
  EXPECT_DOUBLE_EQ(AspectRatio(kEuclidean, {P({1})}), 1.0);
  EXPECT_DOUBLE_EQ(AspectRatio(kEuclidean, {P({1}), P({1})}), 1.0);
}

TEST(AspectRatioTest, KnownRatio) {
  std::vector<Point> points = {P({0}), P({1}), P({100})};
  EXPECT_DOUBLE_EQ(AspectRatio(kEuclidean, points), 100.0);
}

TEST(AspectRatioTest, DiameterBruteForce) {
  std::vector<Point> points = {P({0, 0}), P({1, 1}), P({-3, 4})};
  EXPECT_DOUBLE_EQ(Diameter(kEuclidean, points), 5.0);
  EXPECT_DOUBLE_EQ(Diameter(kEuclidean, {}), 0.0);
}

}  // namespace
}  // namespace fkc
