// Bit-identity and invariant tests for the SoA distance engine: every
// compiled SIMD kernel set must reproduce the scalar reference — and the
// virtual per-pair Distance — bit for bit (lane-per-pair contract, see
// simd_kernels.h), across awkward dimensions, counts that straddle vector
// widths, and subnormal coordinates; every tile kernel must reproduce its
// set's single-row kernel for every row count; every bounded kernel must be
// exact within its bound and out of range beyond it; and the CoordinatePool
// must hold its block invariants under arbitrary append/drop-front churn
// and after a bulk build, never moving a stored coordinate. Every head-pass
// kernel must reproduce the loops it replaced (tests/head_pass_reference.h)
// on rows with ties, +inf, NaN, slots that are no point of the set and
// colors with no member.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "head_pass_reference.h"
#include "metric/coordinate_pool.h"
#include "metric/counting_metric.h"
#include "metric/metric.h"
#include "metric/simd_kernels.h"

namespace fkc {
namespace {

std::vector<Point> RandomPoints(size_t count, size_t dim, Rng* rng,
                                double lo = -100.0, double hi = 100.0) {
  std::vector<Point> points;
  points.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Coordinates coords(dim);
    for (size_t d = 0; d < dim; ++d) coords[d] = rng->NextUniform(lo, hi);
    points.emplace_back(std::move(coords), 0);
  }
  return points;
}

CoordinatePool PoolOf(const std::vector<Point>& points, size_t dim) {
  CoordinatePool pool(dim);
  for (const Point& p : points) pool.Append(p);
  return pool;
}

// Runs an exact kernel over every block of `pool`, as the built-in metrics
// do: one call per block, writing at the block's offset in `out`.
void ScanPool(simd::DistanceKernel kernel, const Point& query,
              const CoordinatePool& pool, double* out) {
  pool.ForEachSpan([&](const CoordinatePool::Span& span) {
    kernel(query.coords.data(), span.data, CoordinatePool::kRowStride,
           pool.dim(), span.count, out + span.first);
  });
}

// The same for a bounded kernel, with the cutoff computed once per scan.
void ScanPoolWithin(simd::BoundedDistanceKernel kernel, double cutoff,
                    const Point& query, const CoordinatePool& pool,
                    double* out) {
  pool.ForEachSpan([&](const CoordinatePool::Span& span) {
    kernel(query.coords.data(), span.data, CoordinatePool::kRowStride,
           pool.dim(), span.count, cutoff, out + span.first);
  });
}

// Runs `kernel` and the scalar reference over the same pool and requires the
// outputs to be bit-identical (memcmp, not epsilon).
void ExpectKernelMatchesScalar(simd::DistanceKernel kernel,
                               simd::DistanceKernel scalar_kernel,
                               const Point& query, const CoordinatePool& pool,
                               const char* set_name, const char* metric_name) {
  const size_t count = pool.size();
  std::vector<double> got(count, -1.0), want(count, -1.0);
  ScanPool(scalar_kernel, query, pool, want.data());
  ScanPool(kernel, query, pool, got.data());
  for (size_t i = 0; i < count; ++i) {
    EXPECT_EQ(want[i], got[i])
        << set_name << "/" << metric_name << " diverged at pair " << i
        << " (dim=" << pool.dim() << ", count=" << count << ")";
  }
  EXPECT_EQ(std::memcmp(want.data(), got.data(), count * sizeof(double)), 0)
      << set_name << "/" << metric_name << " not bit-identical";
}

// The norms' names, in simd::Norm order.
constexpr const char* kNormNames[simd::kNormCount] = {"euclidean",
                                                      "manhattan",
                                                      "chebyshev"};

// Every norm's exact kernel of `set` against the scalar reference's.
void ExpectSetMatchesScalar(const simd::KernelSet& set, const Point& query,
                            const CoordinatePool& pool) {
  for (size_t m = 0; m < simd::kNormCount; ++m) {
    ExpectKernelMatchesScalar(set.norm[m].exact,
                              simd::ScalarKernels().norm[m].exact, query,
                              pool, set.name, kNormNames[m]);
  }
}

// Runs a tile kernel over every block of `pool` for all `queries` at once,
// as the built-in metrics do: row r of `out` starts at out + r * out_stride.
void ScanPoolTile(simd::TileKernel kernel, const std::vector<Point>& queries,
                  const CoordinatePool& pool, size_t out_stride, double* out) {
  std::vector<const double*> rows;
  for (const Point& q : queries) rows.push_back(q.coords.data());
  pool.ForEachSpan([&](const CoordinatePool::Span& span) {
    kernel(rows.data(), rows.size(), span.data, CoordinatePool::kRowStride,
           pool.dim(), span.count, out_stride, out + span.first);
  });
}

// Runs the bounded kernel of metric `m` in `set` and checks its contract
// against the scalar exact kernel: a lane whose exact distance is <= bound
// comes back bit-identical, any other lane !(<= bound). Returns the number
// of lanes that differ from the exact distance (abandoned ones).
size_t ExpectBoundedScanHonorsContract(const simd::KernelSet& set, size_t m,
                                       const Point& query,
                                       const CoordinatePool& pool,
                                       double bound) {
  const char* name = kNormNames[m];
  const size_t count = pool.size();
  std::vector<double> exact(count, -1.0), got(count, -1.0);
  ScanPool(simd::ScalarKernels().norm[m].exact, query, pool, exact.data());
  ScanPoolWithin(set.norm[m].within,
                 simd::CutoffOf(static_cast<simd::Norm>(m), bound), query,
                 pool, got.data());
  size_t abandoned = 0;
  for (size_t i = 0; i < count; ++i) {
    if (exact[i] <= bound) {
      EXPECT_EQ(std::memcmp(&exact[i], &got[i], sizeof(double)), 0)
          << set.name << "/" << name << " in-range pair " << i
          << " not exact: " << got[i] << " vs " << exact[i] << " (dim="
          << pool.dim() << ", count=" << count << ", bound=" << bound << ")";
    } else {
      EXPECT_FALSE(got[i] <= bound)
          << set.name << "/" << name << " out-of-range pair " << i
          << " came back in range: " << got[i] << " (exact " << exact[i]
          << ", bound=" << bound << ")";
    }
    if (std::memcmp(&exact[i], &got[i], sizeof(double)) != 0) ++abandoned;
  }
  return abandoned;
}

// Every compiled kernel set the running CPU supports.
std::vector<const simd::KernelSet*> SupportedSets() {
  std::vector<const simd::KernelSet*> sets;
  for (const simd::KernelSet* set : simd::CompiledKernelSets()) {
    if (simd::CpuSupports(*set)) sets.push_back(set);
  }
  return sets;
}

// The widest tile of any supported set, plus one: every row count up to
// this runs a full tile and a remainder tile on some set.
size_t TileRowsPlusOne() {
  size_t rows = 0;
  for (const simd::KernelSet* set : SupportedSets()) {
    rows = std::max(rows, set->tile_rows);
  }
  return rows + 1;
}

// For every supported set and metric, and every row count in [1, rows]:
// the tile kernel over the first `rows` queries returns, row by row, the
// set's single-row kernel bit for bit, and writes nothing past the pool's
// columns in any output row.
void ExpectTilesMatchSingleRows(const std::vector<Point>& queries,
                                const CoordinatePool& pool,
                                const std::string& where) {
  constexpr double kUnwritten = -7.0;
  const size_t n = pool.size();
  const size_t stride = n + 3;
  for (const simd::KernelSet* set : SupportedSets()) {
    for (size_t m = 0; m < simd::kNormCount; ++m) {
      const simd::NormKernels& kernels = set->norm[m];
      std::vector<std::vector<double>> single(queries.size());
      for (size_t r = 0; r < queries.size(); ++r) {
        single[r].assign(n, -1.0);
        ScanPool(kernels.exact, queries[r], pool, single[r].data());
      }
      for (size_t rows = 1; rows <= queries.size(); ++rows) {
        const std::vector<Point> tile(queries.begin(),
                                      queries.begin() + rows);
        std::vector<double> got(rows * stride, kUnwritten);
        ScanPoolTile(kernels.tile, tile, pool, stride, got.data());
        for (size_t r = 0; r < rows; ++r) {
          EXPECT_EQ(std::memcmp(single[r].data(), got.data() + r * stride,
                                n * sizeof(double)),
                    0)
              << set->name << "/" << kNormNames[m] << " row " << r << " of "
              << rows << " diverged (dim=" << pool.dim() << ", count=" << n
              << where << ")";
          for (size_t i = n; i < stride; ++i) {
            EXPECT_EQ(got[r * stride + i], kUnwritten)
                << set->name << "/" << kNormNames[m] << " row " << r
                << " wrote past the pool (count=" << n << where << ")";
          }
        }
      }
    }
  }
}

// The address of every stored coordinate, through the block spans: entry
// pos * dim() + d is coordinate d of position pos.
std::vector<const double*> CoordAddresses(const CoordinatePool& pool) {
  std::vector<const double*> addresses(pool.size() * pool.dim());
  pool.ForEachSpan([&](const CoordinatePool::Span& span) {
    for (size_t i = 0; i < span.count; ++i) {
      for (size_t d = 0; d < pool.dim(); ++d) {
        addresses[(span.first + i) * pool.dim() + d] =
            span.data + d * CoordinatePool::kRowStride + i;
      }
    }
  });
  return addresses;
}

TEST(SimdKernelTest, ScalarSetIsAlwaysPresentAndActiveIsSupported) {
  const auto sets = simd::CompiledKernelSets();
  ASSERT_FALSE(sets.empty());
  EXPECT_EQ(sets[0], &simd::ScalarKernels());
  EXPECT_TRUE(simd::CpuSupports(simd::ScalarKernels()));
  EXPECT_TRUE(simd::CpuSupports(simd::ActiveKernels()));
  EXPECT_GE(simd::ActiveKernels().lanes, 1u);
}

TEST(SimdKernelTest, CompiledSetsMatchScalarBitForBit) {
  const size_t dims[] = {1, 3, 7, 53};
  // Counts straddling every vector width: below, at, and just past 4 (AVX2)
  // and 8 (AVX-512) lane boundaries, plus larger ragged tails.
  const size_t counts[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100};
  Rng rng(123);
  for (size_t dim : dims) {
    for (size_t count : counts) {
      const auto stored = RandomPoints(count, dim, &rng);
      const auto pool = PoolOf(stored, dim);
      const Point query = RandomPoints(1, dim, &rng)[0];
      for (const simd::KernelSet* set : simd::CompiledKernelSets()) {
        if (!simd::CpuSupports(*set)) continue;
        ExpectSetMatchesScalar(*set, query, pool);
      }
    }
  }
}

TEST(SimdKernelTest, SubnormalCoordinatesStayBitIdentical) {
  // Differences in the subnormal range: vector units must not flush to zero
  // (no DAZ/FTZ in a standard build) and must round exactly like the scalar
  // path.
  const size_t dim = 7, count = 13;
  const double tiny = std::numeric_limits<double>::denorm_min();
  Rng rng(77);
  CoordinatePool pool(dim);
  std::vector<Point> stored;
  for (size_t i = 0; i < count; ++i) {
    Coordinates coords(dim);
    for (size_t d = 0; d < dim; ++d) {
      coords[d] = static_cast<double>(rng.NextBounded(1000)) * tiny;
    }
    stored.emplace_back(std::move(coords), 0);
    pool.Append(stored.back());
  }
  Coordinates query_coords(dim);
  for (size_t d = 0; d < dim; ++d) {
    query_coords[d] = static_cast<double>(rng.NextBounded(1000)) * tiny;
  }
  const Point query(std::move(query_coords), 0);
  for (const simd::KernelSet* set : simd::CompiledKernelSets()) {
    if (!simd::CpuSupports(*set)) continue;
    ExpectSetMatchesScalar(*set, query, pool);
  }
}

TEST(SimdKernelTest, DistanceSoAMatchesVirtualDistanceBitForBit) {
  const EuclideanMetric euclidean;
  const ManhattanMetric manhattan;
  const ChebyshevMetric chebyshev;
  const Metric* metrics[] = {&euclidean, &manhattan, &chebyshev};
  Rng rng(31);
  for (size_t dim : {1u, 3u, 16u, 53u}) {
    for (size_t count : {1u, 5u, 9u, 40u}) {
      const auto stored = RandomPoints(count, dim, &rng);
      const auto pool = PoolOf(stored, dim);
      const Point query = RandomPoints(1, dim, &rng)[0];
      for (const Metric* metric : metrics) {
        std::vector<double> soa(count, -1.0);
        metric->DistanceSoA(query, pool, soa.data());
        for (size_t i = 0; i < count; ++i) {
          EXPECT_EQ(metric->Distance(query, stored[i]), soa[i])
              << metric->Name() << " dim=" << dim << " pair " << i;
        }
      }
    }
  }
}

TEST(SimdKernelTest, GenericMetricFallbackGathersColumns) {
  // A metric that overrides nothing but Distance must still get correct SoA
  // results through the base-class gather path.
  class HalfEuclidean final : public Metric {
   public:
    double Distance(const Point& a, const Point& b) const override {
      return 0.5 * base_.Distance(a, b);
    }
    std::string Name() const override { return "half"; }

   private:
    EuclideanMetric base_;
  };
  const HalfEuclidean metric;
  Rng rng(9);
  const auto stored = RandomPoints(11, 5, &rng);
  const auto pool = PoolOf(stored, 5);
  const Point query = RandomPoints(1, 5, &rng)[0];
  std::vector<double> out(stored.size(), -1.0);
  metric.DistanceSoA(query, pool, out.data());
  for (size_t i = 0; i < stored.size(); ++i) {
    EXPECT_EQ(metric.Distance(query, stored[i]), out[i]);
  }
}

TEST(SimdKernelTest, CountingMetricCountsOnePerPairOnSoA) {
  const EuclideanMetric inner;
  CountingMetric counting(&inner);
  Rng rng(5);
  const auto stored = RandomPoints(17, 4, &rng);
  const auto pool = PoolOf(stored, 4);
  const Point query = RandomPoints(1, 4, &rng)[0];
  std::vector<double> out(stored.size());
  counting.DistanceSoA(query, pool, out.data());
  EXPECT_EQ(counting.count(), 17);
  counting.DistanceSoA(query, pool, out.data());
  EXPECT_EQ(counting.count(), 34);
  for (size_t i = 0; i < stored.size(); ++i) {
    EXPECT_EQ(inner.Distance(query, stored[i]), out[i]);
  }
}

TEST(SimdKernelTest, TileKernelsMatchSingleRowKernelsBitForBit) {
  // Row counts from 1 to one past the widest tile (a remainder tile on
  // every set), counts around the lane widths and the block edge.
  const size_t counts[] = {1,  2,  3,  4,   5,   7,   8,   9,
                           15, 16, 17, 31,  33,  127, 128, 129, 300};
  Rng rng(2718);
  for (size_t dim : {1u, 3u, 54u}) {
    for (size_t count : counts) {
      const auto pool = PoolOf(RandomPoints(count, dim, &rng), dim);
      ExpectTilesMatchSingleRows(RandomPoints(TileRowsPlusOne(), dim, &rng),
                                 pool, "");
    }
  }
}

TEST(SimdKernelTest, TileKernelsMatchOnMidBlockHead) {
  // A multi-block pool whose head sits inside the front block after
  // DropFront, and a one-block pool whose live span is the last 9 lanes of
  // the block: the widest over-read of each tile reaches the end of the
  // row slack (and, on the last row, of the block's allocation).
  constexpr size_t kLanes = CoordinatePool::kBlockLanes;
  Rng rng(1618);
  for (size_t dim : {1u, 3u, 54u}) {
    for (size_t head : {size_t{1}, kLanes / 2 + 3, kLanes - 1}) {
      CoordinatePool pool = PoolOf(RandomPoints(3 * kLanes + 11, dim, &rng),
                                   dim);
      pool.DropFront(head);
      ExpectTilesMatchSingleRows(RandomPoints(TileRowsPlusOne(), dim, &rng),
                                 pool, ", head=" + std::to_string(head));
    }
    CoordinatePool tail = PoolOf(RandomPoints(kLanes, dim, &rng), dim);
    tail.DropFront(kLanes - 9);
    ExpectTilesMatchSingleRows(RandomPoints(TileRowsPlusOne(), dim, &rng),
                               tail, ", 9-lane tail");
  }
}

TEST(SimdKernelTest, TileKernelsOnSubnormalDuplicateAndEmptyInputs) {
  const size_t dim = 7;
  Rng rng(99);
  // Subnormal differences: no flush to zero, the same rounding as one row.
  const double tiny = std::numeric_limits<double>::denorm_min();
  const auto subnormal = [&](size_t count) {
    std::vector<Point> points;
    for (size_t i = 0; i < count; ++i) {
      Coordinates coords(dim);
      for (double& x : coords) {
        x = static_cast<double>(rng.NextBounded(1000)) * tiny;
      }
      points.emplace_back(std::move(coords), 0);
    }
    return points;
  };
  ExpectTilesMatchSingleRows(subnormal(TileRowsPlusOne()),
                             PoolOf(subnormal(21), dim), ", subnormal");

  // Duplicates: repeated queries, and queries stored in the pool (whose
  // distance must come back exactly 0).
  std::vector<Point> stored = RandomPoints(40, dim, &rng);
  std::vector<Point> queries = {stored[3], stored[3], stored[17]};
  while (queries.size() < TileRowsPlusOne()) queries.push_back(stored[39]);
  stored.push_back(stored[3]);
  const CoordinatePool pool = PoolOf(stored, dim);
  ExpectTilesMatchSingleRows(queries, pool, ", duplicates");
  const EuclideanMetric euclidean;
  std::vector<double> out(queries.size() * pool.size(), -1.0);
  euclidean.DistanceSoATile(queries.data(), queries.size(), pool, pool.size(),
                            out.data());
  EXPECT_EQ(out[3], 0.0);
  EXPECT_EQ(out[pool.size() - 1], 0.0);
  EXPECT_EQ(out[pool.size() + 3], 0.0);

  // An empty pool: the kernels and every metric write nothing.
  const CoordinatePool empty(dim);
  for (const simd::KernelSet* set : SupportedSets()) {
    for (size_t m = 0; m < simd::kNormCount; ++m) {
      const simd::TileKernel tile = set->norm[m].tile;
      double sentinel = -7.0;
      ScanPoolTile(tile, queries, empty, 0, &sentinel);
      const double* row = queries[0].coords.data();
      tile(&row, 1, nullptr, CoordinatePool::kRowStride, dim, 0, 0, &sentinel);
      EXPECT_EQ(sentinel, -7.0) << set->name << "/" << kNormNames[m];
    }
  }
  const ManhattanMetric manhattan;
  const ChebyshevMetric chebyshev;
  const Metric* metrics[] = {&euclidean, &manhattan, &chebyshev};
  for (const Metric* metric : metrics) {
    double sentinel = -7.0;
    metric->DistanceSoATile(queries.data(), queries.size(), empty, 0,
                            &sentinel);
    EXPECT_EQ(sentinel, -7.0) << metric->Name();
  }
}

TEST(SimdKernelTest, DistanceSoATileMatchesVirtualDistanceBitForBit) {
  // Through the dispatched metrics, with more rows than any tile (the
  // metric hands the kernel kMaxTileRows at a time) over a multi-block pool
  // with a mid-block head, into rows longer than the pool.
  const EuclideanMetric euclidean;
  const ManhattanMetric manhattan;
  const ChebyshevMetric chebyshev;
  const Metric* metrics[] = {&euclidean, &manhattan, &chebyshev};
  Rng rng(57);
  for (size_t dim : {1u, 3u, 54u}) {
    std::vector<Point> stored = RandomPoints(300, dim, &rng);
    CoordinatePool pool = PoolOf(stored, dim);
    pool.DropFront(37);
    stored.erase(stored.begin(), stored.begin() + 37);
    const auto queries = RandomPoints(2 * simd::kMaxTileRows + 1, dim, &rng);
    const size_t stride = pool.size() + 5;
    for (const Metric* metric : metrics) {
      std::vector<double> out(queries.size() * stride, -1.0);
      metric->DistanceSoATile(queries.data(), queries.size(), pool, stride,
                              out.data());
      for (size_t r = 0; r < queries.size(); ++r) {
        for (size_t i = 0; i < stored.size(); ++i) {
          ASSERT_EQ(metric->Distance(queries[r], stored[i]),
                    out[r * stride + i])
              << metric->Name() << " dim=" << dim << " row " << r
              << " pair " << i;
        }
        for (size_t i = stored.size(); i < stride; ++i) {
          ASSERT_EQ(out[r * stride + i], -1.0) << metric->Name();
        }
      }
    }
  }
}

TEST(SimdKernelTest, CountingMetricCountsEveryPairOnTile) {
  const EuclideanMetric inner;
  CountingMetric counting(&inner);
  Rng rng(6);
  const auto stored = RandomPoints(17, 4, &rng);
  const auto pool = PoolOf(stored, 4);
  const auto queries = RandomPoints(5, 4, &rng);
  std::vector<double> out(queries.size() * stored.size());
  counting.DistanceSoATile(queries.data(), queries.size(), pool,
                           stored.size(), out.data());
  EXPECT_EQ(counting.count(), 5 * 17);
  counting.DistanceSoATile(queries.data(), 2, pool, stored.size(),
                           out.data());
  EXPECT_EQ(counting.count(), 7 * 17);
  counting.DistanceSoATile(queries.data(), queries.size(),
                           CoordinatePool(4), 0, out.data());
  EXPECT_EQ(counting.count(), 7 * 17);
  counting.DistanceSoATile(queries.data(), queries.size(), pool,
                           stored.size(), out.data());
  for (size_t r = 0; r < queries.size(); ++r) {
    for (size_t i = 0; i < stored.size(); ++i) {
      EXPECT_EQ(inner.Distance(queries[r], stored[i]),
                out[r * stored.size() + i]);
    }
  }
}

TEST(SimdKernelTest, CutoffsAreTheFirstDoublesPastTheBound) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double bounds[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::denorm_min(),
                           1e-310,
                           1e-160,
                           std::numeric_limits<double>::min(),
                           1e-3,
                           0.5,
                           1.0,
                           2.0,
                           6.75,
                           13.5,
                           1e10,
                           1e154,
                           1.5e154,
                           1e200,
                           std::numeric_limits<double>::max()};
  for (double bound : bounds) {
    const double s = simd::SquaredDistanceCutoff(bound);
    EXPECT_GT(std::sqrt(s), bound) << "bound=" << bound;
    if (s > 0.0) {
      EXPECT_LE(std::sqrt(std::nextafter(s, 0.0)), bound) << "bound=" << bound;
    }
    const double c = simd::DistanceCutoff(bound);
    EXPECT_GT(c, bound);
    EXPECT_EQ(std::nextafter(c, -inf), bound);
  }
  EXPECT_EQ(simd::SquaredDistanceCutoff(-1.0), 0.0);
  EXPECT_TRUE(std::isnan(simd::SquaredDistanceCutoff(inf)));
  EXPECT_TRUE(std::isnan(simd::SquaredDistanceCutoff(nan)));
  EXPECT_TRUE(std::isnan(simd::DistanceCutoff(inf)));
  EXPECT_TRUE(std::isnan(simd::DistanceCutoff(nan)));
}

TEST(SimdKernelTest, BoundedScansAreExactWithinTheBound) {
  // Every compiled tier's bounded kernel against the scalar exact kernel:
  // counts straddling the 4-, 8- and 16-lane blocks plus a large ragged
  // pool, dimensions around the vector widths and covtype's 54. The pool
  // holds a copy of the query, so bound 0 keeps one lane in range; the
  // median distance splits the lanes; +inf keeps them all.
  Rng rng(2718);
  for (size_t dim : {1u, 3u, 4u, 5u, 54u}) {
    for (size_t n : {1u, 7u, 15u, 16u, 17u, 4095u}) {
      std::vector<Point> stored = RandomPoints(n, dim, &rng);
      const Point query = RandomPoints(1, dim, &rng)[0];
      stored[n / 2] = query;
      const CoordinatePool pool = CoordinatePool::FromPoints(stored);
      for (size_t m = 0; m < 3; ++m) {
        std::vector<double> exact(n);
        ScanPool(simd::ScalarKernels().norm[m].exact, query, pool,
                 exact.data());
        std::sort(exact.begin(), exact.end());
        const double median = exact[n / 2];
        for (const simd::KernelSet* set : simd::CompiledKernelSets()) {
          if (!simd::CpuSupports(*set)) continue;
          ExpectBoundedScanHonorsContract(*set, m, query, pool, median);
          EXPECT_EQ(ExpectBoundedScanHonorsContract(
                        *set, m, query, pool,
                        std::numeric_limits<double>::infinity()),
                    0u);
          const size_t abandoned =
              ExpectBoundedScanHonorsContract(*set, m, query, pool, 0.0);
          // The bound must actually cut work short: far lanes of a wide
          // pool leave their blocks long before the last dimension.
          if (dim == 54 && n == 4095) {
            EXPECT_GT(abandoned, n / 2) << set->name << " metric " << m;
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, BoundedScanThroughMetrics) {
  // The built-in metrics dispatch to the bounded kernels; a metric that
  // overrides only Distance gets the exact scan from the base class; a
  // CountingMetric counts one per stored point either way.
  class HalfEuclidean final : public Metric {
   public:
    double Distance(const Point& a, const Point& b) const override {
      return 0.5 * base_.Distance(a, b);
    }
    std::string Name() const override { return "half"; }

   private:
    EuclideanMetric base_;
  };
  const EuclideanMetric euclidean;
  const ManhattanMetric manhattan;
  const ChebyshevMetric chebyshev;
  const HalfEuclidean half;
  const Metric* metrics[] = {&euclidean, &manhattan, &chebyshev, &half};
  Rng rng(8);
  const size_t dim = 20, n = 100;
  const auto stored = RandomPoints(n, dim, &rng);
  const auto pool = PoolOf(stored, dim);
  const Point query = RandomPoints(1, dim, &rng)[0];
  for (const Metric* metric : metrics) {
    CountingMetric counting(metric);
    std::vector<double> exact(n), got(n);
    metric->DistanceSoA(query, pool, exact.data());
    const double bound = exact[n / 3];
    counting.DistanceSoAWithin(query, pool, bound, got.data());
    EXPECT_EQ(counting.count(), static_cast<int64_t>(n));
    for (size_t i = 0; i < n; ++i) {
      if (exact[i] <= bound) {
        EXPECT_EQ(exact[i], got[i]) << metric->Name() << " pair " << i;
      } else {
        EXPECT_FALSE(got[i] <= bound) << metric->Name() << " pair " << i;
      }
      if (metric == &half) {
        EXPECT_EQ(exact[i], got[i]);
      }
    }
  }
}

TEST(SimdKernelTest, RangeTestEqualsTheExactScan) {
  // Through the active kernel set (CI runs this binary at each FKC_SIMD
  // width): for every built-in metric, DistanceSoAWithin's range test
  // agrees with the exact scan's, and in-range distances are bit-identical.
  // The pool holds the query itself, points a subnormal step from it,
  // points whose squared distances overflow to +inf and random ones; the bounds
  // are 0, subnormal, +inf, DBL_MAX and exactly some columns' distances.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const EuclideanMetric euclidean;
  const ManhattanMetric manhattan;
  const ChebyshevMetric chebyshev;
  const Metric* metrics[] = {&euclidean, &manhattan, &chebyshev};
  Rng rng(1729);
  for (size_t dim : {1u, 3u, 4u, 5u, 54u}) {
    std::vector<Point> stored = RandomPoints(37, dim, &rng);
    const Point query = RandomPoints(1, dim, &rng)[0];
    stored[3] = query;
    for (size_t i : {5u, 20u}) {
      stored[i] = query;
      stored[i].coords[0] =
          std::nextafter(query.coords[0], i == 5 ? kInf : -kInf);
    }
    for (size_t i : {9u, 30u, 31u}) {
      for (double& x : stored[i].coords) x = i == 9 ? 1e300 : -1e300;
    }
    const CoordinatePool pool = CoordinatePool::FromPoints(stored);
    for (const Metric* metric : metrics) {
      std::vector<double> exact(stored.size());
      metric->DistanceSoA(query, pool, exact.data());
      if (metric == &euclidean) {
        ASSERT_EQ(exact[9], kInf);
      }
      std::vector<double> bounds = {0.0,
                                    std::numeric_limits<double>::denorm_min(),
                                    1e-310,
                                    kInf,
                                    std::numeric_limits<double>::max()};
      for (size_t i : {0u, 5u, 11u, 20u, 36u}) bounds.push_back(exact[i]);
      for (double bound : bounds) {
        std::vector<double> got(stored.size(), -1.0);
        metric->DistanceSoAWithin(query, pool, bound, got.data());
        for (size_t i = 0; i < stored.size(); ++i) {
          ASSERT_EQ(got[i] <= bound, exact[i] <= bound)
              << metric->Name() << " dim " << dim << " bound " << bound
              << " column " << i << ": " << got[i] << " vs " << exact[i];
          if (exact[i] <= bound) {
            ASSERT_EQ(std::memcmp(&got[i], &exact[i], sizeof(double)), 0)
                << metric->Name() << " dim " << dim << " column " << i;
          }
        }
      }
    }
  }
}

// --- CoordinatePool blocks under churn. ---

constexpr size_t kB = CoordinatePool::kBlockLanes;

// One head pass's input over `count` slots: a row drawn from a few values
// (so distances tie, also across colors and between slots whose order is
// not their positions'), +inf, NaN and -0.0 among them; nearest distances
// from an earlier fold, some equal to the row; positions a shuffle of the
// members, so slot order is not position order; slots that are no point
// of the set (position -1, nearest -inf, the sentinel color), and color
// ell - 1 left without a member.
struct HeadPassCase {
  HeadPassCase(size_t count, int ell, Rng* rng)
      : ell(ell), row(count), nearest(count), position(count, -1),
        color(count, ell) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double values[] = {0.0, -0.0, 1.0, 2.0, 2.0, 3.0, 3.0, 5.0,
                             kInf, std::numeric_limits<double>::quiet_NaN()};
    const auto draw = [&] { return values[rng->NextBounded(10)]; };
    std::vector<size_t> members;
    for (size_t s = 0; s < count; ++s) {
      row[s] = draw();
      if (rng->NextBounded(5) == 0) {
        nearest[s] = -kInf;  // no point of the set
      } else {
        members.push_back(s);
        const double earlier = draw();
        nearest[s] = std::isnan(earlier) ? kInf : earlier;
      }
    }
    rng->Shuffle(&members);
    slots.resize(members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      position[members[i]] = static_cast<int>(i);
      color[members[i]] = static_cast<int>(rng->NextBounded(ell - 1));
      slots[i] = members[i];
      colors.push_back(color[members[i]]);
    }
  }

  int ell;
  std::vector<double> row, nearest;      // per slot
  std::vector<int> position, color;      // per slot
  std::vector<size_t> slots;             // per position
  std::vector<int> colors;               // per position
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(HeadPassTest, EveryWidthMatchesTheReferenceLoops) {
  Rng rng(35);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                       size_t{15}, size_t{16}, size_t{17}, size_t{129},
                       size_t{1000}}) {
    for (int ell : {2, 4, 9}) {
      for (int trial = 0; trial < 20; ++trial) {
        const HeadPassCase c(count, ell, &rng);
        std::vector<double> want_nearest = c.nearest;
        const simd::Farthest want =
            reference::Farthest(c.row.data(), c.position.data(), count,
                                want_nearest.data());
        std::vector<double> want_distance;
        std::vector<int> want_index;
        reference::ColorTable(c.row.data(), c.slots, c.colors, ell,
                              &want_distance, &want_index);
        for (const simd::KernelSet* set : SupportedSets()) {
          SCOPED_TRACE(std::string(set->name) + " count=" +
                       std::to_string(count) + " ell=" + std::to_string(ell) +
                       " trial=" + std::to_string(trial));
          for (bool colored : {true, false}) {
            std::vector<double> nearest = c.nearest;
            std::vector<double> distance(ell + 1, kInf);
            std::vector<int> index(ell + 1, -1);
            distance[ell] = -kInf;
            const simd::Farthest got = set->head_pass(
                c.row.data(), c.position.data(),
                colored ? c.color.data() : nullptr, count, nearest.data(),
                distance.data(), index.data());
            EXPECT_TRUE(SameBits(got.distance, want.distance));
            EXPECT_EQ(got.position, want.position);
            for (size_t s = 0; s < count; ++s) {
              ASSERT_TRUE(SameBits(nearest[s], want_nearest[s]))
                  << "slot " << s;
            }
            // The sentinel is never replaced; without colors nothing is.
            EXPECT_EQ(distance[ell], -kInf);
            EXPECT_EQ(index[ell], -1);
            for (int k = 0; k < ell; ++k) {
              if (colored) {
                EXPECT_TRUE(SameBits(distance[k], want_distance[k]))
                    << "color " << k << ": " << distance[k] << " vs "
                    << want_distance[k];
                EXPECT_EQ(index[k], want_index[k]) << "color " << k;
              } else {
                EXPECT_EQ(distance[k], kInf);
                EXPECT_EQ(index[k], -1);
              }
            }
            EXPECT_EQ(index[ell - 1], -1) << "color without a member";
          }
        }
      }
    }
  }
}

TEST(HeadPassTest, CoincidentPointsLeaveNoFarthestPoint) {
  // Every member at distance 0 from the head, but one whose row entry is
  // NaN and whose earlier fold was 0 already, and a non-member slot among
  // them: nothing wins at 0, so there is no next head.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr size_t kCount = 21;
  std::vector<double> row(kCount, 0.0);
  row[4] = std::numeric_limits<double>::quiet_NaN();
  std::vector<int> position(kCount);
  std::vector<int> color(kCount, 0);
  for (size_t s = 0; s < kCount; ++s) position[s] = static_cast<int>(s);
  position[9] = -1;
  color[9] = 1;
  for (const simd::KernelSet* set : SupportedSets()) {
    std::vector<double> nearest(kCount, kInf);
    nearest[9] = -kInf;
    nearest[4] = 0.0;
    double distance[2] = {kInf, -kInf};
    int index[2] = {-1, -1};
    const simd::Farthest got =
        set->head_pass(row.data(), position.data(), color.data(), kCount,
                       nearest.data(), distance, index);
    EXPECT_EQ(got.distance, 0.0) << set->name;
    EXPECT_EQ(got.position, -1) << set->name;
    EXPECT_EQ(nearest[4], 0.0) << set->name;  // NaN leaves nearest as it was
    EXPECT_EQ(distance[0], 0.0) << set->name;
    EXPECT_EQ(index[0], 0) << set->name;
    EXPECT_EQ(index[1], -1) << set->name;
  }
}

TEST(CoordinatePoolTest, BulkBuildZeroesEveryLaneItDoesNotFill) {
  // A bulk build writes each block's lanes up to its points and zeroes the
  // rest of every row, slack included: the lanes a kernel over-reads, and
  // the ones a later Append fills one at a time. The heap is dirtied with
  // NaN first, so a block that skipped its zeroing would show it.
  Rng rng(12);
  const size_t dim = 3;
  for (size_t n : {size_t{1}, size_t{7}, size_t{9}, kB, kB + 1,
                   size_t{1135}}) {
    const size_t block_doubles = dim * CoordinatePool::kRowStride;
    {
      std::vector<std::unique_ptr<double[]>> junk(12);
      for (auto& block : junk) {
        block.reset(new double[block_doubles]);
        std::fill_n(block.get(), block_doubles,
                    std::numeric_limits<double>::quiet_NaN());
      }
    }
    CoordinatePool pool =
        CoordinatePool::FromPoints(RandomPoints(n, dim, &rng));
    pool.ForEachSpan([&](const CoordinatePool::Span& span) {
      for (size_t d = 0; d < dim; ++d) {
        const double* row = span.data + d * CoordinatePool::kRowStride;
        for (size_t i = span.count; i < CoordinatePool::kRowStride; ++i) {
          ASSERT_EQ(row[i], 0.0) << "n=" << n << " block of " << span.first
                                 << " row " << d << " lane " << i;
        }
      }
    });
    // Appends past a bulk-built tail keep the kernels exact.
    const auto extra = RandomPoints(10, dim, &rng);
    for (const Point& p : extra) pool.Append(p);
    const Point query = RandomPoints(1, dim, &rng)[0];
    for (const simd::KernelSet* set : SupportedSets()) {
      ExpectKernelMatchesScalar(
          set->Of(simd::Norm::kEuclidean).exact,
          simd::ScalarKernels().Of(simd::Norm::kEuclidean).exact, query, pool,
          set->name, "euclidean");
    }
  }
}

TEST(CoordinatePoolTest, AppendDropFrontChurnAgainstMirror) {
  // Random Append/DropFront churn checked against a plain mirror deque
  // after every operation: positions, coordinates, and the block invariants
  // (via CheckInvariants). The churn grows the pool past three blocks,
  // drains it to empty, refills it, and then holds it near a steady size;
  // drops of up to a block and a half cross block boundaries from every
  // head offset.
  const size_t dim = 5;
  CoordinatePool pool(dim);
  Rng rng(99);
  std::deque<Coordinates> mirror;
  int step = 0;
  const auto append = [&] {
    Coordinates coords(dim);
    for (size_t d = 0; d < dim; ++d) coords[d] = rng.NextUniform(-10, 10);
    pool.Append(coords.data());
    mirror.push_back(std::move(coords));
  };
  const auto drop = [&](size_t max_drop) {
    const size_t n =
        rng.NextBounded(std::min(mirror.size(), max_drop) + 1);
    pool.DropFront(n);
    mirror.erase(mirror.begin(), mirror.begin() + static_cast<long>(n));
  };
  const auto check = [&] {
    ++step;
    pool.CheckInvariants();
    ASSERT_EQ(pool.size(), mirror.size()) << "step " << step;
    for (size_t i = 0; i < mirror.size(); ++i) {
      for (size_t d = 0; d < dim; ++d) {
        ASSERT_EQ(pool.At(i, d), mirror[i][d]) << "step " << step;
      }
    }
  };

  while (mirror.size() < 3 * kB + 17) {
    if (mirror.empty() || rng.NextBernoulli(0.8)) {
      append();
    } else {
      drop(4);
    }
    check();
  }
  while (!mirror.empty()) {
    drop(kB + kB / 2);
    check();
  }
  EXPECT_TRUE(pool.empty());
  // Refill, then hold the size between one and three blocks.
  for (int i = 0; i < 4000; ++i) {
    if (mirror.size() < kB ||
        (mirror.size() < 3 * kB && rng.NextBernoulli(0.7))) {
      append();
    } else {
      drop(i % 50 == 0 ? kB + kB / 2 : 4);
    }
    check();
  }
}

TEST(CoordinatePoolTest, AppendNeverMovesStoredCoordinates) {
  // A linked block never moves or grows: appends that fill blocks and link
  // new ones, between drops that free old ones, leave the address of every
  // stored coordinate as it was when the point was appended.
  const size_t dim = 3;
  CoordinatePool pool(dim);
  Rng rng(17);
  std::deque<const double*> expected;  // dim entries per live position
  for (size_t step = 0; step < 4 * kB; ++step) {
    Coordinates coords(dim);
    for (size_t d = 0; d < dim; ++d) coords[d] = rng.NextUniform(-10, 10);
    pool.Append(coords.data());
    const std::vector<const double*> addresses = CoordAddresses(pool);
    for (size_t d = 0; d < dim; ++d) {
      const double* appended = addresses[(pool.size() - 1) * dim + d];
      ASSERT_EQ(*appended, coords[d]);
      expected.push_back(appended);
    }
    for (size_t i = 0; i + dim < addresses.size(); ++i) {
      ASSERT_EQ(addresses[i], expected[i])
          << "step " << step << " moved position " << i / dim;
    }
    if (step % 7 == 6) {
      pool.DropFront(2);
      expected.erase(expected.begin(),
                     expected.begin() + static_cast<long>(2 * dim));
    }
  }
}

TEST(CoordinatePoolTest, FromPointsHoldsInputAndAcceptsAppends) {
  const size_t dim = 5;
  Rng rng(61);
  for (size_t n : {size_t{0}, size_t{1}, kB - 1, kB, kB + 1, 2 * kB,
                   3 * kB}) {
    const auto points = RandomPoints(n, dim, &rng);
    CoordinatePool pool = CoordinatePool::FromPoints(points);
    pool.CheckInvariants();
    ASSERT_EQ(pool.size(), n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t d = 0; d < dim; ++d) {
        ASSERT_EQ(pool.At(i, d), points[i].coords[d]) << "n=" << n;
      }
    }
    // Full blocks, each span starting at a block boundary.
    size_t spans = 0;
    pool.ForEachSpan([&](const CoordinatePool::Span& span) {
      EXPECT_EQ(span.first, spans * kB) << "n=" << n;
      EXPECT_EQ(span.count, std::min(kB, n - span.first)) << "n=" << n;
      ++spans;
    });
    EXPECT_EQ(spans, (n + kB - 1) / kB) << "n=" << n;
    // An empty input has no dimension to take; it is re-dimensioned first.
    if (n == 0) {
      EXPECT_EQ(pool.dim(), 0u);
      pool.ResetDim(dim);
    }
    const auto extra = RandomPoints(2, dim, &rng);
    for (const Point& p : extra) pool.Append(p);
    pool.CheckInvariants();
    ASSERT_EQ(pool.size(), n + 2);
    for (size_t d = 0; d < dim; ++d) {
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(pool.At(i, d), points[i].coords[d]) << "n=" << n;
      }
      EXPECT_EQ(pool.At(n, d), extra[0].coords[d]) << "n=" << n;
      EXPECT_EQ(pool.At(n + 1, d), extra[1].coords[d]) << "n=" << n;
    }
  }
}

TEST(CoordinatePoolTest, KernelsMatchDistanceOnMultiBlockPoolWithMidBlockHead) {
  // Pools of three blocks and a partial fourth whose head sits inside the
  // front block: at every compiled width, each exact kernel returns the
  // per-pair Distance bit for bit, and each bounded kernel returns it bit
  // for bit wherever it is within the bound (and out of range elsewhere).
  const EuclideanMetric euclidean;
  const ManhattanMetric manhattan;
  const ChebyshevMetric chebyshev;
  const Metric* metrics[] = {&euclidean, &manhattan, &chebyshev};
  Rng rng(4242);
  for (size_t dim : {1u, 3u, 5u, 54u}) {
    for (size_t head : {size_t{1}, kB / 2 + 3, kB - 1}) {
      std::vector<Point> stored = RandomPoints(3 * kB + 11, dim, &rng);
      CoordinatePool pool(dim);
      for (const Point& p : stored) pool.Append(p);
      pool.DropFront(head);
      stored.erase(stored.begin(), stored.begin() + static_cast<long>(head));
      const Point query = RandomPoints(1, dim, &rng)[0];
      const size_t n = stored.size();
      for (size_t m = 0; m < 3; ++m) {
        std::vector<double> want(n);
        for (size_t i = 0; i < n; ++i) {
          want[i] = metrics[m]->Distance(query, stored[i]);
        }
        std::vector<double> sorted = want;
        std::sort(sorted.begin(), sorted.end());
        for (const simd::KernelSet* set : SupportedSets()) {
          const simd::NormKernels& kernels = set->norm[m];
          const char* name = kNormNames[m];
          std::vector<double> got(n, -1.0);
          ScanPool(kernels.exact, query, pool, got.data());
          EXPECT_EQ(std::memcmp(want.data(), got.data(), n * sizeof(double)),
                    0)
              << set->name << "/" << name << " dim=" << dim
              << " head=" << head;
          for (double bound :
               {0.0, sorted[n / 3], std::numeric_limits<double>::infinity()}) {
            std::fill(got.begin(), got.end(), -1.0);
            ScanPoolWithin(kernels.within,
                           simd::CutoffOf(static_cast<simd::Norm>(m), bound),
                           query, pool, got.data());
            for (size_t i = 0; i < n; ++i) {
              if (want[i] <= bound) {
                ASSERT_EQ(std::memcmp(&want[i], &got[i], sizeof(double)), 0)
                    << set->name << "/" << name << " pair " << i
                    << " dim=" << dim << " head=" << head;
              } else {
                ASSERT_FALSE(got[i] <= bound)
                    << set->name << "/" << name << " pair " << i;
              }
            }
          }
        }
        // The dispatched metric entry points split the pool the same way.
        std::vector<double> soa(n, -1.0);
        metrics[m]->DistanceSoA(query, pool, soa.data());
        EXPECT_EQ(std::memcmp(want.data(), soa.data(), n * sizeof(double)), 0)
            << metrics[m]->Name() << " dim=" << dim << " head=" << head;
      }
    }
  }
}

TEST(CoordinatePoolTest, KernelsMatchScalarOnHeadShiftedPoolAtRowEnd) {
  // A one-block pool whose head leaves a live span of 9 points at the end
  // of the block: the widest lane over-read of that span ends in the last
  // lane width of each row — and, on the last row, of the block's
  // allocation, so an address-sanitized build catches any read past the
  // slack.
  Rng rng(314);
  for (size_t dim : {1u, 3u, 8u, 54u}) {
    std::deque<Point> stored;
    CoordinatePool pool(dim);
    for (size_t i = 0; i < kB; ++i) {
      stored.push_back(RandomPoints(1, dim, &rng)[0]);
      pool.Append(stored.back());
    }
    const size_t drop = kB - 9;
    pool.DropFront(drop);
    stored.erase(stored.begin(), stored.begin() + static_cast<long>(drop));
    pool.CheckInvariants();
    size_t spans = 0;
    pool.ForEachSpan([&](const CoordinatePool::Span& span) {
      EXPECT_EQ(span.count, 9u);
      ++spans;
    });
    ASSERT_EQ(spans, 1u);

    const Point query = RandomPoints(1, dim, &rng)[0];
    for (const simd::KernelSet* set : SupportedSets()) {
      ExpectSetMatchesScalar(*set, query, pool);
      // The bounded kernels read no further, whatever they abandon.
      for (size_t m = 0; m < 3; ++m) {
        for (double bound : {0.0, 150.0, 1e300}) {
          ExpectBoundedScanHonorsContract(*set, m, query, pool, bound);
        }
      }
    }
    // The dispatched SoA path agrees with the per-pair Distance.
    const EuclideanMetric euclidean;
    std::vector<double> out(pool.size(), -1.0);
    euclidean.DistanceSoA(query, pool, out.data());
    for (size_t i = 0; i < stored.size(); ++i) {
      EXPECT_EQ(euclidean.Distance(query, stored[i]), out[i]) << "pair " << i;
    }
  }
}

TEST(CoordinatePoolTest, KernelsMatchScalarOnBulkBuiltPool) {
  // Counts one below a lane multiple (the widest lane over-read), one past
  // a block and ragged multi-block pools.
  Rng rng(27);
  for (size_t dim : {1u, 3u, 54u}) {
    for (size_t n : {size_t{7}, size_t{9}, size_t{63}, kB + 1, size_t{4095}}) {
      const auto stored = RandomPoints(n, dim, &rng);
      const CoordinatePool pool = CoordinatePool::FromPoints(stored);
      pool.CheckInvariants();
      const Point query = RandomPoints(1, dim, &rng)[0];
      for (const simd::KernelSet* set : SupportedSets()) {
        ExpectSetMatchesScalar(*set, query, pool);
      }
      const EuclideanMetric euclidean;
      std::vector<double> out(n, -1.0);
      euclidean.DistanceSoA(query, pool, out.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(euclidean.Distance(query, stored[i]), out[i])
            << "dim=" << dim << " n=" << n << " pair " << i;
      }
    }
  }
}

TEST(CoordinatePoolTest, SpareBlockComesBackZeroed) {
  // DropFront keeps the block it empties; the next link reuses it, zeroed,
  // so the row slack past the live lanes reads 0 as in a new block, not
  // the coordinates the block held before.
  CoordinatePool pool(2);
  Rng rng(6);
  for (const Point& p : RandomPoints(2 * kB, 2, &rng)) pool.Append(p);
  pool.DropFront(kB);  // the full front block becomes the spare
  const auto more = RandomPoints(3, 2, &rng);
  for (const Point& p : more) pool.Append(p);  // links the spare
  pool.CheckInvariants();
  ASSERT_EQ(pool.size(), kB + 3);
  for (size_t i = 0; i < more.size(); ++i) {
    EXPECT_EQ(pool.At(kB + i, 1), more[i].coords[1]);
  }
  size_t spans = 0;
  pool.ForEachSpan([&](const CoordinatePool::Span& span) {
    if (++spans < 2) return;
    ASSERT_EQ(span.count, 3u);
    for (size_t d = 0; d < 2; ++d) {
      for (size_t i = 3; i < simd::RoundUpToLanes(3); ++i) {
        EXPECT_EQ(span.data[d * CoordinatePool::kRowStride + i], 0.0);
      }
    }
  });
  EXPECT_EQ(spans, 2u);
}

TEST(CoordinatePoolTest, AssignRefillsLikeFromColumns) {
  // Assign over a pool of any shape holds exactly what FromColumns builds
  // from the same columns, strided ones included.
  Rng rng(8);
  const size_t dim = 4;
  const CoordinatePool source =
      CoordinatePool::FromPoints(RandomPoints(3 * kB, dim, &rng));
  CoordinatePool pool(dim);
  for (const Point& p : RandomPoints(2 * kB + 5, dim, &rng)) pool.Append(p);
  pool.DropFront(7);
  for (size_t n : {size_t{10}, 3 * kB, kB, size_t{1}, kB + 1}) {
    std::vector<CoordinatePool::ColumnRef> columns;
    for (size_t i = 0; i < n; ++i) {
      columns.push_back(source.Column(3 * kB - 1 - i));
    }
    pool.Assign(columns);
    pool.CheckInvariants();
    const CoordinatePool want = CoordinatePool::FromColumns(dim, columns);
    ASSERT_EQ(pool.size(), n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t d = 0; d < dim; ++d) {
        ASSERT_EQ(pool.At(i, d), want.At(i, d)) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(CoordinatePoolTest, ClearAndResetDim) {
  CoordinatePool pool(3);
  Rng rng(4);
  for (const Point& p : RandomPoints(kB + 10, 3, &rng)) pool.Append(p);
  pool.Clear();
  EXPECT_EQ(pool.size(), 0u);
  pool.CheckInvariants();
  // After Clear the dimension survives and appends restart at position 0.
  const auto fresh = RandomPoints(2, 3, &rng);
  pool.Append(fresh[0]);
  EXPECT_EQ(pool.At(0, 1), fresh[0].coords[1]);

  pool.ResetDim(6);
  EXPECT_EQ(pool.dim(), 6u);
  EXPECT_EQ(pool.size(), 0u);
  const auto wide = RandomPoints(1, 6, &rng);
  pool.Append(wide[0]);
  pool.CheckInvariants();
  EXPECT_EQ(pool.At(0, 5), wide[0].coords[5]);
}

TEST(CoordinatePoolTest, SpansTileThePositionsInsideTheirRows) {
  // The over-read contract the kernels rely on: the spans cover positions
  // [0, size()) in order, only the first starts inside its block, and every
  // span's rows are readable to its lane round-up without leaving the row.
  Rng rng(8);
  for (size_t dropped : {size_t{0}, size_t{5}, kB - 1, kB, kB + 3}) {
    CoordinatePool pool(4);
    for (const Point& p : RandomPoints(2 * kB + 11, 4, &rng)) pool.Append(p);
    pool.DropFront(dropped);
    size_t next = 0;
    pool.ForEachSpan([&](const CoordinatePool::Span& span) {
      const size_t offset = next == 0 ? dropped % kB : 0;
      EXPECT_EQ(span.first, next) << "dropped=" << dropped;
      EXPECT_GT(span.count, 0u);
      EXPECT_LE(offset + simd::RoundUpToLanes(span.count),
                CoordinatePool::kRowStride)
          << "dropped=" << dropped;
      for (size_t i = 0; i < span.count; ++i) {
        EXPECT_EQ(span.data[2 * CoordinatePool::kRowStride + i],
                  pool.At(span.first + i, 2));
      }
      next += span.count;
    });
    EXPECT_EQ(next, pool.size()) << "dropped=" << dropped;
  }
}

// --- The float32 twin (coordinate_pool.h) under churn. ---

// The float a twin stores for a coordinate x against reference r, written
// out from its definition.
float TwinFloat(double x, double r) {
  const double diff = x - r;
  return std::fabs(diff) <= std::numeric_limits<float>::max()
             ? static_cast<float>(diff)
             : 0.0f;
}

TEST(SimdKernelTest, TwinRowKernelsMatchTheDefinitionBitForBit) {
  // Every width writes the definition's floats (0 for NaN and
  // out-of-range differences), only in its count lanes, and returns the
  // same extent: the largest |difference| and the given extent, +inf with
  // a NaN among them.
  Rng rng(43);
  const double specials[] = {1e300, -1e300, 3.5e38, -3.5e38, 4.9e-324,
                             -0.0, std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
  for (const simd::KernelSet* set : SupportedSets()) {
    for (size_t count = 0; count <= 40; ++count) {
      for (int trial = 0; trial < 6; ++trial) {
        SCOPED_TRACE(std::string(set->name) + " count=" +
                     std::to_string(count) + " trial=" +
                     std::to_string(trial));
        std::vector<double> row(count);
        for (double& x : row) {
          x = rng.NextBernoulli(0.1) ? specials[rng.NextBounded(8)]
                                     : rng.NextUniform(-1e3, 1e3);
        }
        if (trial < 2) {
          for (double& x : row) {
            if (std::isnan(x)) x = 1.0;
          }
        }
        const double reference = trial % 3 == 0 ? 0.0 : rng.NextUniform(-5, 5);
        const double extent = trial % 2 == 0 ? 0.0 : 700.0;
        std::vector<float> twin(count + 16, 7.0f);
        const double got =
            set->twin_row(row.data(), reference, count, twin.data(), extent);
        double want = extent;
        bool nan = false;
        for (size_t i = 0; i < count; ++i) {
          const double diff = row[i] - reference;
          nan |= std::isnan(diff);
          if (!std::isnan(diff)) want = std::max(want, std::fabs(diff));
          const float expected = TwinFloat(row[i], reference);
          ASSERT_EQ(std::memcmp(&twin[i], &expected, sizeof(float)), 0)
              << "lane " << i;
        }
        for (size_t i = count; i < twin.size(); ++i) {
          ASSERT_EQ(twin[i], 7.0f) << "wrote past the count at " << i;
        }
        if (nan) want = std::numeric_limits<double>::infinity();
        EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
            << got << " vs " << want;
      }
    }
  }
}

TEST(CoordinatePoolTest, TwinEqualsATwinBuiltFromScratchUnderChurn) {
  // d = 512, so the twin starts at 257 points (two blocks). After every
  // Append, DropFront (which recycles emptied blocks as the spare),
  // Assign and ResetDim, checked against a mirror: the pool keeps a twin
  // exactly when it has been past kTwinMinBytes since its last Assign or
  // ResetDim; its reference is position 0 of the append or the build that
  // made it; every live float is the definition's, bit for bit, and equals
  // the twin FromColumns builds from the live columns on that reference;
  // the extent is the largest |x - r| of every column since the twin was
  // made; and every span's twin pointer is its first column, readable up
  // to RoundUpToShadowLanes(count) floats, which read 0 past the count.
  // Every block, doubles and floats alike, starts on kBlockAlign bytes.
  const size_t dim = 512;
  const size_t threshold = CoordinatePool::kTwinMinBytes / (dim * 8) + 1;
  ASSERT_EQ(threshold, 257u);
  CoordinatePool pool(dim);
  Rng rng(41);
  std::deque<Coordinates> mirror;
  std::vector<double> reference;  // empty while the pool keeps no twin
  std::vector<double> extent;
  size_t head = 0;  // the front block's lane of position 0
  int step = 0;
  const auto cover = [&](const Coordinates& x) {
    for (size_t d = 0; d < dim; ++d) {
      const double a = std::fabs(x[d] - reference[d]);
      extent[d] = std::isnan(a) ? std::numeric_limits<double>::infinity()
                                : std::max(extent[d], a);
    }
  };
  const auto make_twin = [&] {
    reference = mirror.front();
    extent.assign(dim, 0.0);
    for (const Coordinates& x : mirror) cover(x);
  };
  const auto fresh = [&] {
    Coordinates coords(dim);
    for (size_t d = 0; d < dim; ++d) {
      coords[d] = rng.NextUniform(-10, 10) * std::ldexp(1.0, d % 30);
    }
    // Now and then a coordinate outside float's range, or a NaN.
    if (rng.NextBernoulli(0.01)) coords[rng.NextBounded(dim)] = 1e300;
    if (rng.NextBernoulli(0.002)) {
      coords[rng.NextBounded(dim)] = std::numeric_limits<double>::quiet_NaN();
    }
    return coords;
  };
  const auto append = [&] {
    Coordinates coords = fresh();
    pool.Append(coords.data());
    mirror.push_back(std::move(coords));
    if (!reference.empty()) {
      cover(mirror.back());
    } else if (mirror.size() >= threshold) {
      make_twin();
    }
  };
  const auto drop = [&](size_t max_drop) {
    const size_t n = rng.NextBounded(std::min(mirror.size(), max_drop) + 1);
    pool.DropFront(n);
    head = (head + n) % kB;
    mirror.erase(mirror.begin(), mirror.begin() + static_cast<long>(n));
  };
  const auto assign = [&](size_t n) {
    std::vector<Coordinates> next;
    for (size_t i = 0; i < n; ++i) next.push_back(fresh());
    std::vector<CoordinatePool::ColumnRef> columns;
    for (const Coordinates& x : next) columns.push_back({x.data(), 1});
    pool.Assign(columns);
    head = 0;
    mirror.assign(next.begin(), next.end());
    reference.clear();
    if (n >= threshold) make_twin();
  };
  const auto same_float = [](float a, float b) {
    return std::memcmp(&a, &b, sizeof(float)) == 0;
  };
  const auto check = [&] {
    ++step;
    SCOPED_TRACE("step " + std::to_string(step));
    pool.CheckInvariants();
    ASSERT_EQ(pool.size(), mirror.size());
    ASSERT_EQ(pool.has_twin(), !reference.empty());
    size_t lane = head;  // of the first span's column; 0 past the front
    pool.ForEachSpan([&](const CoordinatePool::Span& span) {
      const auto start = [&](const void* p, size_t bytes) {
        return (reinterpret_cast<uintptr_t>(p) - lane * bytes) %
               CoordinatePool::kBlockAlign;
      };
      EXPECT_EQ(start(span.data, sizeof(double)), 0u) << "lane " << lane;
      if (span.twin != nullptr) {
        EXPECT_EQ(start(span.twin, sizeof(float)), 0u) << "lane " << lane;
      }
      lane = 0;
    });
    if (!pool.has_twin()) return;
    ASSERT_TRUE(std::equal(reference.begin(), reference.end(),
                           pool.twin_reference().begin(),
                           [](double a, double b) {
                             return std::memcmp(&a, &b, sizeof a) == 0;
                           }));
    ASSERT_EQ(pool.twin_extent(), extent);
    // From scratch on the same reference.
    std::vector<CoordinatePool::ColumnRef> columns;
    for (const Coordinates& x : mirror) columns.push_back({x.data(), 1});
    const CoordinatePool scratch =
        CoordinatePool::FromColumns(dim, columns, &pool);
    ASSERT_EQ(scratch.has_twin(), true);
    for (size_t i = 0; i < mirror.size(); ++i) {
      const float* got = pool.TwinColumn(i);
      const float* want = scratch.TwinColumn(i);
      for (size_t d = 0; d < dim; ++d) {
        const float value = got[d * CoordinatePool::kTwinStride];
        ASSERT_TRUE(same_float(value, TwinFloat(mirror[i][d], reference[d])))
            << "position " << i << " d " << d;
        ASSERT_TRUE(same_float(value, want[d * CoordinatePool::kTwinStride]));
      }
    }
    pool.ForEachSpan([&](const CoordinatePool::Span& span) {
      ASSERT_EQ(span.twin, pool.TwinColumn(span.first));
      for (size_t d = 0; d < dim; ++d) {
        const float* row = span.twin + d * CoordinatePool::kTwinStride;
        for (size_t i = span.count; i < simd::RoundUpToShadowLanes(span.count);
             ++i) {
          ASSERT_EQ(row[i], 0.0f) << "lane " << i << " past " << span.count;
        }
      }
    });
  };

  // Grow past the threshold, drain to empty (the spare comes back), grow
  // again on the old twin, and churn around five blocks.
  while (mirror.size() < 3 * kB) {
    append();
    if (mirror.size() % 17 == 0 || mirror.size() == threshold) check();
  }
  check();
  while (!mirror.empty()) {
    drop(kB + kB / 2);
    check();
  }
  for (int i = 0; i < 700; ++i) {
    if (mirror.size() < 4 * kB && rng.NextBernoulli(0.7)) {
      append();
    } else {
      drop(i % 20 == 0 ? kB + kB / 2 : 6);
    }
    if (i % 23 == 0) check();
  }
  check();
  // Assign decides anew: a small refill drops the twin, a large one makes
  // one on its own position 0; appends then grow past the threshold again.
  assign(kB + 3);
  check();
  while (mirror.size() < threshold + 5) append();
  check();
  assign(3 * kB);
  check();
  drop(kB);
  check();
  // ResetDim drops it too.
  pool.ResetDim(dim);
  head = 0;
  mirror.clear();
  reference.clear();
  check();
  for (size_t i = 0; i < threshold; ++i) append();
  check();
}

TEST(CoordinatePoolTest, FromColumnsTwinsOnlyPastTheThresholdOrOnRequest) {
  Rng rng(42);
  const size_t dim = 54;
  const size_t threshold = CoordinatePool::kTwinMinBytes / (dim * 8) + 1;
  const std::vector<Point> points = RandomPoints(threshold, dim, &rng);
  std::vector<CoordinatePool::ColumnRef> columns;
  for (const Point& p : points) columns.push_back({p.coords.data(), 1});
  const CoordinatePool big = CoordinatePool::FromColumns(dim, columns);
  ASSERT_TRUE(big.has_twin());
  EXPECT_EQ(big.twin_reference(), points[0].coords);
  columns.resize(10);
  const CoordinatePool small = CoordinatePool::FromColumns(dim, columns);
  EXPECT_FALSE(small.has_twin());
  // Asked for, a small pool twins on the other pool's reference.
  std::reverse(columns.begin(), columns.end());
  const CoordinatePool beside =
      CoordinatePool::FromColumns(dim, columns, &big);
  ASSERT_TRUE(beside.has_twin());
  EXPECT_EQ(beside.twin_reference(), big.twin_reference());
  for (size_t i = 0; i < 10; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      EXPECT_EQ(beside.TwinColumn(i)[d * CoordinatePool::kTwinStride],
                TwinFloat(points[9 - i].coords[d], points[0].coords[d]));
    }
  }
  EXPECT_FALSE(CoordinatePool::FromColumns(dim, columns, &small).has_twin());
}

}  // namespace
}  // namespace fkc
