// Tests for the float32 shadow (metric/shadow_pool.h). Gonzalez and Jones
// on each built-in metric, over pools large enough for the shadow, must
// give the heads, insertion distances, per-head color tables, centers and
// radius of the same metric behind tests/exact_scan_metric.h (exact rows),
// bit for bit. The shadow kernels of every compiled width must match the
// scalar ones bit for bit, and the shadow's error bound must hold against
// exact distances on adversarial pairs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "covtype_coreset.h"
#include "exact_scan_metric.h"
#include "metric/colored_pool.h"
#include "metric/coordinate_pool.h"
#include "metric/metric.h"
#include "metric/shadow_pool.h"
#include "metric/simd_kernels.h"
#include "sequential/color_constraint.h"
#include "sequential/gonzalez.h"
#include "sequential/jones_fair_center.h"

namespace fkc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

const EuclideanMetric kEuclidean;
const ManhattanMetric kManhattan;
const ChebyshevMetric kChebyshev;
const std::vector<const Metric*> kBuiltIns = {&kEuclidean, &kManhattan,
                                              &kChebyshev};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// A pool of `ell` colors, the column pool it may borrow, and what the
// shadow must do on it: serve every head, decline at Fill (fall back), go
// back to exact rows after a resolution (restart), or any of these.
enum class Expect { kShadow, kFallBack, kRestart, kAny };

struct ShadowCase {
  std::string name;
  int ell;
  Expect expect;
  std::unique_ptr<CoordinatePool> columns;
  ColoredPool pool;
};

// d = 54 and 2,600 points: 1.12 MB of coordinates, above kMinBytes.
constexpr int kDim = 54;
constexpr int kPoints = 2600;

Point Make(Coordinates coords, int color, int64_t id) {
  return Point(std::move(coords), color, id, static_cast<uint64_t>(id));
}

// Uniform points offset + spread * [0, 1)^d (or [-1, 1)^d when
// `centred`), of colors in [0, colors).
std::vector<Point> UniformPoints(uint64_t seed, double offset, double spread,
                                 int colors, bool centred = false) {
  Rng rng(seed);
  std::vector<Point> points;
  for (int i = 0; i < kPoints; ++i) {
    Coordinates coords(kDim);
    for (double& x : coords) {
      x = offset + spread * (centred ? rng.NextUniform(-1.0, 1.0)
                                     : rng.NextUniform(0.0, 1.0));
    }
    points.push_back(
        Make(std::move(coords), static_cast<int>(rng.NextBounded(colors)), i));
  }
  return points;
}

ShadowCase Owned(std::string name, int ell, Expect expect,
                 const std::vector<Point>& points) {
  ShadowCase c{std::move(name), ell, expect, nullptr,
               ColoredPool::FromPoints(points)};
  return c;
}

std::vector<ShadowCase> Cases() {
  std::vector<ShadowCase> cases;
  const CovtypeCoreset& covtype = Covtype();
  cases.push_back({"covtype dense-guess coreset", covtype.dataset.ell,
                   Expect::kShadow, nullptr,
                   covtype.guess.CoresetPool(covtype.arena)});
  cases.push_back(
      Owned("uniform", 5, Expect::kShadow, UniformPoints(1, 0.0, 1.0, 5)));
  cases.push_back(Owned("offset 1e9, unit spread", 5, Expect::kShadow,
                        UniformPoints(2, 1e9, 1.0, 5)));
  cases.push_back(Owned("spread 1e-30", 5, Expect::kAny,
                        UniformPoints(3, 0.0, 1e-30, 5)));
  cases.push_back(Owned("spread 2e18", 5, Expect::kFallBack,
                        UniformPoints(4, 0.0, 2e18, 5, /*centred=*/true)));
  {
    // 900 points, each at three positions (two of one color): ties at the
    // maximum and inside color tables between positions far apart.
    const std::vector<Point> base = UniformPoints(5, 0.0, 1.0, 4);
    std::vector<Point> points;
    for (int copy = 0; copy < 3; ++copy) {
      for (int i = 0; i < 900; ++i) {
        Point p = base[i];
        p.id = static_cast<uint64_t>(copy * 900 + i);
        if (copy == 2) p.color = (p.color + 1) % 4;
        points.push_back(p);
      }
    }
    cases.push_back(Owned("duplicates", 4, Expect::kShadow, points));
  }
  {
    // Head 0 at the origin, random points in [0, 1)^d, and eight axis
    // points at exactly 10 from it, two per color, after the first
    // hundred positions: the farthest point and its color's nearest are
    // ties, and the lowest position must win.
    std::vector<Point> points = UniformPoints(6, 0.0, 1.0, 4);
    points[0].coords.assign(kDim, 0.0);
    for (int a = 0; a < 8; ++a) {
      Coordinates coords(kDim, 0.0);
      coords[static_cast<size_t>(a * 5)] = a % 2 == 0 ? 10.0 : -10.0;
      points[static_cast<size_t>(2000 - 200 * a)] =
          Make(std::move(coords), a % 4, 2000 - 200 * a);
    }
    cases.push_back(Owned("exact ties at the maximum", 4, Expect::kShadow,
                          points));
  }
  {
    // Near ties a float cannot tell apart, among points in [0, 0.01)^d.
    // Head 0 is the origin; the farthest point is B at b = 10 (1 + 2^-40)
    // on axis 0, not A at 10, which comes first. Head B's nearest point of
    // color 1 is Q at b - 0.5 (1 - 2^-40), not P at b - 0.5, which comes
    // first. Each pair is one float apart from head 0, so only the exact
    // resolution of the shadow's candidates picks B and Q.
    std::vector<Point> points = UniformPoints(11, 0.0, 0.01, 4);
    points[0].coords.assign(kDim, 0.0);
    const auto on_axis = [&points](size_t position, int color, double x) {
      Coordinates coords(kDim, 0.0);
      coords[0] = x;
      points[position] =
          Make(std::move(coords), color, static_cast<int64_t>(position));
    };
    const double b = 10.0 * (1.0 + 0x1p-40);
    on_axis(100, 0, 10.0);
    on_axis(200, 2, b);
    on_axis(300, 1, b - 0.5);
    on_axis(400, 1, b - 0.5 * (1.0 - 0x1p-40));
    // (Chebyshev distances among the small points tie within the bound,
    // so it may go back to exact rows after the first heads.)
    cases.push_back(Owned("near ties below float precision", 4,
                          Expect::kAny, points));
  }
  {
    // Weight-3 points of {0, 1}^d: most pairs are sqrt(6) apart, so the
    // first shadow decision has hundreds of candidates and the traversal
    // restarts on exact rows.
    Rng rng(7);
    std::set<std::vector<int>> seen;
    std::vector<Point> points;
    while (points.size() < static_cast<size_t>(kPoints)) {
      std::vector<int> ones;
      while (ones.size() < 3) {
        const int d = static_cast<int>(rng.NextBounded(kDim));
        if (std::find(ones.begin(), ones.end(), d) == ones.end()) {
          ones.push_back(d);
        }
      }
      std::sort(ones.begin(), ones.end());
      if (!seen.insert(ones).second) continue;
      Coordinates coords(kDim, 0.0);
      for (int d : ones) coords[static_cast<size_t>(d)] = 1.0;
      points.push_back(Make(std::move(coords),
                            static_cast<int>(points.size() % 3),
                            static_cast<int64_t>(points.size())));
    }
    cases.push_back(Owned("lattice", 3, Expect::kRestart, points));
  }
  cases.push_back(Owned("a color with no member", 4, Expect::kShadow,
                        UniformPoints(8, 0.0, 1.0, 3)));
  {
    // Borrows a column pool whose head sits mid-block after DropFront,
    // skips every ninth column (a slot that is no point of the set) and
    // copies a point before every fourth one.
    ShadowCase c{"borrowing, head mid-block", 4, Expect::kShadow,
                 std::make_unique<CoordinatePool>(kDim), ColoredPool()};
    std::vector<Point> stored = UniformPoints(9, 0.0, 1.0, 4);
    const std::vector<Point> extra = UniformPoints(10, 0.0, 1.0, 4);
    for (const Point& p : stored) c.columns->Append(p);
    constexpr size_t kDropped = 45;
    c.columns->DropFront(kDropped);
    stored.erase(stored.begin(), stored.begin() + kDropped);
    ColoredPool::Builder builder(stored.size(), c.columns.get());
    for (size_t e = 0; e < stored.size(); ++e) {
      if (e % 9 == 5) continue;
      if (e % 4 == 1) builder.Add(extra[e]);
      builder.AddColumn(stored[e], e);
    }
    c.pool = std::move(builder).Build();
    cases.push_back(std::move(c));
  }
  return cases;
}

// One traversal's answers: what GonzalezKCenter returns and what each
// head's `on_head` saw.
struct Traversal {
  GonzalezResult result;
  std::vector<double> next_distance;
  std::vector<std::vector<double>> color_distance;
  std::vector<std::vector<int>> color_index;
};

Traversal Traverse(const Metric& metric, const ColoredPool& pool, int k,
                   int ell) {
  Traversal t;
  t.result = GonzalezKCenter(
      metric, pool, k, 0,
      [&](const GonzalezHead& head) {
        t.next_distance.push_back(head.next_distance);
        t.color_distance.emplace_back(head.color_distance,
                                      head.color_distance + ell);
        t.color_index.emplace_back(head.color_index, head.color_index + ell);
        return true;
      },
      nullptr, ell);
  return t;
}

TEST(ShadowGonzalezTest, TraversalsMatchExactRows) {
  for (const ShadowCase& c : Cases()) {
    ASSERT_GT(c.pool.slot_count() * c.pool.dim() * sizeof(double),
              ShadowPool::kMinBytes)
        << c.name;
    for (const Metric* metric : kBuiltIns) {
      ASSERT_TRUE(ShadowPool::Serves(*metric, c.pool));
      const ExactScanMetric exact(metric);
      ASSERT_FALSE(ShadowPool::Serves(exact, c.pool));
      for (int k : {1, 5, 27}) {
        SCOPED_TRACE(c.name + " " + metric->Name() + " k=" +
                     std::to_string(k));
        const Traversal got = Traverse(*metric, c.pool, k, c.ell);
        const Traversal want = Traverse(exact, c.pool, k, c.ell);
        EXPECT_EQ(want.result.shadow_rows, 0);
        ASSERT_EQ(got.result.head_indices, want.result.head_indices);
        ASSERT_EQ(got.result.insertion_distances.size(),
                  want.result.insertion_distances.size());
        for (size_t j = 0; j < want.result.head_indices.size(); ++j) {
          SCOPED_TRACE("head " + std::to_string(j));
          EXPECT_TRUE(SameBits(got.result.insertion_distances[j],
                               want.result.insertion_distances[j]));
          EXPECT_TRUE(SameBits(got.next_distance[j], want.next_distance[j]));
          EXPECT_TRUE(SameBits(got.color_distance[j], want.color_distance[j]));
          EXPECT_EQ(got.color_index[j], want.color_index[j]);
        }
        EXPECT_TRUE(SameBits(got.result.coverage_radius,
                             want.result.coverage_radius));
        if (c.name == "near ties below float precision" && k > 1) {
          // The case reaches what it is there for.
          EXPECT_EQ(want.result.head_indices[1], 200);
          EXPECT_EQ(want.color_index[1][1], 400);
          EXPECT_GT(got.result.resolved_pairs, 0);
        }
        // Whether the shadow served the traversal, declined, or gave up.
        const int64_t later_heads =
            static_cast<int64_t>(want.result.head_indices.size()) - 1;
        switch (c.expect) {
          case Expect::kShadow:
            EXPECT_EQ(got.result.shadow_rows, later_heads);
            EXPECT_GT(got.result.row_error, 0.0);
            break;
          case Expect::kFallBack:
            EXPECT_EQ(got.result.shadow_rows, 0);
            EXPECT_EQ(got.result.resolved_pairs, 0);
            break;
          case Expect::kRestart:
            if (k > 1) {
              EXPECT_GT(got.result.shadow_rows, 0);
              EXPECT_EQ(got.result.row_error, 0.0);
            }
            break;
          case Expect::kAny:
            break;
        }
      }
    }
  }
}

TEST(ShadowGonzalezTest, JonesMatchesExactRows) {
  for (const ShadowCase& c : Cases()) {
    std::vector<int> caps(c.ell);
    for (int color = 0; color < c.ell; ++color) caps[color] = 1 + color % 3;
    const ColorConstraint constraint =
        c.name == "covtype dense-guess coreset" ? Covtype().constraint
                                                : ColorConstraint(caps);
    for (const Metric* metric : kBuiltIns) {
      SCOPED_TRACE(c.name + " " + metric->Name());
      const ExactScanMetric exact(metric);
      const auto got = JonesFairCenter().SolvePool(*metric, c.pool, constraint);
      const auto want = JonesFairCenter().SolvePool(exact, c.pool, constraint);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(want.value().shadow_rows, 0);
      EXPECT_EQ(want.value().resolved_pairs, 0);
      if (c.expect == Expect::kShadow) {
        EXPECT_GT(got.value().shadow_rows, 0);
      }
      if (c.expect == Expect::kFallBack) {
        EXPECT_EQ(got.value().shadow_rows, 0);
      }
      EXPECT_TRUE(SameBits(got.value().radius, want.value().radius))
          << got.value().radius << " vs " << want.value().radius;
      ASSERT_EQ(got.value().centers.size(), want.value().centers.size());
      for (size_t i = 0; i < want.value().centers.size(); ++i) {
        const Point& a = got.value().centers[i];
        const Point& b = want.value().centers[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.color, b.color);
        EXPECT_EQ(a.arrival, b.arrival);
        EXPECT_EQ(std::memcmp(a.coords.data(), b.coords.data(),
                              a.coords.size() * sizeof(double)),
                  0);
      }
    }
  }
}

// Aligned storage for kernel inputs: a dim-major block of `stride`
// elements per row, filled by `value(d, i)`.
template <typename T, typename F>
std::vector<T> Block(size_t dim, size_t stride, F value) {
  std::vector<T> block(dim * stride, T(0));
  for (size_t d = 0; d < dim; ++d) {
    for (size_t i = 0; i < stride; ++i) block[d * stride + i] = value(d, i);
  }
  return block;
}

TEST(ShadowKernelTest, EveryWidthMatchesTheScalarKernels) {
  const simd::KernelSet& scalar = simd::ScalarKernels();
  Rng rng(11);
  constexpr size_t kStride = CoordinatePool::kRowStride;
  constexpr size_t kFloatStride = ShadowPool::kRowStride;
  for (const simd::KernelSet* set : simd::CompiledKernelSets()) {
    if (!simd::CpuSupports(*set)) continue;
    for (size_t dim : {1u, 5u, 54u}) {
      for (size_t count : {1u, 7u, 8u, 15u, 16u, 17u, 63u, 64u, 65u, 127u,
                           128u}) {
        SCOPED_TRACE(std::string(set->name) + " dim=" + std::to_string(dim) +
                     " count=" + std::to_string(count));
        // Doubles of mixed scales, with NaN and out-of-float-range
        // differences in some lanes.
        const std::vector<double> data =
            Block<double>(dim, kStride, [&](size_t d, size_t i) {
              if (i % 29 == 3 && d == 0) return 1e300;
              if (i % 31 == 4 && d + 1 == dim) {
                return std::numeric_limits<double>::quiet_NaN();
              }
              return rng.NextUniform(-1.0, 1.0) * std::ldexp(1.0, i % 40);
            });
        std::vector<double> query(dim);
        for (double& x : query) x = rng.NextUniform(-1.0, 1.0);
        const std::vector<float> floats =
            Block<float>(dim, kFloatStride, [&](size_t, size_t i) {
              return static_cast<float>(rng.NextUniform(-1.0, 1.0) *
                                        std::ldexp(1.0, i % 20));
            });
        std::vector<float> float_query(dim);
        for (float& x : float_query) {
          x = static_cast<float>(rng.NextUniform(-1.0, 1.0));
        }
        const simd::ShadowFillKernel fills[3][2] = {
            {scalar.euclidean_fill, set->euclidean_fill},
            {scalar.manhattan_fill, set->manhattan_fill},
            {scalar.chebyshev_fill, set->chebyshev_fill}};
        const simd::ShadowKernel scans[3][2] = {
            {scalar.euclidean_shadow, set->euclidean_shadow},
            {scalar.manhattan_shadow, set->manhattan_shadow},
            {scalar.chebyshev_shadow, set->chebyshev_shadow}};
        const simd::DistanceKernel exacts[3] = {
            scalar.euclidean, scalar.manhattan, scalar.chebyshev};
        for (int m = 0; m < 3; ++m) {
          std::vector<double> out[2];
          std::vector<float> shadow[2];
          for (int w = 0; w < 2; ++w) {
            out[w].assign(count, 0.0);
            shadow[w].assign(dim * kFloatStride, 0.0f);
            fills[m][w](query.data(), data.data(), kStride, dim, count,
                        shadow[w].data(), kFloatStride, out[w].data());
          }
          std::vector<double> want(count);
          exacts[m](query.data(), data.data(), kStride, dim, count,
                    want.data());
          EXPECT_TRUE(SameBits(out[0], want));
          EXPECT_TRUE(SameBits(out[1], want));
          for (size_t d = 0; d < dim; ++d) {
            for (size_t i = 0; i < count; ++i) {
              const double diff = query[d] - data[d * kStride + i];
              const float expected = simd::ShadowValue(diff);
              for (int w = 0; w < 2; ++w) {
                const float got = shadow[w][d * kFloatStride + i];
                ASSERT_EQ(std::memcmp(&got, &expected, sizeof(float)), 0)
                    << "fill " << m << " width " << w << " d=" << d
                    << " i=" << i;
              }
            }
          }
          std::vector<double> scan[2];
          for (int w = 0; w < 2; ++w) {
            scan[w].assign(count, 0.0);
            scans[m][w](float_query.data(), floats.data(), kFloatStride, dim,
                        count, scan[w].data());
          }
          EXPECT_TRUE(SameBits(scan[0], scan[1])) << "scan " << m;
        }
      }
    }
  }
}

TEST(ShadowCandidatesTest, FindsTheSlotsOfEitherTestUpToTheLimit) {
  Rng rng(12);
  constexpr size_t kCount = 1003;
  std::vector<double> row(kCount);
  std::vector<double> nearest(kCount);
  std::vector<int> color(kCount);
  for (size_t s = 0; s < kCount; ++s) {
    row[s] = rng.NextUniform(0.0, 10.0);
    nearest[s] = s % 17 == 0 ? -kInf : rng.NextUniform(0.0, 10.0);
    color[s] = static_cast<int>(rng.NextBounded(4));
  }
  const std::vector<double> bound = {0.5, 0.1, -kInf, 2.0, -kInf};
  for (const int* colors : {static_cast<const int*>(nullptr),
                            static_cast<const int*>(color.data())}) {
    std::vector<size_t> all;
    for (size_t s = 0; s < kCount; ++s) {
      if (nearest[s] >= 9.5 ||
          (colors != nullptr && row[s] <= bound[color[s]])) {
        all.push_back(s);
      }
    }
    ASSERT_GT(all.size(), 5u);
    for (size_t limit : {0u, 5u, 1000u}) {
      SCOPED_TRACE("limit=" + std::to_string(limit));
      std::vector<size_t> got(kCount);
      const size_t found =
          ShadowPool::Candidates(row.data(), nearest.data(), colors,
                                 bound.data(), kCount, 9.5, limit, got.data());
      EXPECT_EQ(found, all.size() > limit ? limit + 1 : all.size());
      const size_t written = std::min(found, limit);
      EXPECT_TRUE(std::equal(got.begin(), got.begin() + written,
                             all.begin()));
    }
  }
}

// Points of dimension `dim` from `coordinate(i, d)`, colors 0.
ColoredPool PoolOf(size_t n, size_t dim,
                   const std::function<double(size_t, size_t)>& coordinate) {
  std::vector<Point> points;
  for (size_t i = 0; i < n; ++i) {
    Coordinates coords(dim);
    for (size_t d = 0; d < dim; ++d) coords[d] = coordinate(i, d);
    points.push_back(Make(std::move(coords), 0, static_cast<int64_t>(i)));
  }
  return ColoredPool::FromPoints(points);
}

TEST(ShadowErrorTest, BoundsEveryPairOnAdversarialPools) {
  Rng rng(13);
  struct Adversary {
    std::string name;
    ColoredPool pool;
  };
  const auto uniform = [&rng](double offset, double spread) {
    return [&rng, offset, spread](size_t, size_t) {
      return offset + spread * rng.NextUniform(-1.0, 1.0);
    };
  };
  std::vector<Adversary> pools;
  double worst = 0.0;  // the largest error seen, as a share of the bound
  pools.push_back({"offset 1e9, unit spread", PoolOf(300, 54, uniform(1e9, 1.0))});
  pools.push_back({"offset 1e15, spread 0.25",
                   PoolOf(300, 20, uniform(1e15, 0.25))});
  pools.push_back({"mixed scales", PoolOf(300, 54, [&rng](size_t, size_t d) {
                     return rng.NextUniform(-1.0, 1.0) *
                            (d == 0 ? 1e6 : d % 2 == 0 ? 1e-6 : 1.0);
                   })});
  // Differences at the midpoints between floats, where conversion rounds
  // to even, and at float's precision edge.
  pools.push_back({"float midpoints", PoolOf(300, 54, [&rng](size_t i,
                                                             size_t d) {
                     if (i == 0) return 0.0;
                     const double k = static_cast<double>(rng.NextBounded(
                         1u << 24));
                     return std::ldexp(k + 0.5, -24 + static_cast<int>(d % 8)) *
                            (d % 3 == 0 ? -1.0 : 1.0);
                   })});
  pools.push_back({"float subnormal range",
                   PoolOf(300, 54, uniform(0.0, 1e-40))});
  pools.push_back({"d = 600", PoolOf(200, 600, uniform(0.0, 1.0))});
  pools.push_back({"spread 1e16", PoolOf(300, 8, uniform(0.0, 1e16))});
  pools.push_back({"duplicates", PoolOf(300, 54, [](size_t i, size_t d) {
                     return std::sin(static_cast<double>((i % 7) * 54 + d));
                   })});
  for (const Adversary& a : pools) {
    for (const Metric* metric : kBuiltIns) {
      SCOPED_TRACE(a.name + " " + metric->Name());
      const ColoredPool& pool = a.pool;
      const size_t stride = pool.slot_count();
      std::vector<double> row(stride);
      std::vector<double> exact_row(stride);
      ShadowPool shadow;
      const Point head = pool.At(0);
      const bool usable = shadow.Fill(*metric, pool, head, row.data());
      pool.DistanceRow(*metric, head, exact_row.data());
      EXPECT_TRUE(SameBits(row, exact_row));
      if (a.name == "float subnormal range" && metric == &kEuclidean) {
        // Every square underflows float: nothing to separate.
        EXPECT_FALSE(usable);
        continue;
      }
      ASSERT_TRUE(usable);
      const double radius = *std::max_element(row.begin(), row.end());
      EXPECT_GT(shadow.error(), 0.0);
      EXPECT_LT(shadow.error(), radius / 64.0);
      for (size_t h = 0; h < pool.size(); h += 7) {
        const Point center = pool.At(h);
        shadow.Row(pool.slot(h), h % 2 == 0 ? ScanOrder::kForward
                                            : ScanOrder::kBackward,
                   row.data());
        for (size_t i = 0; i < pool.size(); ++i) {
          const double exact = metric->Distance(center, pool.At(i));
          const double error = std::fabs(row[pool.slot(i)] - exact);
          ASSERT_LE(error, shadow.error())
              << "pair " << h << ", " << i << ": " << row[pool.slot(i)]
              << " vs " << exact;
          worst = std::max(worst, error / shadow.error());
        }
      }
    }
  }
  // Some pairs do round (the shadow is not exact everywhere), and the
  // bound is not loose by orders of magnitude on all of them.
  EXPECT_GT(worst, 1e-3);
}

TEST(ShadowErrorTest, FillDeclinesWhereFloatIsUnsafe) {
  Rng rng(14);
  std::vector<std::pair<std::string, ColoredPool>> pools;
  pools.emplace_back("spread 4e18", PoolOf(100, 8, [&rng](size_t, size_t) {
                       return rng.NextUniform(-2e18, 2e18);
                     }));
  pools.emplace_back("overflowing distances",
                     PoolOf(100, 3, [&rng](size_t, size_t) {
                       return rng.NextUniform(-1.0, 1.0) * 1e308;
                     }));
  pools.emplace_back("coincident", PoolOf(100, 5, [](size_t, size_t d) {
                       return static_cast<double>(d);
                     }));
  pools.emplace_back("spread 1e-310", PoolOf(100, 5, [&rng](size_t, size_t) {
                       return rng.NextUniform(-1.0, 1.0) * 1e-310;
                     }));
  for (const auto& [name, pool] : pools) {
    for (const Metric* metric : kBuiltIns) {
      SCOPED_TRACE(name + " " + metric->Name());
      std::vector<double> row(pool.slot_count());
      std::vector<double> exact_row(pool.slot_count());
      ShadowPool shadow;
      EXPECT_FALSE(shadow.Fill(*metric, pool, pool.At(0), row.data()));
      pool.DistanceRow(*metric, pool.At(0), exact_row.data());
      EXPECT_TRUE(SameBits(row, exact_row));
    }
  }
}

}  // namespace
}  // namespace fkc
