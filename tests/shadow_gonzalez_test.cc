// Tests for the float32 shadow (metric/shadow_pool.h) over the pools'
// twins (metric/coordinate_pool.h). Gonzalez and Jones on each built-in
// metric, over pools large enough for a twin, must give the heads,
// insertion distances, per-head color tables, centers and radius of the
// same metric behind tests/exact_scan_metric.h (exact rows), bit for bit:
// on owned and borrowing pools, after the reference column has expired,
// and on a restored window. Jones's radius taken from the traversal must
// equal ClusteringRadius. The shadow kernels of every compiled width must
// match the scalar ones bit for bit, and the shadow's error bound must hold
// against exact distances on adversarial pairs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/fair_center_sliding_window.h"
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
#include "sequential/radius.h"

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
// shadow must do on it: serve every head, decline at Create (fall back), go
// back to exact rows after a resolution (restart), or any of these.
enum class Expect { kShadow, kFallBack, kRestart, kAny };

struct ShadowCase {
  std::string name;
  int ell;
  Expect expect;
  std::unique_ptr<CoordinatePool> columns;
  ColoredPool pool;
};

// d = 54 and 2,600 points: 1.12 MB of coordinates, above kTwinMinBytes.
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
    // copies a point before every fourth one. The pool made its twin on
    // the append that took it past kTwinMinBytes, centred on position 0, which
    // DropFront then removed: the reference has expired.
    ShadowCase c{"borrowing, head mid-block", 4, Expect::kShadow,
                 std::make_unique<CoordinatePool>(kDim), ColoredPool()};
    std::vector<Point> stored = UniformPoints(9, 0.0, 1.0, 4);
    const std::vector<Point> extra = UniformPoints(10, 0.0, 1.0, 4);
    for (const Point& p : stored) c.columns->Append(p);
    constexpr size_t kDropped = 45;
    EXPECT_TRUE(c.columns->has_twin());
    EXPECT_EQ(c.columns->twin_reference(), stored[0].coords);
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
              CoordinatePool::kTwinMinBytes)
        << c.name;
    if (c.pool.borrowed() != nullptr) {
      // The copied columns' twin shares the borrowed one's reference.
      ASSERT_GT(c.pool.copied(), 0u) << c.name;
      ASSERT_EQ(c.pool.owned().twin_reference(),
                c.pool.borrowed()->twin_reference());
    }
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
        // Served, every head reads a shadow row, head 0 included.
        const int64_t heads =
            static_cast<int64_t>(want.result.head_indices.size());
        switch (c.expect) {
          case Expect::kShadow:
            EXPECT_EQ(got.result.shadow_rows, heads);
            EXPECT_GT(got.result.resolved_pairs, 0);
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
      // Both solves may take the radius from their traversal; the
      // definition reads every point.
      EXPECT_TRUE(SameBits(
          got.value().radius,
          ClusteringRadius(exact, c.pool.ToPoints(), got.value().centers)));
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
  constexpr size_t kFloatStride = CoordinatePool::kTwinStride;
  for (const simd::KernelSet* set : simd::CompiledKernelSets()) {
    if (!simd::CpuSupports(*set)) continue;
    for (size_t dim : {1u, 5u, 54u}) {
      for (size_t count : {1u, 7u, 8u, 15u, 16u, 17u, 63u, 64u, 65u, 127u,
                           128u}) {
        SCOPED_TRACE(std::string(set->name) + " dim=" + std::to_string(dim) +
                     " count=" + std::to_string(count));
        // Floats of mixed scales, read from a mid-row offset too: a span
        // that starts mid-block reads into the row's slack.
        const std::vector<float> floats =
            Block<float>(dim, kFloatStride, [&](size_t, size_t i) {
              return static_cast<float>(rng.NextUniform(-1.0, 1.0) *
                                        std::ldexp(1.0, i % 20));
            });
        std::vector<float> float_query(dim);
        for (float& x : float_query) {
          x = static_cast<float>(rng.NextUniform(-1.0, 1.0));
        }
        const size_t offset = CoordinatePool::kBlockLanes - count;
        for (size_t m = 0; m < simd::kNormCount; ++m) {
          const simd::ShadowKernel scans[2] = {scalar.norm[m].shadow,
                                               set->norm[m].shadow};
          for (size_t first : {size_t{0}, offset}) {
            std::vector<double> scan[2];
            for (int w = 0; w < 2; ++w) {
              scan[w].assign(count, 0.0);
              scans[w](float_query.data(), floats.data() + first,
                       kFloatStride, dim, count, scan[w].data());
            }
            EXPECT_TRUE(SameBits(scan[0], scan[1]))
                << "scan " << m << " first=" << first;
          }
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

// Points of dimension `dim` from `coordinate(i, d)`, colors 0: just enough
// of them for a twin (past kTwinMinBytes of coordinates), or `n`.
ColoredPool PoolOf(size_t dim,
                   const std::function<double(size_t, size_t)>& coordinate,
                   size_t n = 0) {
  if (n == 0) n = CoordinatePool::kTwinMinBytes / (dim * sizeof(double)) + 1;
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
  pools.push_back({"offset 1e9, unit spread", PoolOf(54, uniform(1e9, 1.0))});
  pools.push_back({"offset 1e15, spread 0.25",
                   PoolOf(20, uniform(1e15, 0.25))});
  pools.push_back({"mixed scales", PoolOf(54, [&rng](size_t, size_t d) {
                     return rng.NextUniform(-1.0, 1.0) *
                            (d == 0 ? 1e6 : d % 2 == 0 ? 1e-6 : 1.0);
                   })});
  // Differences at the midpoints between floats, where conversion rounds
  // to even, and at float's precision edge (the reference, position 0, is
  // the origin).
  pools.push_back({"float midpoints", PoolOf(54, [&rng](size_t i, size_t d) {
                     if (i == 0) return 0.0;
                     const double k = static_cast<double>(rng.NextBounded(
                         1u << 24));
                     return std::ldexp(k + 0.5, -24 + static_cast<int>(d % 8)) *
                            (d % 3 == 0 ? -1.0 : 1.0);
                   })});
  pools.push_back({"float subnormal range", PoolOf(54, uniform(0.0, 1e-40))});
  pools.push_back({"d = 600", PoolOf(600, uniform(0.0, 1.0))});
  pools.push_back({"spread 1e16", PoolOf(8, uniform(0.0, 1e16))});
  pools.push_back({"duplicates", PoolOf(54, [](size_t i, size_t d) {
                     return std::sin(static_cast<double>((i % 7) * 54 + d));
                   })});
  for (const Adversary& a : pools) {
    for (const Metric* metric : kBuiltIns) {
      SCOPED_TRACE(a.name + " " + metric->Name());
      const ColoredPool& pool = a.pool;
      ASSERT_TRUE(ShadowPool::Serves(*metric, pool));
      std::optional<ShadowPool> shadow = ShadowPool::Create(*metric, pool);
      if (a.name == "float subnormal range" && metric == &kEuclidean) {
        // Every square underflows float: nothing to separate.
        EXPECT_FALSE(shadow.has_value());
        continue;
      }
      ASSERT_TRUE(shadow.has_value());
      EXPECT_GT(shadow->error(), 0.0);
      std::vector<double> row(pool.slot_count());
      // About 40 heads, each against every point.
      const size_t step = pool.size() / 40 + 1;
      for (size_t h = 0; h < pool.size(); h += step) {
        const Point center = pool.At(h);
        shadow->Row(pool.slot(h), h % 2 == 0 ? ScanOrder::kForward
                                             : ScanOrder::kBackward,
                    row.data());
        for (size_t i = 0; i < pool.size(); ++i) {
          const double exact = metric->Distance(center, pool.At(i));
          const double error = std::fabs(row[pool.slot(i)] - exact);
          ASSERT_LE(error, shadow->error())
              << "pair " << h << ", " << i << ": " << row[pool.slot(i)]
              << " vs " << exact;
          worst = std::max(worst, error / shadow->error());
        }
      }
    }
  }
  // Some pairs do round (the shadow is not exact everywhere), and the
  // bound is not loose by orders of magnitude on all of them.
  EXPECT_GT(worst, 1e-3);
}

TEST(ShadowErrorTest, CreateDeclinesWhereFloatIsUnsafe) {
  Rng rng(14);
  std::vector<std::pair<std::string, ColoredPool>> pools;
  pools.emplace_back("spread 4e18", PoolOf(8, [&rng](size_t, size_t) {
                       return rng.NextUniform(-2e18, 2e18);
                     }));
  pools.emplace_back("overflowing distances", PoolOf(3, [&rng](size_t, size_t) {
                       return rng.NextUniform(-1.0, 1.0) * 1e308;
                     }));
  pools.emplace_back("coincident", PoolOf(5, [](size_t, size_t d) {
                       return static_cast<double>(d);
                     }));
  pools.emplace_back("spread 1e-310", PoolOf(5, [&rng](size_t, size_t) {
                       return rng.NextUniform(-1.0, 1.0) * 1e-310;
                     }));
  // One NaN coordinate: the twin stores 0 for it and its extent is +inf.
  pools.emplace_back("a NaN coordinate", PoolOf(54, [&rng](size_t i, size_t d) {
                       return i == 700 && d == 3
                                  ? std::numeric_limits<double>::quiet_NaN()
                                  : rng.NextUniform(-1.0, 1.0);
                     }));
  for (const auto& [name, pool] : pools) {
    for (const Metric* metric : kBuiltIns) {
      SCOPED_TRACE(name + " " + metric->Name());
      EXPECT_TRUE(ShadowPool::Serves(*metric, pool));
      EXPECT_FALSE(ShadowPool::Create(*metric, pool).has_value());
    }
  }
  // Pools under kTwinMinBytes keep no twin, and decorators get no shadow.
  const ColoredPool small = PoolOf(54, [&rng](size_t, size_t) {
    return rng.NextUniform(-1.0, 1.0);
  }, 2000);
  EXPECT_FALSE(small.owned().has_twin());
  EXPECT_FALSE(ShadowPool::Serves(kEuclidean, small));
}

// Whether `centers` (whose ids are pool positions) are, as a set, the first
// centers.size() heads of Gonzalez's traversal, the case in which Jones
// takes its radius from the traversal.
bool CentersAreAHeadPrefix(const Metric& metric,
                           const std::vector<Point>& points, int k,
                           const std::vector<Point>& centers) {
  const GonzalezResult heads = GonzalezKCenter(metric, points, k);
  if (centers.size() > heads.head_indices.size()) return false;
  std::vector<int> prefix(heads.head_indices.begin(),
                          heads.head_indices.begin() + centers.size());
  std::vector<int> ids;
  for (const Point& c : centers) ids.push_back(static_cast<int>(c.id));
  std::sort(prefix.begin(), prefix.end());
  std::sort(ids.begin(), ids.end());
  return prefix == ids;
}

TEST(RadiusShortcutTest, EqualsClusteringRadius) {
  // Small pools on a coarse grid (ties everywhere), with copies of later
  // points at lower positions in another color, and caps that leave some
  // heads no center of their own color: Jones's radius equals the
  // definition whether its centers are a head prefix (the traversal's
  // radius) or not (a center that is a copy or another color's point).
  int prefix_cases = 0;
  int other_cases = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const int ell = 1 + static_cast<int>(seed % 4);
    const size_t n = 30 + 3 * seed;
    std::vector<Point> points;
    for (size_t i = 0; i < n; ++i) {
      Coordinates coords(3);
      for (double& x : coords) x = static_cast<double>(rng.NextBounded(7));
      points.push_back(Make(std::move(coords),
                            static_cast<int>(rng.NextBounded(ell)),
                            static_cast<int64_t>(i)));
    }
    if (seed % 3 == 0) {
      // A lower-position copy in another color of every fifth point of
      // the second half.
      for (size_t i = n / 2; i < n; i += 5) {
        Point& copy = points[i - n / 2];
        copy.coords = points[i].coords;
        copy.color = (points[i].color + 1) % ell;
      }
    }
    std::vector<int> caps(ell);
    for (int c = 0; c < ell; ++c) {
      caps[c] = seed % 2 == 0 ? 1 : 1 + static_cast<int>(rng.NextBounded(3));
    }
    const ColorConstraint constraint(caps);
    for (const Metric* metric : kBuiltIns) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " + metric->Name());
      const auto solved = JonesFairCenter().Solve(*metric, points, constraint);
      ASSERT_TRUE(solved.ok()) << solved.status().ToString();
      const std::vector<Point>& centers = solved.value().centers;
      EXPECT_TRUE(SameBits(solved.value().radius,
                           ClusteringRadius(*metric, points, centers)));
      if (CentersAreAHeadPrefix(*metric, points, constraint.TotalK(),
                                centers)) {
        ++prefix_cases;
      } else {
        ++other_cases;
      }
    }
  }
  EXPECT_GT(prefix_cases, 20);
  EXPECT_GT(other_cases, 20);
}

TEST(RadiusShortcutTest, CovtypeCentersAreAHeadPrefix) {
  // The covtype query's centers are its first heads, so its radius is the
  // traversal's: the solve reads no row after the traversal.
  const CovtypeCoreset& covtype = Covtype();
  const ColoredPool pool = covtype.guess.CoresetPool(covtype.arena);
  const auto solved =
      JonesFairCenter().SolvePool(kEuclidean, pool, covtype.constraint);
  ASSERT_TRUE(solved.ok());
  const std::vector<Point> points = pool.ToPoints();
  std::vector<Point> centers;
  for (const Point& c : solved.value().centers) {
    // Ids here are arrivals; the prefix test wants positions.
    const auto at = std::find_if(points.begin(), points.end(),
                                 [&c](const Point& p) { return p.id == c.id; });
    ASSERT_NE(at, points.end());
    Point center = c;
    center.id = static_cast<uint64_t>(at - points.begin());
    centers.push_back(center);
  }
  EXPECT_TRUE(CentersAreAHeadPrefix(kEuclidean, points,
                                    covtype.constraint.TotalK(), centers));
  EXPECT_TRUE(SameBits(solved.value().radius,
                       ClusteringRadius(kEuclidean, points,
                                        solved.value().centers)));
}

TEST(ShadowWindowTest, RestoredWindowQueriesOnTheShadow) {
  // A covtype window whose dense guesses keep twins: its query, and the
  // query of the window restored from its checkpoint (whose pools rebuild
  // their twins on other references), read shadow rows, report them in
  // QueryStats, and answer as Jones on exact rows over the same coreset.
  const CovtypeCoreset& covtype = Covtype();
  SlidingWindowOptions options;
  options.window_size = 4000;
  options.delta = 0.5;
  options.adaptive_range = true;
  const JonesFairCenter jones;
  auto made = FairCenterSlidingWindow::Create(options, covtype.constraint,
                                              &kEuclidean, &jones);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  FairCenterSlidingWindow window = std::move(made).value();
  for (size_t t = 0; t < 4500; ++t) {
    const Point& p = covtype.dataset.points[t];
    ASSERT_TRUE(window.Update(p.coords, p.color).ok());
  }
  auto restored = FairCenterSlidingWindow::DeserializeState(
      window.SerializeState(), &kEuclidean, &jones);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const ExactScanMetric exact(&kEuclidean);
  std::vector<Point> answer;
  double radius = 0.0;
  for (FairCenterSlidingWindow* w : {&window, &restored.value()}) {
    SCOPED_TRACE(w == &window ? "original" : "restored");
    QueryStats stats;
    const auto got = w->Query(&stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_GT(stats.shadow_rows, 0);
    EXPECT_GT(stats.resolved_pairs, 0);
    EXPECT_EQ(stats.shadow_rows, got.value().shadow_rows);
    EXPECT_EQ(stats.resolved_pairs, got.value().resolved_pairs);
    auto plan = w->PlanQuery();
    ASSERT_TRUE(plan.ok());
    const auto want =
        jones.SolvePool(exact, plan.value().coreset, covtype.constraint);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(want.value().shadow_rows, 0);
    EXPECT_TRUE(SameBits(got.value().radius, want.value().radius));
    ASSERT_EQ(got.value().centers.size(), want.value().centers.size());
    for (size_t i = 0; i < want.value().centers.size(); ++i) {
      EXPECT_EQ(got.value().centers[i].id, want.value().centers[i].id);
    }
    if (answer.empty()) {
      answer = got.value().centers;
      radius = got.value().radius;
    } else {
      EXPECT_TRUE(SameBits(got.value().radius, radius));
      ASSERT_EQ(got.value().centers.size(), answer.size());
      for (size_t i = 0; i < answer.size(); ++i) {
        EXPECT_EQ(got.value().centers[i].id, answer[i].id);
      }
    }
  }
}

}  // namespace
}  // namespace fkc
