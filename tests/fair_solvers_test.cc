// Tests for the fairness constraint and the sequential fair-center solvers
// (Jones, ChenEtAl, brute force): feasibility, approximation guarantees
// against exact optima, and edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/random.h"
#include "matching/capacitated_matching.h"
#include "metric/counting_metric.h"
#include "metric/metric.h"
#include "sequential/brute_force.h"
#include "sequential/chen_matroid_center.h"
#include "sequential/gonzalez.h"
#include "sequential/jones_fair_center.h"
#include "sequential/radius.h"

namespace fkc {
namespace {

const EuclideanMetric kMetric;

Point P(std::initializer_list<double> coords, int color) {
  return Point(Coordinates(coords), color);
}

// One-dimensional shorthand.
Point P(double x, int color) { return Point({x}, color); }

std::vector<Point> RandomColored(int n, int dim, int ell, uint64_t seed,
                                 double side = 100.0) {
  Rng rng(seed);
  std::vector<Point> points;
  for (int i = 0; i < n; ++i) {
    Coordinates coords(dim);
    for (double& x : coords) x = rng.NextUniform(0, side);
    points.emplace_back(std::move(coords),
                        static_cast<int>(rng.NextBounded(ell)));
  }
  return points;
}

TEST(ColorConstraintTest, BasicAccessors) {
  const ColorConstraint constraint({2, 0, 3});
  EXPECT_EQ(constraint.ell(), 3);
  EXPECT_EQ(constraint.TotalK(), 5);
  EXPECT_EQ(constraint.cap(0), 2);
  EXPECT_EQ(constraint.cap(1), 0);
}

TEST(ColorConstraintTest, UniformFactory) {
  const ColorConstraint constraint = ColorConstraint::Uniform(7, 3);
  EXPECT_EQ(constraint.ell(), 7);
  EXPECT_EQ(constraint.TotalK(), 21);
}

TEST(ColorConstraintTest, FeasibilityChecksCapsAndRange) {
  const ColorConstraint constraint({1, 2});
  EXPECT_TRUE(constraint.IsFeasible({}));
  EXPECT_TRUE(constraint.IsFeasible({P(0, 0), P(1, 1), P(2, 1)}));
  EXPECT_FALSE(constraint.IsFeasible({P(0, 0), P(1, 0)}));  // cap 0 exceeded
  EXPECT_FALSE(constraint.IsFeasible({P(0, 2)}));           // color range
  EXPECT_FALSE(constraint.IsFeasible({P(0, -1)}));
}

TEST(ColorConstraintTest, ProportionalMatchesFrequencies) {
  // 80 points of color 0, 20 of color 1; total_k = 10 -> caps 8 and 2.
  std::vector<Point> points;
  for (int i = 0; i < 80; ++i) points.push_back(P(i, 0));
  for (int i = 0; i < 20; ++i) points.push_back(P(i, 1));
  const ColorConstraint constraint =
      ColorConstraint::Proportional(points, 2, 10);
  EXPECT_EQ(constraint.TotalK(), 10);
  EXPECT_EQ(constraint.cap(0), 8);
  EXPECT_EQ(constraint.cap(1), 2);
}

TEST(ColorConstraintTest, ProportionalGuaranteesOccurringColors) {
  // A very rare color still gets one slot when the budget allows.
  std::vector<Point> points;
  for (int i = 0; i < 1000; ++i) points.push_back(P(i, 0));
  points.push_back(P(-1, 1));
  const ColorConstraint constraint =
      ColorConstraint::Proportional(points, 2, 14);
  EXPECT_EQ(constraint.TotalK(), 14);
  EXPECT_GE(constraint.cap(1), 1);
}

TEST(ColorConstraintTest, ProportionalPaperSetup) {
  // The paper's configuration: sum k_i = 14 over 7 colors, proportional.
  Rng rng(3);
  std::vector<Point> points;
  for (int i = 0; i < 7000; ++i) {
    points.push_back(P(i, static_cast<int>(rng.NextBounded(7))));
  }
  const ColorConstraint constraint =
      ColorConstraint::Proportional(points, 7, 14);
  EXPECT_EQ(constraint.TotalK(), 14);
  // Balanced colors: each gets k_i = 2 >= 2 centers (the paper chose 14 so
  // that balanced proportions allow at least two centers per color).
  for (int c = 0; c < 7; ++c) EXPECT_EQ(constraint.cap(c), 2);
}

TEST(ColorConstraintTest, CountColorsIgnoresOutOfRange) {
  const ColorConstraint constraint({1, 1});
  const auto counts = constraint.CountColors({P(0, 0), P(1, 0), P(2, 7)});
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 0);
}

TEST(RadiusTest, EmptyWindowAndEmptyCenters) {
  EXPECT_EQ(ClusteringRadius(kMetric, {}, {}), 0.0);
  EXPECT_TRUE(std::isinf(ClusteringRadius(kMetric, {P({0}, 0)}, {})));
}

TEST(RadiusTest, KnownRadius) {
  const std::vector<Point> window = {P({0}, 0), P({4}, 0), P({10}, 0)};
  const std::vector<Point> centers = {P({0}, 0), P({10}, 0)};
  EXPECT_DOUBLE_EQ(ClusteringRadius(kMetric, window, centers), 4.0);
}

TEST(BruteForceTest, FindsExactOptimum) {
  // Two tight pairs; with one center per color the best radius is forced.
  const std::vector<Point> points = {P({0}, 0), P({1}, 1), P({10}, 0),
                                     P({11}, 1)};
  auto result = BruteForceFairCenter(kMetric, points, ColorConstraint({1, 1}));
  ASSERT_TRUE(result.ok());
  // One center near each pair, e.g. {0 (c0), 11 (c1)} -> radius 1.
  EXPECT_DOUBLE_EQ(result.value().radius, 1.0);
}

TEST(BruteForceTest, RejectsMixedDimensions) {
  auto result = BruteForceFairCenter(kMetric, {P({0, 0}, 0), P({1}, 1)},
                                     ColorConstraint({1, 1}));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(BruteForceTest, InfeasibleWhenAllCapsZero) {
  const std::vector<Point> points = {P({0}, 0)};
  auto result = BruteForceFairCenter(kMetric, points, ColorConstraint({0}));
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(BruteForceTest, EmptyInputGivesEmptySolution) {
  auto result = BruteForceFairCenter(kMetric, {}, ColorConstraint({1}));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().centers.empty());
}

TEST(BruteForceTest, MoreThanTheLimitIsInvalidArgument) {
  const auto at_limit = RandomColored(64, 2, 1, 7);
  ASSERT_TRUE(
      BruteForceFairCenter(kMetric, at_limit, ColorConstraint({64})).ok());
  const auto points = RandomColored(65, 2, 2, 7);
  EXPECT_EQ(BruteForceFairCenter(kMetric, points, ColorConstraint({1, 1}))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BruteForceKCenter(kMetric, points, 2).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BruteForceTest, OverflowingDistancesAreOutOfRange) {
  // d(-1e308, 1e308) overflows to +inf, and one center leaves one of the
  // two points at that distance whichever it is.
  const std::vector<Point> points = {P({-1e308}, 0), P({1e308}, 0)};
  EXPECT_EQ(BruteForceFairCenter(kMetric, points, ColorConstraint({1}))
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(BruteForceKCenter(kMetric, points, 1).status().code(),
            StatusCode::kOutOfRange);
  // Two centers cover both points at radius 0.
  const auto both = BruteForceFairCenter(kMetric, points, ColorConstraint({2}));
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both.value().radius, 0.0);
}

TEST(BruteForceTest, KCenterMatchesSingleColorFair) {
  const auto points = RandomColored(10, 2, 3, 5);
  auto unconstrained = BruteForceKCenter(kMetric, points, 3);
  std::vector<Point> monochrome = points;
  for (Point& p : monochrome) p.color = 0;
  auto fair = BruteForceFairCenter(kMetric, monochrome, ColorConstraint({3}));
  ASSERT_TRUE(unconstrained.ok());
  ASSERT_TRUE(fair.ok());
  EXPECT_DOUBLE_EQ(unconstrained.value().radius, fair.value().radius);
}

// ---------------------------------------------------------------------------
// Per-solver behaviour.

TEST(JonesTest, EmptyInput) {
  const JonesFairCenter solver;
  auto result = solver.Solve(kMetric, {}, ColorConstraint({1}));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().centers.empty());
}

TEST(JonesTest, RejectsOutOfRangeColors) {
  const JonesFairCenter solver;
  auto result = solver.Solve(kMetric, {P({0}, 5)}, ColorConstraint({1}));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(JonesTest, RejectsMixedDimensions) {
  const JonesFairCenter solver;
  auto result = solver.Solve(kMetric, {P({0, 0}, 0), P({1}, 0)},
                             ColorConstraint({1}));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(JonesTest, InfeasibleWithZeroCaps) {
  const JonesFairCenter solver;
  auto result =
      solver.Solve(kMetric, {P({0}, 0)}, ColorConstraint({0, 0}));
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(JonesTest, ColorCapForcesCrossColorCenter) {
  // Cluster A is all color 0, cluster B all color 1, caps {0 -> forbidden}:
  // wait, caps must stay >= 0; use cap {1,1} with two clusters of one color
  // each; then use cap {2,0}: color 1 cannot serve, so cluster B must be
  // covered from afar by a color-0 center.
  const std::vector<Point> points = {P({0}, 0), P({1}, 0), P({100}, 1),
                                     P({101}, 1)};
  const JonesFairCenter solver;
  auto capped = solver.Solve(kMetric, points, ColorConstraint({2, 0}));
  ASSERT_TRUE(capped.ok());
  for (const Point& c : capped.value().centers) EXPECT_EQ(c.color, 0);
  EXPECT_GE(capped.value().radius, 99.0);

  auto free = solver.Solve(kMetric, points, ColorConstraint({1, 1}));
  ASSERT_TRUE(free.ok());
  EXPECT_LE(free.value().radius, 1.0 + 1e-9);
}

TEST(JonesTest, SolutionsAlwaysFeasible) {
  const JonesFairCenter solver;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const auto points = RandomColored(60, 3, 4, seed);
    const ColorConstraint constraint({2, 1, 1, 2});
    auto result = solver.Solve(kMetric, points, constraint);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(constraint.IsFeasible(result.value().centers));
    EXPECT_TRUE(std::isfinite(result.value().radius));
  }
}

TEST(ChenTest, EmptyInput) {
  const ChenMatroidCenter solver;
  auto result = solver.Solve(kMetric, {}, ColorConstraint({1}));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().centers.empty());
}

TEST(ChenTest, RejectsMixedDimensions) {
  const ChenMatroidCenter solver;
  auto result = solver.Solve(kMetric, {P({0, 0}, 0), P({1}, 1)},
                             ColorConstraint({1, 1}));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ChenTest, SolutionsAlwaysFeasible) {
  const ChenMatroidCenter solver;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const auto points = RandomColored(40, 2, 3, seed);
    const ColorConstraint constraint({2, 2, 1});
    auto result = solver.Solve(kMetric, points, constraint);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(constraint.IsFeasible(result.value().centers));
  }
}

TEST(ChenTest, LadderModeStaysClose) {
  // Force the geometric-ladder candidate mode and compare to exact mode.
  const auto points = RandomColored(50, 2, 2, 13);
  const ColorConstraint constraint({2, 2});
  ChenOptions exact_options;
  ChenOptions ladder_options;
  ladder_options.exact_candidate_limit = 10;  // force ladder
  ladder_options.ladder_factor = 1.05;
  const ChenMatroidCenter exact_solver(exact_options);
  const ChenMatroidCenter ladder_solver(ladder_options);
  auto exact = exact_solver.Solve(kMetric, points, constraint);
  auto ladder = ladder_solver.Solve(kMetric, points, constraint);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(ladder.ok());
  EXPECT_LE(ladder.value().radius,
            1.2 * exact.value().radius + 1e-9);
}

// ---------------------------------------------------------------------------
// Approximation-guarantee property sweep: every 3-approx solver within
// 3 * OPT (+ tolerance) of the brute-force optimum on random instances.

struct ApproxCase {
  uint64_t seed;
  int n;
  int ell;
  std::vector<int> caps;
};

class SolverApproximationTest : public ::testing::TestWithParam<ApproxCase> {};

TEST_P(SolverApproximationTest, JonesWithinThreeTimesOpt) {
  const ApproxCase& c = GetParam();
  const auto points = RandomColored(c.n, 2, c.ell, c.seed);
  const ColorConstraint constraint(c.caps);
  auto exact = BruteForceFairCenter(kMetric, points, constraint);
  ASSERT_TRUE(exact.ok());
  const JonesFairCenter jones;
  auto approx = jones.Solve(kMetric, points, constraint);
  ASSERT_TRUE(approx.ok());
  EXPECT_LE(approx.value().radius, 3.0 * exact.value().radius + 1e-9)
      << "seed=" << c.seed;
}

TEST_P(SolverApproximationTest, ChenWithinThreeTimesOpt) {
  const ApproxCase& c = GetParam();
  const auto points = RandomColored(c.n, 2, c.ell, c.seed);
  const ColorConstraint constraint(c.caps);
  auto exact = BruteForceFairCenter(kMetric, points, constraint);
  ASSERT_TRUE(exact.ok());
  const ChenMatroidCenter chen;
  auto approx = chen.Solve(kMetric, points, constraint);
  ASSERT_TRUE(approx.ok());
  EXPECT_LE(approx.value().radius, 3.0 * exact.value().radius + 1e-9)
      << "seed=" << c.seed;
}

std::vector<ApproxCase> ApproxCases() {
  std::vector<ApproxCase> cases;
  uint64_t seed = 1;
  for (int rep = 0; rep < 6; ++rep) {
    cases.push_back({seed++, 12, 2, {1, 1}});
    cases.push_back({seed++, 14, 2, {2, 1}});
    cases.push_back({seed++, 12, 3, {1, 1, 1}});
    cases.push_back({seed++, 10, 4, {1, 1, 1, 1}});
  }
  // A zero cap disables a color: its points can only be served from afar.
  for (int rep = 0; rep < 6; ++rep) {
    cases.push_back({seed++, 12, 2, {0, 2}});
    cases.push_back({seed++, 12, 3, {2, 0, 1}});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SolverApproximationTest,
                         ::testing::ValuesIn(ApproxCases()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed);
                         });

// Sanity: on instances where fairness is non-binding, fair solvers should
// not be much worse than unconstrained Gonzalez (they solve a harder
// problem, but OPT coincides when colors are abundant).
TEST(SolverComparisonTest, FairMatchesUnconstrainedWhenColorsAbundant) {
  const auto base = RandomColored(40, 2, 1, 21);
  // Duplicate each location in both colors so any center position is
  // available in any color: fair OPT == unconstrained OPT.
  std::vector<Point> points;
  for (const Point& p : base) {
    points.push_back(p);
    Point q = p;
    q.color = 1;
    points.push_back(q);
  }
  const JonesFairCenter jones;
  auto fair = jones.Solve(kMetric, points, ColorConstraint({2, 2}));
  ASSERT_TRUE(fair.ok());
  const auto greedy = GonzalezKCenter(kMetric, points, 4);
  // Both are <= 2*OPT-ish; fair must stay within 3x of the greedy radius
  // up to its own guarantee.
  EXPECT_LE(fair.value().radius, 3.0 * greedy.coverage_radius + 1e-9);
}

// ---------------------------------------------------------------------------
// Bit identity of the pool-based solvers. The scalar per-pair Gonzalez,
// color table, radius and Jones search below are the solvers as they were
// before they scanned a CoordinatePool; the pool versions must reproduce
// them exactly (same heads, insertion distances, centers and radii), at
// every kernel width.

constexpr double kInf = std::numeric_limits<double>::infinity();

GonzalezResult ScalarGonzalez(const Metric& metric,
                              const std::vector<Point>& points, int k,
                              int first_index) {
  GonzalezResult result;
  if (points.empty() || k <= 0) return result;
  const int n = static_cast<int>(points.size());
  std::vector<double> nearest(n, kInf);
  int next_head = first_index;
  double next_distance = kInf;
  for (int j = 0; j < std::min(k, n); ++j) {
    result.head_indices.push_back(next_head);
    result.insertion_distances.push_back(next_distance);
    const Point& head = points[next_head];
    next_distance = 0.0;
    next_head = -1;
    for (int i = 0; i < n; ++i) {
      const double d = metric.Distance(points[i], head);
      if (d < nearest[i]) nearest[i] = d;
      if (nearest[i] > next_distance) {
        next_distance = nearest[i];
        next_head = i;
      }
    }
    if (next_head == -1) {
      next_distance = 0.0;
      break;
    }
  }
  result.coverage_radius = result.head_indices.empty() ? 0.0 : next_distance;
  return result;
}

double ScalarRadius(const Metric& metric, const std::vector<Point>& window,
                    const std::vector<Point>& centers) {
  if (window.empty()) return 0.0;
  if (centers.empty()) return kInf;
  double worst = 0.0;
  for (const Point& p : window) {
    const double d = DistanceToSet(metric, p, centers);
    if (d > worst) worst = d;
  }
  return worst;
}

struct ScalarColorTable {
  std::vector<std::vector<double>> nearest_distance;
  std::vector<std::vector<int>> nearest_index;
};

ScalarColorTable BuildScalarColorTable(const Metric& metric,
                                       const std::vector<Point>& points,
                                       const std::vector<int>& head_indices,
                                       int ell) {
  ScalarColorTable table;
  const size_t heads = head_indices.size();
  table.nearest_distance.assign(heads, std::vector<double>(ell, kInf));
  table.nearest_index.assign(heads, std::vector<int>(ell, -1));
  for (size_t h = 0; h < heads; ++h) {
    const Point& head = points[head_indices[h]];
    for (size_t i = 0; i < points.size(); ++i) {
      const int c = points[i].color;
      const double d = metric.Distance(head, points[i]);
      if (d < table.nearest_distance[h][c]) {
        table.nearest_distance[h][c] = d;
        table.nearest_index[h][c] = static_cast<int>(i);
      }
    }
  }
  return table;
}

bool ScalarTryRadius(double rho, const GonzalezResult& gonzalez,
                     const ScalarColorTable& table,
                     const ColorConstraint& constraint,
                     const std::vector<Point>& points,
                     std::vector<Point>* centers) {
  size_t prefix = 0;
  while (prefix < gonzalez.insertion_distances.size() &&
         gonzalez.insertion_distances[prefix] > 2.0 * rho) {
    ++prefix;
  }
  std::vector<std::vector<int>> allowed(prefix);
  for (size_t h = 0; h < prefix; ++h) {
    for (int c = 0; c < constraint.ell(); ++c) {
      if (constraint.cap(c) > 0 && table.nearest_distance[h][c] <= rho) {
        allowed[h].push_back(c);
      }
    }
  }
  const CapacitatedMatchingResult matching =
      MaximumCapacitatedMatching(allowed, constraint);
  if (!matching.Saturates(static_cast<int>(prefix))) return false;
  centers->clear();
  for (size_t h = 0; h < prefix; ++h) {
    centers->push_back(
        points[table.nearest_index[h][matching.assigned_color[h]]]);
  }
  return true;
}

// The Jones solve over the scalar pieces; callers pass valid, non-empty
// input with positive total capacity.
FairCenterSolution ScalarJones(const Metric& metric,
                               const std::vector<Point>& points,
                               const ColorConstraint& constraint) {
  const GonzalezResult gonzalez =
      ScalarGonzalez(metric, points, constraint.TotalK(), 0);
  const ScalarColorTable table = BuildScalarColorTable(
      metric, points, gonzalez.head_indices, constraint.ell());
  std::vector<double> candidates = {0.0};
  for (const auto& row : table.nearest_distance) {
    for (double d : row) {
      if (std::isfinite(d)) candidates.push_back(d);
    }
  }
  for (double delta : gonzalez.insertion_distances) {
    if (std::isfinite(delta)) candidates.push_back(delta / 2.0);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<Point> centers;
  EXPECT_TRUE(ScalarTryRadius(candidates.back(), gonzalez, table, constraint,
                              points, &centers));
  size_t lo = 0;
  size_t hi = candidates.size() - 1;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (ScalarTryRadius(candidates[mid], gonzalez, table, constraint, points,
                        &centers)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  FairCenterSolution solution;
  EXPECT_TRUE(ScalarTryRadius(candidates[lo], gonzalez, table, constraint,
                              points, &solution.centers));
  solution.radius = ScalarRadius(metric, points, solution.centers);
  return solution;
}

// Small integer coordinates plus explicit copies, so exact duplicates and
// distance ties occur at every dimension. Ids are input indices, so an
// answer that picks a different one of two tied points shows.
std::vector<Point> DuplicateHeavy(int n, int dim, int ell, Rng* rng) {
  std::vector<Point> points;
  for (int i = 0; i < n; ++i) {
    const int color = static_cast<int>(rng->NextBounded(ell));
    Coordinates coords(dim);
    if (!points.empty() && rng->NextBernoulli(0.25)) {
      coords = points[rng->NextBounded(points.size())].coords;
    } else {
      for (double& x : coords) x = static_cast<double>(rng->NextBounded(5));
    }
    points.emplace_back(std::move(coords), color, i, static_cast<uint64_t>(i));
  }
  return points;
}

TEST(SolverIdentityTest, PoolSolversMatchScalarReferenceBitForBit) {
  // Overrides only Distance, so DistanceSoA takes the base gather fallback.
  class WeightedManhattan final : public Metric {
   public:
    double Distance(const Point& a, const Point& b) const override {
      double sum = 0.0;
      for (size_t d = 0; d < a.coords.size(); ++d) {
        sum += static_cast<double>(d + 1) * std::fabs(a.coords[d] - b.coords[d]);
      }
      return sum;
    }
    std::string Name() const override { return "weighted-manhattan"; }
  };
  const EuclideanMetric euclidean;
  const ManhattanMetric manhattan;
  const ChebyshevMetric chebyshev;
  const WeightedManhattan weighted;
  const std::vector<const Metric*> metrics = {&euclidean, &manhattan,
                                              &chebyshev, &weighted};
  const ColorConstraint constraint({2, 1, 3});
  const JonesFairCenter jones;
  std::vector<int> sizes;
  for (int n = 1; n <= 17; ++n) sizes.push_back(n);
  for (int n : {31, 32, 33, 64, 100, 127, 128, 129, 255, 256, 300}) {
    sizes.push_back(n);
  }
  Rng rng(1414);
  for (int dim : {1, 3, 54}) {
    for (int n : sizes) {
      const auto points = DuplicateHeavy(n, dim, constraint.ell(), &rng);
      const int first = static_cast<int>(rng.NextBounded(n));
      for (const Metric* metric : metrics) {
        SCOPED_TRACE(metric->Name() + " dim=" + std::to_string(dim) +
                     " n=" + std::to_string(n));
        for (int k : {1, constraint.TotalK(), n + 1}) {
          const GonzalezResult want = ScalarGonzalez(*metric, points, k, first);
          const GonzalezResult got = GonzalezKCenter(*metric, points, k, first);
          EXPECT_EQ(got.head_indices, want.head_indices) << "k=" << k;
          EXPECT_EQ(got.insertion_distances, want.insertion_distances)
              << "k=" << k;
          EXPECT_EQ(got.coverage_radius, want.coverage_radius) << "k=" << k;
        }

        const FairCenterSolution want = ScalarJones(*metric, points, constraint);
        auto got = jones.Solve(*metric, points, constraint);
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(got.value().centers.size(), want.centers.size());
        for (size_t c = 0; c < want.centers.size(); ++c) {
          EXPECT_EQ(got.value().centers[c].id, want.centers[c].id);
          EXPECT_EQ(got.value().centers[c].coords, want.centers[c].coords);
        }
        EXPECT_EQ(got.value().radius, want.radius);

        // The radius of an arbitrary center set, duplicates included.
        std::vector<Point> centers;
        for (int c = 0; c < 4; ++c) centers.push_back(points[rng.NextBounded(n)]);
        EXPECT_EQ(ClusteringRadius(*metric, points, centers),
                  ScalarRadius(*metric, points, centers));
      }
    }
  }
}

// Every field of every center, the radius, and the status, bit for bit.
void ExpectSameResult(const Result<FairCenterSolution>& got,
                      const Result<FairCenterSolution>& want) {
  ASSERT_EQ(got.ok(), want.ok());
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  ASSERT_EQ(got.value().centers.size(), want.value().centers.size());
  for (size_t c = 0; c < want.value().centers.size(); ++c) {
    const Point& g = got.value().centers[c];
    const Point& w = want.value().centers[c];
    EXPECT_EQ(g.id, w.id) << "center " << c;
    EXPECT_EQ(g.coords, w.coords) << "center " << c;
    EXPECT_EQ(g.color, w.color) << "center " << c;
    EXPECT_EQ(g.arrival, w.arrival) << "center " << c;
  }
  EXPECT_EQ(got.value().radius, want.value().radius);
}

TEST(SolverIdentityTest, JonesSolvePoolMatchesSolveBitForBit) {
  const JonesFairCenter jones;
  const auto check = [&](const std::vector<Point>& points,
                         const ColorConstraint& constraint) {
    const ColoredPool pool = ColoredPool::FromPoints(points);
    ASSERT_EQ(pool.size(), points.size());
    const std::vector<Point> round_trip = pool.ToPoints();
    for (size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(round_trip[i].coords, points[i].coords);
      EXPECT_EQ(round_trip[i].id, points[i].id);
    }
    ExpectSameResult(jones.SolvePool(kMetric, pool, constraint),
                     jones.Solve(kMetric, points, constraint));
  };
  const auto stamp = [](std::vector<Point> points) {
    for (size_t i = 0; i < points.size(); ++i) {
      points[i].arrival = static_cast<int64_t>(100 + i);
      points[i].id = static_cast<uint64_t>(1 + i);
    }
    return points;
  };

  // Random inputs, including sizes around the pool's lane and block widths.
  for (int n : {1, 7, 8, 9, 127, 128, 129, 400}) {
    for (int dim : {1, 3, 54}) {
      SCOPED_TRACE("random n=" + std::to_string(n) +
                   " dim=" + std::to_string(dim));
      check(stamp(RandomColored(n, dim, 3, 17 + n + dim)),
            ColorConstraint({2, 1, 3}));
    }
  }
  // Duplicates and distance ties at every dimension.
  Rng rng(2718);
  for (int n : {2, 16, 129}) {
    for (int dim : {1, 3, 54}) {
      SCOPED_TRACE("duplicates n=" + std::to_string(n) +
                   " dim=" + std::to_string(dim));
      check(DuplicateHeavy(n, dim, 3, &rng), ColorConstraint({2, 1, 3}));
    }
  }
  // Equidistant ties: the corners of a square plus its center, and one
  // point repeated.
  check(stamp({P({0, 0}, 0), P({2, 0}, 1), P({0, 2}, 0), P({2, 2}, 1),
               P({1, 1}, 0)}),
        ColorConstraint({1, 1}));
  check(stamp(std::vector<Point>(9, P({3, 3}, 1))), ColorConstraint({1, 2}));
  // One point; one color.
  check(stamp({P({4, 5, 6}, 0)}), ColorConstraint({1}));
  check(stamp(RandomColored(50, 2, 1, 5)), ColorConstraint({4}));
  // Zero caps: on some colors, and on all (kInfeasible both ways).
  check(stamp(RandomColored(60, 2, 3, 6)), ColorConstraint({0, 2, 0}));
  check(stamp(RandomColored(12, 2, 2, 8)), ColorConstraint({0, 0}));
  // Empty input.
  check({}, ColorConstraint({1}));
}

// ---------------------------------------------------------------------------
// The stop rule. Jones ends its Gonzalez traversal once delta_j/2 is
// infeasible and the largest candidate so far is feasible, and takes the
// final radius from the rows it kept; ScalarJones always runs all k heads
// and scans the pool once per center. Both must give the same answer.

// `clusters` tight clusters far apart: cluster centers in [0, 1000)^dim,
// points within 1 of theirs, all coordinates times `scale`. Cluster c's
// points take color c % ell, except a `mixed` share colored at random, so a
// color with more clusters than its cap pushes the fair radius up to the
// cluster spacing and the traversal can stop once its heads have reached
// the clusters. Ids are input indices.
std::vector<Point> Clustered(int n, int dim, int clusters, int ell,
                             double scale, double mixed, Rng* rng) {
  std::vector<Coordinates> centers(clusters, Coordinates(dim));
  for (Coordinates& center : centers) {
    for (double& x : center) x = rng->NextUniform(0, 1000);
  }
  std::vector<Point> points;
  for (int i = 0; i < n; ++i) {
    const int cluster = static_cast<int>(rng->NextBounded(clusters));
    const int color = rng->NextBernoulli(mixed)
                          ? static_cast<int>(rng->NextBounded(ell))
                          : cluster % ell;
    Coordinates coords(dim);
    for (int d = 0; d < dim; ++d) {
      coords[d] = (centers[cluster][d] + rng->NextUniform(-1, 1)) * scale;
    }
    points.emplace_back(std::move(coords), color, i, static_cast<uint64_t>(i));
  }
  return points;
}

TEST(SolverIdentityTest, JonesStopRuleMatchesFullTraversal) {
  // Overrides DistanceSoA but not DistanceSoATile: head rows come from the
  // override, and the tile for centers that are not heads takes the base
  // loop over it.
  class SoAOnly final : public Metric {
   public:
    double Distance(const Point& a, const Point& b) const override {
      return inner_.Distance(a, b);
    }
    void DistanceSoA(const Point& p, const CoordinatePool& pool,
                     double* out) const override {
      inner_.DistanceSoA(p, pool, out);
    }
    std::string Name() const override { return "soa-only"; }

   private:
    ManhattanMetric inner_;
  };
  const EuclideanMetric euclidean;
  const ManhattanMetric manhattan;
  const ChebyshevMetric chebyshev;
  const SoAOnly soa_only;
  const std::vector<const Metric*> metrics = {&euclidean, &manhattan,
                                              &chebyshev, &soa_only};
  const JonesFairCenter jones;
  int cases = 0;
  int stopped = 0;
  const auto check = [&](const Metric& metric,
                         const std::vector<Point>& points,
                         const ColorConstraint& constraint) {
    SCOPED_TRACE(metric.Name() + " n=" + std::to_string(points.size()) +
                 " dim=" + std::to_string(points[0].dimension()) +
                 " k=" + std::to_string(constraint.TotalK()));
    const Result<FairCenterSolution> want =
        ScalarJones(metric, points, constraint);
    ExpectSameResult(jones.Solve(metric, points, constraint), want);
    CountingMetric counting(&metric);
    ExpectSameResult(jones.Solve(counting, points, constraint), want);
    const int64_t full =
        static_cast<int64_t>(std::min<size_t>(constraint.TotalK(),
                                              points.size())) *
        static_cast<int64_t>(points.size());
    ++cases;
    if (counting.count() < full) ++stopped;
  };

  const std::vector<ColorConstraint> constraints = {
      ColorConstraint({2, 1, 3}), ColorConstraint({1, 4, 1}),
      ColorConstraint({0, 3, 2}), ColorConstraint::Uniform(7, 2)};
  Rng rng(3141);
  // Clustered pools, where the stop fires, at ordinary coordinates and near
  // 1e150. Near 1e-310 the distances within a cluster are subnormal, where
  // halving may be inexact, so the traversal must not stop on them (at
  // scale 1e-310 the cluster spacing stays normal; at 1e-313 every distance
  // is subnormal, and Euclidean's squares underflow to 0).
  for (double scale : {1.0, 1e147, 1e-310, 1e-313}) {
    const int stopped_before = stopped;
    for (int dim : {1, 3, 54}) {
      for (int n : {40, 300}) {
        for (const ColorConstraint& constraint : constraints) {
          const int clusters = 2 + static_cast<int>(rng.NextBounded(10));
          const auto points =
              Clustered(n, dim, clusters, constraint.ell(), scale, 0.1, &rng);
          for (const Metric* metric : metrics) check(*metric, points, constraint);
        }
      }
    }
    if (scale >= 1.0) {
      EXPECT_GT(stopped - stopped_before, 0) << "scale " << scale;
    }
  }
  // Duplicates and distance ties; fewer points than heads; one point
  // repeated.
  for (int dim : {1, 3, 54}) {
    for (int n : {2, 5, 13, 64, 129}) {
      const auto points = DuplicateHeavy(n, dim, 7, &rng);
      check(euclidean, points, ColorConstraint::Uniform(7, 2));
      check(soa_only, points, ColorConstraint::Uniform(7, 2));
    }
  }
  // Found by a search over 1-D multiples of the smallest subnormal u, where
  // halving an odd multiple rounds to even. After three heads the next
  // insertion distance 10u halves exactly to 5u, and 5u is infeasible, but
  // head 2's 21u halved to 10u, so that head leaves the prefix only at 11u,
  // which is no candidate. Stopping there would answer 16u with one center;
  // the full traversal finds 15u (a distance from head 3) with two. Only a
  // guard on every breakpoint, not just the last, keeps the answer.
  const double u = std::numeric_limits<double>::denorm_min();
  const std::vector<double> xs = {21, 27, 0, 53, 46, 31};
  const std::vector<int> colors = {1, 1, 1, 2, 0, 1};
  std::vector<Point> subnormal;
  for (size_t i = 0; i < xs.size(); ++i) {
    subnormal.push_back(P(xs[i] * u, colors[i]));
  }
  check(manhattan, subnormal, ColorConstraint({2, 1, 1}));
  check(euclidean, std::vector<Point>(9, P({3, 3}, 1)),
        ColorConstraint({1, 2}));
  check(chebyshev, std::vector<Point>(30, P({1, 2, 3}, 0)),
        ColorConstraint({3, 2}));
  EXPECT_GT(stopped, 0);
  EXPECT_LT(stopped, cases);

  // Zero caps on every color, or on every color present: kInfeasible.
  const auto points = Clustered(50, 3, 4, 1, 1.0, 0.0, &rng);
  EXPECT_EQ(jones.Solve(euclidean, points, ColorConstraint({0, 0})).status()
                .code(),
            StatusCode::kInfeasible);
  EXPECT_EQ(jones.Solve(euclidean, points, ColorConstraint({0, 2})).status()
                .code(),
            StatusCode::kInfeasible);
}

TEST(JonesTest, StopRuleReadsThePoolFewerThanKTimes) {
  // Six one-color clusters, two of each color, and one center allowed per
  // color except color 2: once heads have reached every cluster, delta/2
  // is the cluster width and two color-0 heads compete for one slot, so
  // the traversal stops well before k = 14.
  Rng rng(99);
  const auto points = Clustered(600, 3, 6, 3, 1.0, 0.0, &rng);
  const ColorConstraint constraint({1, 1, 12});
  const EuclideanMetric euclidean;
  CountingMetric counting(&euclidean);
  const JonesFairCenter jones;
  auto got = jones.Solve(counting, points, constraint);
  ASSERT_TRUE(got.ok());
  ExpectSameResult(got, ScalarJones(euclidean, points, constraint));
  EXPECT_LT(counting.count(),
            static_cast<int64_t>(constraint.TotalK()) *
                static_cast<int64_t>(points.size()));
}

TEST(JonesTest, SolvePoolRejectsOutOfRangeColors) {
  const JonesFairCenter solver;
  for (int color : {-1, 2, 9}) {
    const ColoredPool pool =
        ColoredPool::FromPoints({P({0}, 0), P({1}, color), P({2}, 1)});
    auto result = solver.SolvePool(kMetric, pool, ColorConstraint({1, 1}));
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << "color " << color;
  }
}

}  // namespace
}  // namespace fkc
