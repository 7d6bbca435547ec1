// Behavioural contracts of Query (Algorithm 3) beyond quality: returned
// centers are genuine active window points, the coreset-vs-window radius gap
// obeys Lemma 2's (P2) bound, QueryStats fields are consistent, and the
// chosen guess tracks the window's optimal scale. Query solves on the
// gathered coreset pool exactly as Jones solves on its Points, and a pool
// that borrows a guess's attractor columns answers as a copy of it would.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "common/random.h"
#include "core/fair_center_sliding_window.h"
#include "core/guess_structure.h"
#include "metric/metric.h"
#include "sequential/gonzalez.h"
#include "sequential/jones_fair_center.h"
#include "sequential/radius.h"
#include "stream/reference_window.h"

namespace fkc {
namespace {

const EuclideanMetric kMetric;
const JonesFairCenter kJones;

struct Harness {
  SlidingWindowOptions options;
  FairCenterSlidingWindow window;
  ReferenceWindow truth;
  int64_t t = 0;
  Rng rng;

  Harness(int64_t window_size, ColorConstraint constraint, double delta,
          uint64_t seed)
      : options([&] {
          SlidingWindowOptions o;
          o.window_size = window_size;
          o.delta = delta;
          o.adaptive_range = true;
          return o;
        }()),
        window(options, std::move(constraint), &kMetric, &kJones),
        truth(window_size),
        rng(seed) {}

  void Feed(double lo = 0.0, double hi = 100.0) {
    ++t;
    Point p({rng.NextUniform(lo, hi), rng.NextUniform(lo, hi)},
            static_cast<int>(rng.NextBounded(2)));
    p.arrival = t;
    p.id = static_cast<uint64_t>(t);
    truth.Update(p);
    window.Update(p);
  }
};

TEST(QueryBehaviorTest, CentersAreActiveWindowPoints) {
  Harness h(50, ColorConstraint({2, 2}), 1.0, 3);
  for (int i = 0; i < 200; ++i) {
    h.Feed();
    if (i > 60 && i % 25 == 0) {
      auto result = h.window.Query();
      ASSERT_TRUE(result.ok());
      const auto window_points = h.truth.Snapshot();
      for (const Point& center : result.value().centers) {
        // Active: arrived within the last window_size steps.
        EXPECT_GT(center.arrival, h.t - 50) << "expired center returned";
        EXPECT_LE(center.arrival, h.t);
        // Genuine: coordinates match an actual window point of that color.
        const bool found = std::any_of(
            window_points.begin(), window_points.end(), [&](const Point& q) {
              return q.coords == center.coords && q.color == center.color;
            });
        EXPECT_TRUE(found) << "fabricated center " << center.ToString();
      }
    }
  }
}

TEST(QueryBehaviorTest, CoresetWindowRadiusGapWithinLemmaTwo) {
  // (P2): a solution of radius r on the coreset costs at most r + delta *
  // gamma-hat on the window.
  Harness h(60, ColorConstraint({2, 1}), 1.0, 5);
  for (int i = 0; i < 240; ++i) {
    h.Feed();
    if (i > 80 && i % 40 == 0) {
      QueryStats stats;
      auto result = h.window.Query(&stats);
      ASSERT_TRUE(result.ok());
      const double coreset_radius = result.value().radius;
      const double window_radius = ClusteringRadius(
          kMetric, h.truth.Snapshot(), result.value().centers);
      EXPECT_LE(window_radius,
                coreset_radius + 1.0 * stats.guess + 1e-9)
          << "at t=" << h.t;
    }
  }
}

TEST(QueryBehaviorTest, ChosenGuessTracksWindowScale) {
  // Shrink the data scale by 100x; after a full window turnover, the chosen
  // guess must shrink accordingly.
  Harness h(80, ColorConstraint({1, 1}), 1.0, 7);
  for (int i = 0; i < 160; ++i) h.Feed(0.0, 5000.0);
  QueryStats wide_stats;
  ASSERT_TRUE(h.window.Query(&wide_stats).ok());
  for (int i = 0; i < 160; ++i) h.Feed(0.0, 50.0);
  QueryStats narrow_stats;
  ASSERT_TRUE(h.window.Query(&narrow_stats).ok());
  EXPECT_LT(narrow_stats.guess, wide_stats.guess / 10.0);
}

TEST(QueryBehaviorTest, StatsSplitAQueryIntoPlanAndSolve) {
  Harness h(40, ColorConstraint({2, 2}), 2.0, 9);
  for (int i = 0; i < 120; ++i) h.Feed();
  QueryStats stats;
  ASSERT_TRUE(h.window.Query(&stats).ok());
  EXPECT_GT(stats.plan_millis, 0.0);
  EXPECT_GT(stats.solver_millis, 0.0);
  // PlanQuery alone times neither.
  auto plan = h.window.PlanQuery();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().stats.plan_millis, 0.0);
  EXPECT_EQ(plan.value().stats.solver_millis, 0.0);
}

TEST(QueryBehaviorTest, StatsConsistency) {
  Harness h(40, ColorConstraint({2, 2}), 2.0, 9);
  for (int i = 0; i < 120; ++i) h.Feed();
  QueryStats stats;
  auto result = h.window.Query(&stats);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(stats.guess, 0.0);
  EXPECT_GT(stats.guesses_inspected, 0);
  EXPECT_GE(stats.solver_millis, 0.0);
  // The solver saw exactly coreset_size points; the solution cannot contain
  // more centers than that, nor more than k.
  EXPECT_LE(static_cast<int64_t>(result.value().centers.size()),
            stats.coreset_size);
  EXPECT_LE(static_cast<int>(result.value().centers.size()),
            h.window.constraint().TotalK());
}

TEST(QueryBehaviorTest, SmallerDeltaNeverWorseGuess) {
  // Finer coresets (smaller delta) must not select a *larger* guess: the
  // validation machinery is delta-independent, so gamma-hat distributions
  // should agree across delta. Check on a shared stream.
  SlidingWindowOptions fine_options;
  fine_options.window_size = 60;
  fine_options.delta = 0.5;
  fine_options.adaptive_range = true;
  SlidingWindowOptions coarse_options = fine_options;
  coarse_options.delta = 4.0;
  const ColorConstraint constraint({2, 2});
  FairCenterSlidingWindow fine(fine_options, constraint, &kMetric, &kJones);
  FairCenterSlidingWindow coarse(coarse_options, constraint, &kMetric,
                                 &kJones);
  Rng rng(11);
  for (int i = 0; i < 180; ++i) {
    Point p({rng.NextUniform(0, 100), rng.NextUniform(0, 100)},
            static_cast<int>(rng.NextBounded(2)));
    fine.Update(p);
    coarse.Update(p);
  }
  QueryStats fine_stats, coarse_stats;
  ASSERT_TRUE(fine.Query(&fine_stats).ok());
  ASSERT_TRUE(coarse.Query(&coarse_stats).ok());
  EXPECT_DOUBLE_EQ(fine_stats.guess, coarse_stats.guess);
  EXPECT_GE(fine_stats.coreset_size, coarse_stats.coreset_size);
}

// --- Solving on the gathered pool. ---

void ExpectSamePoints(const std::vector<Point>& got,
                      const std::vector<Point>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "position " << i;
    EXPECT_EQ(got[i].coords, want[i].coords) << "position " << i;
    EXPECT_EQ(got[i].color, want[i].color) << "position " << i;
    EXPECT_EQ(got[i].arrival, want[i].arrival) << "position " << i;
  }
}

// Every field of every center, and the radius, bit for bit.
void ExpectSameAnswer(const FairCenterSolution& got,
                      const FairCenterSolution& want) {
  ExpectSamePoints(got.centers, want.centers);
  EXPECT_EQ(got.radius, want.radius);
}

// Clustered 3-D points with exact duplicates, so coresets hold attractors
// that are their own representative, replaced representatives and orphans.
Point ClusteredPoint(Rng* rng) {
  const double cx = static_cast<double>(rng->NextBounded(4)) * 40.0;
  Coordinates coords(3);
  for (double& x : coords) {
    x = rng->NextBernoulli(0.2) ? cx : cx + rng->NextUniform(0.0, 12.0);
  }
  return Point(std::move(coords), static_cast<int>(rng->NextBounded(3)));
}

// Query() against Jones on the plan's coreset as Points, at every 7th
// arrival, plus the stats against the plan's.
void ExpectQueryEqualsJonesOnPlan(FairCenterSlidingWindow* window,
                                  const std::string& label) {
  SCOPED_TRACE(label + " t=" + std::to_string(window->now()));
  auto plan = window->PlanQuery();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto want = kJones.Solve(kMetric, plan.value().coreset.ToPoints(),
                           window->constraint());
  QueryStats stats;
  auto got = window->Query(&stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ExpectSameAnswer(got.value(), want.value());
  EXPECT_EQ(stats.guess, plan.value().stats.guess);
  EXPECT_EQ(stats.coreset_size, plan.value().stats.coreset_size);
  EXPECT_EQ(stats.coreset_size,
            static_cast<int64_t>(plan.value().coreset.size()));
  EXPECT_EQ(stats.guesses_inspected, plan.value().stats.guesses_inspected);
}

TEST(QueryBehaviorTest, QueryEqualsJonesOnPlannedCoresetPoints) {
  const ColorConstraint constraint({2, 1, 2});
  for (int mode = 0; mode < 3; ++mode) {
    for (int threads : {1, 4}) {
      SlidingWindowOptions options;
      options.window_size = 120;
      options.delta = 0.5;
      options.num_threads = threads;
      if (mode == 0) {
        options.d_min = 1e-3;
        options.d_max = 1e3;
      } else {
        options.adaptive_range = true;
      }
      if (mode == 2) options = ValidationOnlyOptions(options);
      const std::string label = "mode=" + std::to_string(mode) +
                                " threads=" + std::to_string(threads);
      FairCenterSlidingWindow window(options, constraint, &kMetric, &kJones);
      Rng rng(31 + static_cast<uint64_t>(mode));
      for (int i = 0; i < 400; ++i) {
        ASSERT_TRUE(window.Update(ClusteredPoint(&rng)).ok());
        if (i % 7 == 3) ExpectQueryEqualsJonesOnPlan(&window, label);
      }

      // A restored window gathers from restored entries and rebuilt pools.
      auto restored = FairCenterSlidingWindow::DeserializeState(
          window.SerializeState(), &kMetric, &kJones);
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      for (int i = 0; i < 60; ++i) {
        const Point p = ClusteredPoint(&rng);
        ASSERT_TRUE(window.Update(p).ok());
        ASSERT_TRUE(restored.value().Update(p).ok());
        if (i % 7 != 3) continue;
        ExpectQueryEqualsJonesOnPlan(&restored.value(), label + " restored");
        auto original = window.Query();
        auto copy = restored.value().Query();
        ASSERT_TRUE(original.ok() && copy.ok());
        ExpectSameAnswer(copy.value(), original.value());
      }
    }
  }
}

TEST(QueryBehaviorTest, GatheredPoolsFollowEntryOrder) {
  // The solver starts at index 0 and breaks ties by the lowest index, so the
  // gathered order is part of the answer: each entry's representatives in
  // entry order, then the orphans.
  PointArena arena;
  const auto walk = [&arena](const AttractorList& entries,
                             const std::vector<Slot>& orphans) {
    std::vector<Point> points;
    for (size_t e = 0; e < entries.size(); ++e) {
      entries.ForEachRep(e,
                         [&](Slot s) { points.push_back(arena.ToPoint(s)); });
    }
    for (Slot s : orphans) points.push_back(arena.ToPoint(s));
    return points;
  };
  const ColorConstraint constraint({2, 1, 2});
  for (CoreVariant variant :
       {CoreVariant::kFull, CoreVariant::kValidationOnly}) {
    GuessStructure guess(6.0, variant == CoreVariant::kFull ? 1.0 : 4.0, 90,
                         constraint, variant);
    Rng rng(77);
    int64_t own_rep = 0;
    int64_t other_rep = 0;
    for (int64_t t = 1; t <= 600; ++t) {
      Point p = ClusteredPoint(&rng);
      p.arrival = t;
      p.id = static_cast<uint64_t>(t);
      guess.Update(arena.Add(p), p, t, arena, kMetric, nullptr);
      if (t % 11 != 0) continue;
      SCOPED_TRACE("t=" + std::to_string(t));
      ExpectSamePoints(guess.ValidationPool(arena).ToPoints(),
                       walk(guess.v_entries(), guess.v_orphans()));
      const std::vector<Point> coreset = guess.CoresetPool(arena).ToPoints();
      if (variant == CoreVariant::kFull) {
        ExpectSamePoints(coreset, walk(guess.c_entries(), guess.c_orphans()));
      } else {
        ExpectSamePoints(coreset, walk(guess.v_entries(), guess.v_orphans()));
      }
      const AttractorList& entries = variant == CoreVariant::kFull
                                         ? guess.c_entries()
                                         : guess.v_entries();
      for (size_t e = 0; e < entries.size(); ++e) {
        entries.ForEachRep(e, [&](Slot rep) {
          ++(arena.id(rep) == arena.id(entries.attractor(e)) ? own_rep
                                                              : other_rep);
        });
      }
    }
    // Both coordinate sources (the attractor pool and the stored Point)
    // were exercised.
    EXPECT_GT(own_rep, 0);
    EXPECT_GT(other_rep, 0);
  }
}

// --- Borrowed attractor columns. ---

// A pool of the same points that owns every slot.
ColoredPool CopiedPool(const ColoredPool& pool) {
  return ColoredPool::FromPoints(pool.ToPoints());
}

void ExpectSameGonzalez(const GonzalezResult& got, const GonzalezResult& want) {
  EXPECT_EQ(got.head_indices, want.head_indices);
  EXPECT_EQ(got.insertion_distances, want.insertion_distances);
  EXPECT_EQ(got.coverage_radius, want.coverage_radius);
}

// A borrowing pool and a copying pool of the same points answer the same:
// every point, every Gonzalez head, every Jones answer, bit for bit.
void ExpectBorrowedEqualsCopied(const ColoredPool& pool,
                                const ColorConstraint& constraint) {
  const ColoredPool copied = CopiedPool(pool);
  ASSERT_EQ(copied.borrowed(), nullptr);
  ASSERT_EQ(copied.size(), pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    ExpectSamePoints({pool.At(i)}, {copied.At(i)});
  }
  ExpectSamePoints(pool.ToPoints(), copied.ToPoints());
  for (int k : {1, 3, constraint.TotalK()}) {
    for (int first : {0, static_cast<int>(pool.size()) - 1}) {
      ExpectSameGonzalez(GonzalezKCenter(kMetric, pool, k, first),
                         GonzalezKCenter(kMetric, copied, k, first));
    }
  }
  auto got = kJones.SolvePool(kMetric, pool, constraint);
  auto want = kJones.SolvePool(kMetric, copied, constraint);
  ASSERT_TRUE(got.ok() && want.ok());
  ExpectSameAnswer(got.value(), want.value());
}

TEST(QueryBehaviorTest, BorrowedColumnsOutsideTheSetNeverCount) {
  // A d = 54 attractor pool whose head sits mid-block after DropFront, so
  // the borrowed scans start inside its front block. Every fifth column is
  // far from everything and is no point of the set: were it read as one,
  // it would become a Gonzalez head and set the radius. Every seventh
  // column is spread wider, so Gonzalez heads and nearest points come from
  // among them, and follows an exact duplicate that the pool copies: the
  // duplicate has the lower position but the later slot, so ties must go
  // to it.
  constexpr size_t kDim = 54;
  Rng rng(4);
  const auto random_point = [&](double scale, int64_t id) {
    Coordinates coords(kDim);
    for (double& x : coords) x = rng.NextUniform(0.0, scale);
    return Point(std::move(coords), static_cast<int>(rng.NextBounded(3)), id,
                 static_cast<uint64_t>(id));
  };
  CoordinatePool columns(kDim);
  std::vector<Point> stored;
  for (int64_t id = 0; id < 300; ++id) {
    stored.push_back(random_point(
        id % 5 == 4 ? 1e6 : (id % 7 == 0 ? 40.0 : 10.0), id));
    columns.Append(stored.back());
  }
  constexpr size_t kDropped = 37;
  columns.DropFront(kDropped);
  stored.erase(stored.begin(), stored.begin() + kDropped);

  const ColorConstraint constraint({2, 1, 2});
  ColoredPool::Builder builder(stored.size(), &columns);
  std::vector<Point> in_set;
  for (size_t e = 0; e < stored.size(); ++e) {
    if (stored[e].id % 5 == 4) continue;
    if (stored[e].id % 7 == 0) {
      Point duplicate = stored[e];
      duplicate.id += 1000;
      in_set.push_back(duplicate);
      builder.Add(in_set.back());
    }
    builder.AddColumn(stored[e], e);
    in_set.push_back(stored[e]);
    if (e % 11 == 0) {  // a point held apart from the columns
      in_set.push_back(random_point(10.0, 2000 + static_cast<int64_t>(e)));
      builder.Add(in_set.back());
    }
  }
  const ColoredPool pool = std::move(builder).Build();
  ASSERT_EQ(pool.borrowed(), &columns);
  ASSERT_GT(pool.slot_count(), pool.size());
  ExpectSamePoints(pool.ToPoints(), in_set);
  ExpectBorrowedEqualsCopied(pool, constraint);
  auto solution = kJones.SolvePool(kMetric, pool, constraint);
  ASSERT_TRUE(solution.ok());
  EXPECT_LT(solution.value().radius, 1e3);
}

// A pool that borrows a d = 54 column pool whose head sits mid-block after
// DropFront, with every third position copied rather than borrowed. `pool`
// holds the address of `columns`, so the struct is not copyable.
struct BorrowingPool {
  CoordinatePool columns{54};
  std::vector<Point> points;
  ColoredPool pool;

  BorrowingPool(const BorrowingPool&) = delete;
  BorrowingPool& operator=(const BorrowingPool&) = delete;
  explicit BorrowingPool(uint64_t seed) {
    Rng rng(seed);
    const auto random_point = [&](int64_t id) {
      Coordinates coords(columns.dim());
      for (double& x : coords) x = rng.NextUniform(0.0, 10.0);
      return Point(std::move(coords), static_cast<int>(rng.NextBounded(3)),
                   id, static_cast<uint64_t>(id));
    };
    std::vector<Point> stored;
    for (int64_t id = 0; id < 300; ++id) {
      stored.push_back(random_point(id));
      columns.Append(stored.back());
    }
    constexpr size_t kDropped = 37;
    columns.DropFront(kDropped);
    stored.erase(stored.begin(), stored.begin() + kDropped);
    ColoredPool::Builder builder(stored.size(), &columns);
    points.reserve(stored.size());
    for (size_t e = 0; e < stored.size(); ++e) {
      if (e % 3 == 0) {
        points.push_back(random_point(1000 + static_cast<int64_t>(e)));
        builder.Add(points.back());
      } else {
        points.push_back(stored[e]);
        builder.AddColumn(stored[e], e);
      }
    }
    pool = std::move(builder).Build();
  }
};

TEST(QueryBehaviorTest, DistanceRowsOnBorrowingPoolEqualsDistanceRow) {
  const BorrowingPool borrowing(12);
  const ColoredPool& pool = borrowing.pool;
  ASSERT_EQ(pool.borrowed(), &borrowing.columns);
  ASSERT_GT(pool.copied(), 0u);
  // More centers than any tile, some of them points of the pool.
  std::vector<Point> centers;
  for (size_t i = 0; i < 19; ++i) centers.push_back(pool.At(i * 13));
  const EuclideanMetric euclidean;
  const ManhattanMetric manhattan;
  const ChebyshevMetric chebyshev;
  const Metric* metrics[] = {&euclidean, &manhattan, &chebyshev};
  for (const Metric* metric : metrics) {
    const size_t stride = pool.slot_count();
    std::vector<double> rows(centers.size() * stride, -1.0);
    pool.DistanceRows(*metric, centers, rows.data());
    std::vector<double> row(stride);
    for (size_t c = 0; c < centers.size(); ++c) {
      pool.DistanceRow(*metric, centers[c], row.data());
      ASSERT_EQ(0, std::memcmp(row.data(), rows.data() + c * stride,
                               stride * sizeof(double)))
          << metric->Name() << " center " << c;
    }
  }
}

TEST(QueryBehaviorTest, MetricOverridingOnlyDistanceSoAGetsTheBaseTileLoop) {
  // A decorator that overrides DistanceSoA but not DistanceSoATile: the
  // base tile scans it one row at a time, once per pool, with the same
  // rows and radius as the built-in tile.
  class SoAOnly final : public Metric {
   public:
    double Distance(const Point& a, const Point& b) const override {
      return kMetric.Distance(a, b);
    }
    void DistanceSoA(const Point& p, const CoordinatePool& pool,
                     double* out) const override {
      ++soa_calls;
      kMetric.DistanceSoA(p, pool, out);
    }
    std::string Name() const override { return "soa-only"; }
    mutable int soa_calls = 0;
  };
  const BorrowingPool borrowing(13);
  const ColoredPool& pool = borrowing.pool;
  const SoAOnly soa_only;
  const std::vector<Point> centers = {pool.At(0), pool.At(5), pool.At(77)};
  const size_t stride = pool.slot_count();
  std::vector<double> got(centers.size() * stride, -1.0);
  std::vector<double> want(centers.size() * stride, -2.0);
  pool.DistanceRows(soa_only, centers, got.data());
  EXPECT_EQ(soa_only.soa_calls, 2 * static_cast<int>(centers.size()));
  pool.DistanceRows(kMetric, centers, want.data());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           got.size() * sizeof(double)));
  EXPECT_EQ(PoolClusteringRadius(soa_only, pool, centers),
            PoolClusteringRadius(kMetric, pool, centers));
  EXPECT_EQ(PoolClusteringRadius(kMetric, pool, centers),
            ClusteringRadius(kMetric, borrowing.points, centers));
}

TEST(QueryBehaviorTest, BuildCopiesWhenFewPositionsAreColumns) {
  CoordinatePool columns(1);
  const Point a({1.0}, 0, 1, 1);
  const Point b({2.0}, 1, 2, 2);
  const Point c({3.0}, 0, 3, 3);
  columns.Append(a);
  ColoredPool::Builder builder(3, &columns);
  builder.AddColumn(a, 0);
  builder.Add(b);
  builder.Add(c);
  const ColoredPool pool = std::move(builder).Build();
  EXPECT_EQ(pool.borrowed(), nullptr);
  EXPECT_EQ(pool.copied(), 3u);
  EXPECT_EQ(pool.slot_count(), 3u);
  EXPECT_EQ(pool.At(0).coords, a.coords);
}

TEST(QueryBehaviorTest, DenseCoresetPoolCopiesOnlyOtherPoints) {
  // A dense d = 54 guess: most c-representatives are their own attractor.
  // Near-copies of recent points add replaced representatives, and a cap of
  // one per color evicts attractors from their own representative sets;
  // expiry drops the c-pool's head into the middle of a block.
  constexpr size_t kDim = 54;
  const ColorConstraint constraint({1, 1, 1});
  GuessStructure guess(40.0, 0.5, 300, constraint, CoreVariant::kFull);
  PointArena arena;
  Rng rng(23);
  std::vector<Point> recent;
  int borrowed = 0;
  int mid_block = 0;
  int evicted = 0;
  for (int64_t t = 1; t <= 1200; ++t) {
    Coordinates coords(kDim);
    if (!recent.empty() && rng.NextBernoulli(0.15)) {
      coords = recent[rng.NextBounded(recent.size())].coords;
      coords[rng.NextBounded(kDim)] += rng.NextUniform(0.0, 0.1);
    } else {
      for (double& x : coords) x = rng.NextUniform(0.0, 20.0);
    }
    Point p(std::move(coords), static_cast<int>(rng.NextBounded(3)), t,
            static_cast<uint64_t>(t));
    recent.push_back(p);
    if (recent.size() > 20) recent.erase(recent.begin());
    guess.Update(arena.Add(p), p, t, arena, kMetric, nullptr);
    if (t % 50 != 0) continue;
    SCOPED_TRACE("t=" + std::to_string(t));

    size_t own = 0;
    int evicted_now = 0;
    const AttractorList& entries = guess.c_entries();
    for (size_t e = 0; e < entries.size(); ++e) {
      bool self = false;
      entries.ForEachRep(e, [&](Slot rep) {
        self = self || arena.id(rep) == arena.id(entries.attractor(e));
      });
      own += self ? 1 : 0;
      evicted_now += self ? 0 : 1;
    }
    const ColoredPool pool = guess.CoresetPool(arena);
    ASSERT_GT(pool.size(), 0u);
    if (2 * own < pool.size()) {
      EXPECT_EQ(pool.borrowed(), nullptr);
      EXPECT_EQ(pool.copied(), pool.size());
      continue;
    }
    ++borrowed;
    EXPECT_EQ(pool.borrowed(), &guess.c_pool());
    EXPECT_EQ(pool.copied(), pool.size() - own);
    EXPECT_EQ(pool.slot_count(), pool.size() - own + guess.c_pool().size());
    size_t front_count = 0;
    guess.c_pool().ForEachSpan([&](const CoordinatePool::Span& span) {
      if (span.first == 0) front_count = span.count;
    });
    if (front_count < CoordinatePool::kBlockLanes &&
        front_count < guess.c_pool().size()) {
      ++mid_block;
    }
    evicted += evicted_now;
    ExpectBorrowedEqualsCopied(pool, constraint);
  }
  EXPECT_GT(borrowed, 0);
  EXPECT_GT(mid_block, 0);
  EXPECT_GT(evicted, 0);
}

// `pool` against a FromPoints copy of the points it was gathered from:
// position by position the same color, arrival, id and At, and every
// position's distance from a probe point through DistanceRow, bit for bit.
void ExpectEqualsFromPointsCopy(const ColoredPool& pool,
                                const std::vector<Point>& points) {
  const ColoredPool copy = ColoredPool::FromPoints(points);
  ASSERT_EQ(pool.size(), copy.size());
  if (points.empty()) return;
  ASSERT_EQ(pool.dim(), copy.dim());
  ExpectSamePoints(pool.ToPoints(), points);
  std::vector<double> row(pool.slot_count());
  std::vector<double> copy_row(copy.slot_count());
  pool.DistanceRow(kMetric, points[points.size() / 2], row.data());
  copy.DistanceRow(kMetric, points[points.size() / 2], copy_row.data());
  for (size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(pool.color(i), copy.color(i)) << "position " << i;
    const Point got = pool.At(i);
    const Point want = copy.At(i);
    EXPECT_EQ(got.coords, want.coords) << "position " << i;
    EXPECT_EQ(got.color, want.color) << "position " << i;
    EXPECT_EQ(got.arrival, want.arrival) << "position " << i;
    EXPECT_EQ(got.id, want.id) << "position " << i;
    EXPECT_EQ(std::memcmp(&row[pool.slot(i)], &copy_row[copy.slot(i)],
                          sizeof(double)),
              0)
        << "position " << i;
  }
}

TEST(QueryBehaviorTest, GatheredPoolsEqualAFromPointsCopy) {
  // Two guesses. The dense d = 54 one of DenseCoresetPoolCopiesOnlyOtherPoints
  // (a cap of one per color replaces attractors in their own representative
  // sets) mostly borrows its attractor pool. The clustered 3-D one holds
  // many representatives per attractor, so its pools mostly copy every
  // point, its own attractors' columns included. Expiry and Cleanup leave
  // orphans in both.
  const ColorConstraint constraint({1, 1, 1});
  GuessStructure dense(40.0, 0.5, 300, constraint, CoreVariant::kFull);
  GuessStructure clustered(6.0, 1.0, 90, ColorConstraint({2, 1, 2}),
                           CoreVariant::kFull);
  PointArena dense_arena;
  PointArena clustered_arena;
  Rng rng(31);
  std::vector<Point> recent;
  int borrowing = 0;
  int copying_columns = 0;  // copy-everything pools with own attractors
  int with_orphans = 0;
  int replaced = 0;
  const auto check = [&](GuessStructure& guess, const PointArena& arena) {
    const auto walk = [&](const AttractorList& entries,
                          const std::vector<Slot>& orphans, int* own) {
      std::vector<Point> points;
      for (size_t e = 0; e < entries.size(); ++e) {
        entries.ForEachRep(e, [&](Slot s) {
          ++(s == entries.attractor(e) ? *own : replaced);
          points.push_back(arena.ToPoint(s));
        });
      }
      for (Slot s : orphans) points.push_back(arena.ToPoint(s));
      with_orphans += orphans.empty() ? 0 : 1;
      return points;
    };
    int own[2] = {0, 0};
    const ColoredPool pools[] = {guess.CoresetPool(arena),
                                 guess.ValidationPool(arena)};
    const std::vector<Point> points[] = {
        walk(guess.c_entries(), guess.c_orphans(), &own[0]),
        walk(guess.v_entries(), guess.v_orphans(), &own[1])};
    for (int f = 0; f < 2; ++f) {
      if (pools[f].borrowed() != nullptr) {
        ++borrowing;
      } else if (own[f] > 0) {
        ++copying_columns;
      }
      ExpectEqualsFromPointsCopy(pools[f], points[f]);
    }
  };
  for (int64_t t = 1; t <= 1200; ++t) {
    Coordinates coords(54);
    if (!recent.empty() && rng.NextBernoulli(0.15)) {
      coords = recent[rng.NextBounded(recent.size())].coords;
      coords[rng.NextBounded(coords.size())] += rng.NextUniform(0.0, 0.1);
    } else {
      for (double& x : coords) x = rng.NextUniform(0.0, 20.0);
    }
    Point p(std::move(coords), static_cast<int>(rng.NextBounded(3)), t,
            static_cast<uint64_t>(t));
    recent.push_back(p);
    if (recent.size() > 20) recent.erase(recent.begin());
    dense.Update(dense_arena.Add(p), p, t, dense_arena, kMetric, nullptr);
    Point q = ClusteredPoint(&rng);
    q.arrival = t;
    q.id = static_cast<uint64_t>(t);
    clustered.Update(clustered_arena.Add(q), q, t, clustered_arena, kMetric,
                     nullptr);
    if (t % 40 != 0) continue;
    SCOPED_TRACE("t=" + std::to_string(t));
    check(dense, dense_arena);
    check(clustered, clustered_arena);
  }
  EXPECT_GT(borrowing, 0);
  EXPECT_GT(copying_columns, 0);
  EXPECT_GT(with_orphans, 0);
  EXPECT_GT(replaced, 0);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// `got` (a window's planned coreset) against `want` (the same window's,
// planned by another copy of it): position by position the same color,
// arrival, id and coordinates, and the same distance from `probe` through
// DistanceRow, bit for bit, whatever slots either pool gave the position.
void ExpectSameCoreset(const ColoredPool& got, const ColoredPool& want,
                       const Point& probe) {
  ASSERT_EQ(got.size(), want.size());
  std::vector<double> got_row(got.slot_count());
  std::vector<double> want_row(want.slot_count());
  got.DistanceRow(kMetric, probe, got_row.data());
  want.DistanceRow(kMetric, probe, want_row.data(), ScanOrder::kBackward);
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.color(i), want.color(i)) << "position " << i;
    const Point g = got.At(i);
    const Point w = want.At(i);
    ASSERT_EQ(g.arrival, w.arrival) << "position " << i;
    ASSERT_EQ(g.id, w.id) << "position " << i;
    ASSERT_EQ(g.coords, w.coords) << "position " << i;
    ASSERT_TRUE(SameBits(got_row[got.slot(i)], want_row[want.slot(i)]))
        << "position " << i;
  }
}

TEST(QueryBehaviorTest, KeptCopiesAnswerLikeARestoredWindow) {
  // A d = 54 window whose densest valid guesses hold most of the window as
  // c-attractors, so their pools pass CoordinatePool::kTwinMinBytes
  // mid-stream and the guesses keep their other points' copies across
  // queries. Near-copies of recent points under caps of one evict
  // attractors from their own representative sets. A burst of far outliers
  // makes the dense guesses run Cleanup and go invalid until it expires,
  // so the chosen guess switches away and, a window later, back to a copy
  // pool left stale. The window expires and sweeps its arena throughout.
  // At each query the window is compared with its restore from a
  // checkpoint taken just before, whose guesses have no copy pool: the
  // coreset position by position and both objectives' answers. (The
  // restore rebuilds each attractor pool's twin from the pool's size, so
  // a restored window may read exact rows where the original reads shadow
  // rows: KeptCopiesReadTheShadowLikeFreshCopies compares the shadow
  // counters on one twin.)
  constexpr size_t kDim = 54;
  SlidingWindowOptions options;
  options.window_size = 3000;
  options.delta = 0.5;
  options.adaptive_range = true;
  const ColorConstraint constraint({1, 1, 1});
  FairCenterSlidingWindow window(options, constraint, &kMetric, &kJones);
  constexpr int64_t kEvery = 47;  // arrivals per query
  Rng rng(17);
  std::vector<Point> recent;
  int kept = 0;      // queries whose coreset borrowed a copy pool
  int switches = 0;  // queries on another guess than the last one
  int sweeps = 0;    // arrivals after which the arena swept
  int rebuilt = 0;   // switches back to a stale copy pool
  bool kept_last = false;
  double last_guess = 0.0;
  for (int64_t t = 1; t <= 7000; ++t) {
    Coordinates coords(kDim);
    if (t >= 3700 && t < 3704) {
      for (double& x : coords) x = 1e4 * static_cast<double>(t - 3699);
    } else if (!recent.empty() && rng.NextBernoulli(0.15)) {
      coords = recent[rng.NextBounded(recent.size())].coords;
      coords[rng.NextBounded(kDim)] += rng.NextUniform(0.0, 0.1);
    } else {
      for (double& x : coords) x = rng.NextUniform(0.0, 20.0);
    }
    const Point p(std::move(coords), static_cast<int>(rng.NextBounded(3)));
    recent.push_back(p);
    if (recent.size() > 20) recent.erase(recent.begin());
    const size_t rows = window.arena().size();
    ASSERT_TRUE(window.Update(p).ok());
    if (window.arena().size() <= rows) ++sweeps;
    // Queries start just before the twin and thin out while the outliers
    // hold the dense guesses invalid.
    const bool away = t > 3800 && t < 6600;
    if (t < 2700 || t % (away ? 5 * kEvery : kEvery) != 0) continue;
    SCOPED_TRACE("t=" + std::to_string(t));

    auto restored = FairCenterSlidingWindow::DeserializeState(
        window.SerializeState(), &kMetric, &kJones);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    FairCenterSlidingWindow& cold = restored.value();
    QueryStats got_stats;
    QueryStats want_stats;
    const auto got = window.Query(&got_stats);
    const auto want = cold.Query(&want_stats);
    ASSERT_TRUE(got.ok() && want.ok());
    ExpectSameAnswer(got.value(), want.value());
    ASSERT_TRUE(SameBits(got.value().radius, want.value().radius));
    ASSERT_EQ(got_stats.guess, want_stats.guess);
    ASSERT_EQ(got_stats.coreset_size, want_stats.coreset_size);

    auto got_plan = window.PlanQuery();
    auto want_plan = cold.PlanQuery();
    ASSERT_TRUE(got_plan.ok() && want_plan.ok());
    const ColoredPool& pool = got_plan.value().coreset;
    ExpectSameCoreset(pool, want_plan.value().coreset, p);
    const bool switched = last_guess != 0.0 && got_stats.guess != last_guess;
    switches += switched ? 1 : 0;
    last_guess = got_stats.guess;
    const bool warm = kept_last;
    kept_last = pool.tail() != nullptr;
    if (pool.tail() == nullptr) continue;
    ++kept;
    // Dead columns never pass a quarter of the copy pool.
    size_t live = 0;
    for (size_t i = 0; i < pool.size(); ++i) {
      live += pool.slot(i) >= pool.borrowed()->size() ? 1 : 0;
    }
    EXPECT_LE(3 * pool.tail()->size(), 4 * live);
    if (switched) {
      // Back on a guess whose copy pool Cleanup left all dead: rebuilt.
      EXPECT_EQ(got_stats.copied_points, static_cast<int64_t>(live));
      ++rebuilt;
    } else if (warm) {
      // The arrivals since the last hand-off add at most as many points.
      EXPECT_LE(got_stats.copied_points, kEvery);
      EXPECT_LT(got_stats.copied_points, static_cast<int64_t>(live));
    }
    // The k-median solve is slow on ~2,800 points: compare it once, on a
    // copy pool kept through several hand-offs.
    if (kept == 10) {
      const auto got_median = window.Query(ObjectiveKind::kKMedian);
      const auto want_median = cold.Query(ObjectiveKind::kKMedian);
      ASSERT_TRUE(got_median.ok() && want_median.ok());
      EXPECT_TRUE(
          SameBits(got_median.value().value, want_median.value().value));
      ExpectSamePoints(got_median.value().centers,
                       want_median.value().centers);
    }
  }
  EXPECT_GT(kept, 20);
  EXPECT_EQ(switches, 2);
  EXPECT_EQ(rebuilt, 1);
  EXPECT_GT(sweeps, 0);
}

TEST(QueryBehaviorTest, KeptCopiesReadTheShadowLikeFreshCopies) {
  // Two identical dense d = 54 guesses on one arena, fed the same stream
  // and swept with it: their attractor pools, and so their twins, are the
  // same. One keeps its copy pool across hand-offs; the other drops it
  // before each, so each of its hand-offs copies every other point anew.
  // Queries pause for a stretch, so the kept pool meets a stale set: far
  // outliers in that stretch make both guesses run Cleanup, which drops
  // most of the set. Later a run of near-copies replaces many recent
  // representatives, so dead columns pile up behind live ones, and expiry
  // kills the pool's front. Both pools answer alike, shadow counters
  // included.
  constexpr size_t kDim = 54;
  const ColorConstraint constraint({1, 1, 1});
  GuessStructure warm(40.0, 0.5, 3000, constraint, CoreVariant::kFull);
  GuessStructure cold(40.0, 0.5, 3000, constraint, CoreVariant::kFull);
  PointArena arena;
  Rng rng(17);
  std::vector<Point> recent;
  int64_t since = 0;  // arrivals since the last hand-off
  int kept = 0;       // hand-offs that lent the copy pool
  int rebuilt = 0;    // of those, the ones that copied every other point
  int swept = 0;      // sweeps while the copy pool was in use
  for (int64_t t = 1; t <= 8200; ++t) {
    Coordinates coords(kDim);
    if (t >= 3700 && t < 3704) {
      for (double& x : coords) x = 1e4 * static_cast<double>(t - 3699);
    } else if (!recent.empty() &&
               rng.NextBernoulli(t >= 6000 && t < 6600 ? 0.9 : 0.15)) {
      coords = recent[rng.NextBounded(recent.size())].coords;
      coords[rng.NextBounded(kDim)] += rng.NextUniform(0.0, 0.1);
    } else {
      for (double& x : coords) x = rng.NextUniform(0.0, 20.0);
    }
    Point p(std::move(coords), static_cast<int>(rng.NextBounded(3)), t,
            static_cast<uint64_t>(t));
    recent.push_back(p);
    if (recent.size() > 20) recent.erase(recent.begin());
    const Slot slot = arena.Add(p);
    warm.Update(slot, p, t, arena, kMetric, nullptr);
    cold.Update(slot, p, t, arena, kMetric, nullptr);
    const bool swept_now = arena.Sweep(
        [&](const auto& mark) {
          warm.ForEachSlot(mark);
          cold.ForEachSlot(mark);
        },
        [&](const std::vector<Slot>& map) {
          warm.RemapSlots(map);
          cold.RemapSlots(map);
        });
    swept += swept_now && warm.copy_pool() != nullptr ? 1 : 0;
    ++since;
    if (t < 2600 || (t > 3600 && t < 4600) || t % 23 != 0) continue;
    SCOPED_TRACE("t=" + std::to_string(t));
    int64_t warm_copied = 0;
    int64_t cold_copied = 0;
    const ColoredPool got = warm.CoresetPool(arena, &warm_copied);
    cold.DropCopyPool();
    const ColoredPool want = cold.CoresetPool(arena, &cold_copied);
    ExpectSameCoreset(got, want, p);
    const auto got_answer = kJones.SolvePool(kMetric, got, constraint);
    const auto want_answer = kJones.SolvePool(kMetric, want, constraint);
    ASSERT_TRUE(got_answer.ok() && want_answer.ok());
    ExpectSameAnswer(got_answer.value(), want_answer.value());
    EXPECT_EQ(got_answer.value().shadow_rows, want_answer.value().shadow_rows);
    EXPECT_EQ(got_answer.value().resolved_pairs,
              want_answer.value().resolved_pairs);
    if (got.tail() != nullptr) {
      ++kept;
      // A hand-off copies what joined since the last one, unless it
      // rebuilds the copy pool from every other point.
      const bool rebuilds = warm_copied == cold_copied;
      rebuilt += rebuilds ? 1 : 0;
      EXPECT_TRUE(warm_copied <= since || rebuilds)
          << warm_copied << " copied after " << since << " arrivals";
      // Dead columns never pass a quarter of the copy pool, however many
      // sweeps renumber it.
      ASSERT_EQ(got.tail(), warm.copy_pool());
      EXPECT_LE(3 * warm.copy_pool()->size(),
                4 * static_cast<size_t>(cold_copied));
    } else {
      EXPECT_EQ(warm_copied, cold_copied);
      EXPECT_EQ(warm.copy_pool(), nullptr);
    }
    since = 0;
  }
  EXPECT_GT(kept, 50);
  // The first hand-off past the twin, the first after the pause, and the
  // one at which the near-copies' dead columns pass a quarter; expiry
  // kills only a prefix, which is dropped, not rebuilt.
  EXPECT_EQ(rebuilt, 3);
  EXPECT_GT(swept, 1);
}

TEST(QueryBehaviorTest, ThreeDimensionalGuessesCopyEveryHandOff) {
  // A clustered 3-D window, as the fleet's: no attractor pool gets near
  // CoordinatePool::kTwinMinBytes, so no guess keeps a copy pool, and each
  // hand-off copies every point that is no borrowed column (all of them
  // when the pool copies everything).
  const ColorConstraint constraint({2, 1, 2});
  SlidingWindowOptions options;
  options.window_size = 100;
  options.adaptive_range = true;
  FairCenterSlidingWindow window(options, constraint, &kMetric, &kJones);
  Rng rng(5);
  int whole = 0;
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(window.Update(ClusteredPoint(&rng)).ok());
    if (i % 13 != 0) continue;
    QueryStats stats;
    ASSERT_TRUE(window.Query(&stats).ok());
    auto plan = window.PlanQuery();
    ASSERT_TRUE(plan.ok());
    const ColoredPool& pool = plan.value().coreset;
    EXPECT_EQ(pool.tail(), nullptr);
    EXPECT_EQ(stats.copied_points, static_cast<int64_t>(pool.copied()));
    EXPECT_EQ(plan.value().stats.copied_points, stats.copied_points);
    whole += stats.copied_points == stats.coreset_size ? 1 : 0;
  }
  EXPECT_GT(whole, 0);
}

TEST(QueryBehaviorTest, SolverOverridingOnlySolveGivesJonesAnswers) {
  // The shape of a forwarding decorator that predates SolvePool: the
  // default SolvePool materializes the pool and calls this Solve.
  class ForwardingSolver final : public FairCenterSolver {
   public:
    Result<FairCenterSolution> Solve(
        const Metric& metric, const std::vector<Point>& points,
        const ColorConstraint& constraint) const override {
      ++calls;
      return kJones.Solve(metric, points, constraint);
    }
    double ApproximationFactor() const override { return 3.0; }
    std::string Name() const override { return "forwarding"; }
    mutable int calls = 0;
  };
  const ForwardingSolver forwarding;
  const ColorConstraint constraint({2, 1, 2});
  SlidingWindowOptions options;
  options.window_size = 100;
  options.adaptive_range = true;
  FairCenterSlidingWindow plain(options, constraint, &kMetric, &kJones);
  FairCenterSlidingWindow forwarded(options, constraint, &kMetric,
                                    &forwarding);
  Rng rng(5);
  int queries = 0;
  for (int i = 0; i < 300; ++i) {
    const Point p = ClusteredPoint(&rng);
    ASSERT_TRUE(plain.Update(p).ok());
    ASSERT_TRUE(forwarded.Update(p).ok());
    if (i % 13 != 0) continue;
    ++queries;
    QueryStats plain_stats, forwarded_stats;
    auto want = plain.Query(&plain_stats);
    auto got = forwarded.Query(&forwarded_stats);
    ASSERT_TRUE(want.ok() && got.ok());
    ExpectSameAnswer(got.value(), want.value());
    EXPECT_EQ(forwarded_stats.guess, plain_stats.guess);
    EXPECT_EQ(forwarded_stats.coreset_size, plain_stats.coreset_size);
    EXPECT_EQ(forwarded_stats.guesses_inspected,
              plain_stats.guesses_inspected);
  }
  EXPECT_EQ(forwarding.calls, queries);

  // Out-of-range colors come back as kInvalidArgument through the adapter.
  const ColoredPool bad = ColoredPool::FromPoints({Point({0.0}, 7)});
  EXPECT_EQ(forwarding.SolvePool(kMetric, bad, constraint).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fkc
