// Differential tests for the c-phase's pivot index (core/pivot_index.h):
// the same stream through a window (or a guess) whose large c-pools are
// indexed, and one on ExactScanMetric, which states no rounding error and
// so scans every pool with exact distances. The index may only skip
// distances that are out of range, so checkpoint bytes and query answers
// must agree at every query point. The windows are large enough for the
// index to build on its own (PivotIndex::kBuildColumns), and each run
// checks that it pruned pairs, so no case compares the scan with itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/fair_center_sliding_window.h"
#include "core/guess_structure.h"
#include "core/pivot_index.h"
#include "core/point_arena.h"
#include "datasets/registry.h"
#include "exact_scan_metric.h"
#include "metric/aspect_ratio.h"
#include "metric/counting_metric.h"
#include "metric/metric.h"
#include "sequential/jones_fair_center.h"

namespace fkc {
namespace {

const EuclideanMetric kEuclidean;
const ManhattanMetric kManhattan;
const ChebyshevMetric kChebyshev;
const JonesFairCenter kJones;

struct Stream {
  std::vector<Point> points;
  int ell = 0;
};

Stream Dataset(const char* name, int64_t n) {
  auto made = datasets::MakeDataset(name, n, /*seed=*/7);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  return {std::move(made.value().points), made.value().ell};
}

/// Every coordinate times `scale`: near 1e-310 the coordinates are
/// subnormal, near 1e154 squared differences overflow.
Stream Scaled(Stream stream, double scale) {
  for (Point& p : stream.points) {
    for (double& x : p.coords) x *= scale;
  }
  return stream;
}

/// Each point twice in a row.
Stream Doubled(const Stream& stream) {
  Stream out{{}, stream.ell};
  for (const Point& p : stream.points) {
    out.points.push_back(p);
    out.points.push_back(p);
  }
  return out;
}

struct WindowCase {
  const char* label;
  Stream (*make)();
  const Metric* metric;
  bool adaptive;
  double delta;
  int threads;   ///< 1 feeds Update per point; more feeds UpdateBatch
  bool restore;  ///< restore the indexed window from its bytes mid-stream
  bool pruned;   ///< the index must have saved most c-phase pairs
};

constexpr int64_t kWindow = 3000;
constexpr int64_t kArrivals = kWindow + 1500;
constexpr int64_t kQueryEvery = 750;

Stream Covtype() { return Dataset("covtype", kArrivals); }
Stream Phones() { return Dataset("phones", kArrivals); }
Stream CovtypeTiny() { return Scaled(Covtype(), 1e-310); }
Stream PhonesSmall() { return Scaled(Phones(), 1e-160); }
// Phones coordinates reach ~1.3e4, its typical distances ~10: scaled by
// 1e150, the outliers' coordinates are near 1e154 and their distances
// overflow, while the bulk of the stream keeps finite ones.
Stream PhonesHuge() { return Scaled(Phones(), 1e150); }
Stream CovtypeDoubled() {
  return Doubled(Dataset("covtype", kArrivals / 2 + 1));
}

class PivotIndexWindowTest : public ::testing::TestWithParam<WindowCase> {};

TEST_P(PivotIndexWindowTest, StateAndAnswersMatchTheExactScan) {
  const WindowCase c = GetParam();
  const Stream stream = c.make();
  const std::vector<Point>& points = stream.points;
  ASSERT_GE(static_cast<int64_t>(points.size()), kArrivals);
  const ColorConstraint constraint =
      ColorConstraint::Proportional(points, stream.ell, 14);

  SlidingWindowOptions options;
  options.window_size = kWindow;
  options.delta = c.delta;
  options.adaptive_range = c.adaptive;
  options.num_threads = c.threads;
  if (!c.adaptive) {
    const std::vector<Point> sample(points.begin(), points.begin() + 300);
    const DistanceExtrema extrema =
        ComputeDistanceExtrema(*c.metric, sample).value();
    options.d_min = extrema.min_distance / 2.0;
    options.d_max = extrema.max_distance * 2.0;
  }

  const CountingMetric indexed(c.metric);
  const CountingMetric scanned(c.metric);
  const ExactScanMetric exact(&scanned);
  auto fast = std::make_unique<FairCenterSlidingWindow>(options, constraint,
                                                        &indexed, &kJones);
  FairCenterSlidingWindow reference(options, constraint, &exact, &kJones);

  std::vector<Point> batch;
  for (int64_t t = 0; t < kArrivals; ++t) {
    if (c.threads == 1) {
      ASSERT_TRUE(fast->Update(points[t]).ok());
      ASSERT_TRUE(reference.Update(points[t]).ok());
    } else {
      batch.push_back(points[t]);
      if (batch.size() == 50) {
        ASSERT_TRUE(fast->UpdateBatch(batch).ok());
        ASSERT_TRUE(reference.UpdateBatch(std::move(batch)).ok());
        batch.clear();
      }
    }
    if ((t + 1) % kQueryEvery != 0) continue;
    ASSERT_TRUE(batch.empty());
    ASSERT_EQ(fast->SerializeState(), reference.SerializeState())
        << c.label << " t=" << t;
    const auto got = fast->Query();
    const auto want = reference.Query();
    ASSERT_EQ(got.ok(), want.ok()) << c.label << " t=" << t;
    if (want.ok()) {
      EXPECT_EQ(std::memcmp(&got.value().radius, &want.value().radius,
                            sizeof(double)),
                0)
          << c.label << " t=" << t;
      ASSERT_EQ(got.value().centers.size(), want.value().centers.size());
      for (size_t i = 0; i < want.value().centers.size(); ++i) {
        EXPECT_EQ(got.value().centers[i].id, want.value().centers[i].id)
            << c.label << " t=" << t << " center " << i;
        EXPECT_EQ(got.value().centers[i].coords,
                  want.value().centers[i].coords)
            << c.label << " t=" << t << " center " << i;
      }
    }
    // A restored window holds no index; it rebuilds one from the pools it
    // restored, with pivots of its own.
    if (c.restore && t + 1 == 2 * kQueryEvery) {
      auto restored = FairCenterSlidingWindow::DeserializeState(
          fast->SerializeState(), &indexed, &kJones);
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      fast = std::make_unique<FairCenterSlidingWindow>(
          std::move(restored).value());
    }
  }
  // Both windows made the same decisions; the indexed one must have made
  // them from far fewer distances, or the index never ran. Where it cannot
  // prune, its builds and pivot rows still cost pairs the scan does not.
  if (c.pruned) {
    EXPECT_LT(2 * indexed.count(), scanned.count())
        << c.label << ": " << indexed.count() << " vs " << scanned.count();
  } else {
    EXPECT_NE(indexed.count(), scanned.count()) << c.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, PivotIndexWindowTest,
    ::testing::Values(
        WindowCase{"covtype_fixed_euclidean", &Covtype, &kEuclidean, false,
                   0.5, 1, false, true},
        WindowCase{"covtype_adaptive_euclidean_restored", &Covtype,
                   &kEuclidean, true, 0.5, 1, true, true},
        WindowCase{"covtype_fixed_manhattan_batch4", &Covtype, &kManhattan,
                   false, 0.5, 4, false, true},
        WindowCase{"covtype_adaptive_chebyshev_batch4", &Covtype, &kChebyshev,
                   true, 0.5, 4, false, true},
        WindowCase{"covtype_duplicates_fixed_euclidean", &CovtypeDoubled,
                   &kEuclidean, false, 0.5, 1, false, true},
        // d = 3: a small delta makes the c-pools large.
        WindowCase{"phones_small_delta_adaptive_euclidean", &Phones,
                   &kEuclidean, true, 0.05, 1, true, true},
        WindowCase{"phones_small_delta_fixed_chebyshev_batch4", &Phones,
                   &kChebyshev, false, 0.05, 4, false, true},
        // Subnormal coordinates: Manhattan's error is relative only, so the
        // index still prunes. Euclidean's squares underflow near 1e-160, and
        // its stated absolute error, ~1e-161, is the size of the distances:
        // the index has to keep most rows.
        WindowCase{"covtype_1e-310_adaptive_manhattan", &CovtypeTiny,
                   &kManhattan, true, 0.5, 1, false, true},
        WindowCase{"phones_1e-160_adaptive_euclidean", &PhonesSmall,
                   &kEuclidean, true, 0.05, 1, false, false},
        // Squared differences overflow: infinite pivot distances must never
        // prune. Fixed range: the adaptive ladder cannot place an infinite
        // distance.
        WindowCase{"phones_1e150_fixed_euclidean", &PhonesHuge, &kEuclidean,
                   false, 0.05, 1, false, false}),
    [](const auto& info) {
      std::string name = info.param.label;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// One guess driven as a window drives it: each arrival added to the arena,
// and the arena swept after each update.
struct DrivenGuess {
  DrivenGuess(double gamma, double delta, int64_t window,
              const ColorConstraint& constraint)
      : guess(gamma, delta, window, constraint, CoreVariant::kFull) {}

  void Feed(const Point& p, const Metric& metric) {
    guess.Update(arena.Add(p), p, p.arrival, arena, metric, nullptr);
    arena.Sweep([this](const auto& mark) { guess.ForEachSlot(mark); },
                [this](const std::vector<Slot>& map) { guess.RemapSlots(map); });
  }

  /// Every stored reference as a point id, in ForEachSlot order.
  std::vector<uint64_t> Ids() const {
    std::vector<uint64_t> ids;
    guess.ForEachSlot([&](Slot s) { ids.push_back(arena.id(s)); });
    return ids;
  }

  PointArena arena;
  GuessStructure guess;
};

/// Feeds `points` to an indexed and an exact-scan guess; compares their
/// stored references after every arrival. `on_arrival(t, indexed)` may
/// check the indexed guess.
template <typename OnArrival>
void RunGuessPair(const std::vector<Point>& points, const Metric& metric,
                  double gamma, double delta, int64_t window,
                  OnArrival&& on_arrival) {
  const ColorConstraint constraint =
      ColorConstraint::Proportional(points, 2, 6);
  const ExactScanMetric exact(&metric);
  DrivenGuess indexed(gamma, delta, window, constraint);
  DrivenGuess reference(gamma, delta, window, constraint);
  for (size_t t = 0; t < points.size(); ++t) {
    indexed.Feed(points[t], metric);
    reference.Feed(points[t], exact);
    ASSERT_EQ(indexed.Ids(), reference.Ids()) << metric.Name() << " t=" << t;
    on_arrival(t, indexed.guess);
  }
}

Point StreamPoint(Coordinates coords, size_t t) {
  return Point(std::move(coords), static_cast<int>(t % 2),
               static_cast<int64_t>(t + 1), static_cast<uint64_t>(t + 1));
}

// Integer lattice points with gamma = 64, delta = 1/16: the c-phase radius
// is exactly 2, and many pairs lie at exactly 2 (one axis step of 2) under
// all three metrics. 2 gamma is near the lattice's diameter, so a few
// v-attractors cover it and the c-pool grows past the build size. An
// attractor at exactly the radius is in range; the index must keep every
// one of them.
TEST(PivotIndexGuessTest, PointsAtExactlyTheRadiusMatchTheExactScan) {
  Rng rng(11);
  std::vector<Point> points;
  for (size_t t = 0; t < 4000; ++t) {
    points.push_back(StreamPoint({static_cast<double>(rng.NextInt(0, 79)),
                                  static_cast<double>(rng.NextInt(0, 79)),
                                  static_cast<double>(rng.NextInt(0, 19))},
                                 t));
  }
  for (const Metric* metric :
       std::vector<const Metric*>{&kEuclidean, &kManhattan, &kChebyshev}) {
    const CountingMetric counted(metric);
    int64_t indexed_arrivals = 0;
    RunGuessPair(points, counted, 64.0, 1.0 / 16.0, 3000,
                 [&](size_t, const GuessStructure& guess) {
                   if (guess.c_index().built()) ++indexed_arrivals;
                 });
    EXPECT_GT(indexed_arrivals, 1000) << metric->Name();
  }
}

// A spread phase fills the c-pool past the build size, a tight phase
// drains it below the teardown size as the spread points expire, and a
// second spread phase grows it back: the index is built, dropped and
// rebuilt, and the guess matches the exact scan throughout.
TEST(PivotIndexGuessTest, PoolFallsBelowTeardownAndGrowsBack) {
  constexpr int64_t kGuessWindow = 2000;
  Rng rng(13);
  std::vector<Point> points;
  const auto spread = [&] {
    return Coordinates{rng.NextUniform(0.0, 100.0), rng.NextUniform(0.0, 100.0),
                       rng.NextUniform(0.0, 100.0)};
  };
  for (size_t t = 0; t < 2000; ++t) points.push_back(StreamPoint(spread(), t));
  for (size_t t = 2000; t < 4500; ++t) {
    points.push_back(StreamPoint({rng.NextUniform(0.0, 1.0), 0.0, 0.0}, t));
  }
  for (size_t t = 4500; t < 6500; ++t) {
    points.push_back(StreamPoint(spread(), t));
  }
  const CountingMetric counted(&kEuclidean);
  bool built = false;
  int builds = 0;
  int teardowns = 0;
  size_t smallest_after_first_build = PivotIndex::kBuildColumns;
  RunGuessPair(points, counted, 256.0, 1.0 / 256.0, kGuessWindow,
               [&](size_t, const GuessStructure& guess) {
                 const bool now_built = guess.c_index().built();
                 if (now_built && !built) ++builds;
                 if (!now_built && built) ++teardowns;
                 if (builds > 0) {
                   smallest_after_first_build = std::min(
                       smallest_after_first_build,
                       static_cast<size_t>(guess.c_attractor_count()));
                 }
                 built = now_built;
               });
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(teardowns, 1);
  EXPECT_LT(smallest_after_first_build, PivotIndex::kTeardownColumns);
}

// Coordinates near 1e154: every fifth point is one far point, whose
// distance to the others overflows to +inf. Farthest-first picks it as a
// pivot, so the other rows are wild (kept as candidates for every arrival)
// and their arrivals' rows are infinite (they scan the whole pool); the
// far point's own arrivals are filtered. None may change a decision.
TEST(PivotIndexGuessTest, InfinitePivotDistancesNeverPrune) {
  Rng rng(17);
  std::vector<Point> points;
  for (size_t t = 0; t < 3000; ++t) {
    points.push_back(StreamPoint(
        t % 5 == 0 ? Coordinates{1e154, -1e154, 0.0}
                   : Coordinates{rng.NextUniform(0.0, 50.0),
                                 rng.NextUniform(0.0, 50.0),
                                 rng.NextUniform(0.0, 50.0)},
        t));
  }
  const CountingMetric counted(&kEuclidean);
  int64_t indexed_arrivals = 0;
  RunGuessPair(points, counted, 256.0, 1.0 / 256.0, 3000,
               [&](size_t, const GuessStructure& guess) {
                 if (guess.c_index().built()) ++indexed_arrivals;
               });
  EXPECT_GT(indexed_arrivals, 1000);
}

// PivotIndex alone: after a build over `initial`, every later point is
// probed and appended and the oldest rows dropped, as a guess does, and
// then every query must get every column whose computed distance is within
// the range among its candidates. `range_of(q, dists)` picks each query's
// range from its computed distances to the final pool, so a range may
// equal a distance exactly; each query gets an index built for its range.
template <typename RangeOf>
void ExpectCandidatesCoverTheRange(const Metric& metric,
                                   const std::vector<Point>& initial,
                                   const std::vector<Point>& later,
                                   const std::vector<Point>& queries,
                                   RangeOf&& range_of) {
  int64_t checked = 0;
  // The pool after the appends and drops, position by position.
  std::vector<Point> final_points = initial;
  final_points.insert(final_points.end(), later.begin(), later.end());
  final_points.erase(final_points.begin(),
                     final_points.begin() + 2 * (later.size() / 3));
  const CoordinatePool final_pool = CoordinatePool::FromPoints(final_points);
  std::vector<double> dists(final_pool.size());
  for (const Point& q : queries) {
    metric.DistanceSoA(q, final_pool, dists.data());
    const double range = range_of(q, dists);
    CoordinatePool pool = CoordinatePool::FromPoints(initial);
    PivotIndex index;
    ASSERT_TRUE(index.Build(metric, pool, range));
    for (size_t i = 0; i < later.size(); ++i) {
      index.Probe(later[i]);
      index.Append();
      pool.Append(later[i]);
      if (i % 3 == 2) {
        index.DropFront(2);
        pool.DropFront(2);
      }
    }
    ASSERT_EQ(index.size(), final_pool.size());
    // An arrival with an infinite pivot distance is not filtered: its
    // caller scans the whole pool.
    if (!index.Probe(q)) continue;
    const std::vector<size_t>& candidates = index.Candidates();
    std::vector<bool> kept(final_pool.size(), false);
    for (size_t i : candidates) {
      ASSERT_LT(i, final_pool.size());
      kept[i] = true;
    }
    for (size_t i = 0; i < final_pool.size(); ++i) {
      if (dists[i] <= range) {
        ++checked;
        EXPECT_TRUE(kept[i]) << metric.Name() << " column " << i << " at "
                             << dists[i] << " <= " << range;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

/// The `rank`-th smallest finite distance: a range with a column exactly
/// on it.
double RankedDistance(std::vector<double> dists, size_t rank) {
  dists.erase(std::remove_if(dists.begin(), dists.end(),
                             [](double d) { return !std::isfinite(d); }),
              dists.end());
  std::nth_element(dists.begin(), dists.begin() + rank, dists.end());
  return dists[rank];
}

// Points on one line through 54 dimensions: every triple is collinear, so
// a pivot bound equals the distance it bounds in exact arithmetic, and
// only the rounding margin keeps a column that lies exactly on the range.
TEST(PivotIndexTest, CollinearColumnsOnTheRangeAreCandidates) {
  Rng rng(23);
  constexpr size_t kDim = 54;
  Coordinates origin(kDim), direction(kDim);
  for (size_t d = 0; d < kDim; ++d) {
    origin[d] = rng.NextUniform(-10.0, 10.0);
    direction[d] = rng.NextUniform(-1.0, 1.0);
  }
  const auto on_line = [&] {
    const double s = rng.NextUniform(0.0, 1000.0);
    Coordinates c(kDim);
    for (size_t d = 0; d < kDim; ++d) c[d] = origin[d] + s * direction[d];
    return Point(std::move(c), 0);
  };
  std::vector<Point> initial, later, queries;
  for (int i = 0; i < 600; ++i) initial.push_back(on_line());
  for (int i = 0; i < 300; ++i) later.push_back(on_line());
  for (int i = 0; i < 40; ++i) queries.push_back(on_line());
  for (const Metric* metric :
       std::vector<const Metric*>{&kEuclidean, &kManhattan, &kChebyshev}) {
    ExpectCandidatesCoverTheRange(
        *metric, initial, later, queries,
        [](const Point&, const std::vector<double>& dists) {
          return RankedDistance(dists, 3);
        });
  }
}

// One axis through the overflow boundary sqrt(DBL_MAX) ~ 1.34e154: the
// squared distance from the origin overflows past it. Farthest-first picks
// the origin as a pivot, so columns past the boundary are wild rows, and a
// query just inside it, with finite pivot distances, lies within range of
// wild columns just outside.
TEST(PivotIndexTest, WildColumnsAreCandidates) {
  const double boundary = std::sqrt(DBL_MAX);
  Rng rng(29);
  const auto at = [](double x) { return Point(Coordinates{x, 0.0, 0.0}, 0); };
  const auto near_boundary = [&] {
    return at(boundary * (1.0 + rng.NextUniform(-1e-3, 1e-3)));
  };
  std::vector<Point> initial{at(0.0)}, later, queries;
  for (int i = 0; i < 800; ++i) initial.push_back(near_boundary());
  for (int i = 0; i < 300; ++i) later.push_back(near_boundary());
  // Just inside the boundary: each query's range reaches across it.
  for (int i = 0; i < 40; ++i) {
    queries.push_back(at(boundary * (1.0 - rng.NextUniform(1e-7, 1e-5))));
  }
  ExpectCandidatesCoverTheRange(
      kEuclidean, initial, later, queries,
      [&](const Point&, const std::vector<double>& dists) {
        return RankedDistance(dists, 20);
      });
}

// Subnormal arithmetic: Manhattan and Chebyshev coordinates near 1e-310,
// and Euclidean ones near 1e-160, whose squares are subnormal (near 1e-310
// every Euclidean distance is 0).
TEST(PivotIndexTest, SubnormalColumnsOnTheRangeAreCandidates) {
  for (const Metric* metric :
       std::vector<const Metric*>{&kEuclidean, &kManhattan, &kChebyshev}) {
    const double scale = metric == &kEuclidean ? 1e-160 : 1e-310;
    Rng rng(31);
    const auto tiny = [&] {
      Coordinates c(5);
      for (double& x : c) x = rng.NextUniform(0.0, 1000.0) * scale;
      return Point(std::move(c), 0);
    };
    std::vector<Point> initial, later, queries;
    for (int i = 0; i < 600; ++i) initial.push_back(tiny());
    for (int i = 0; i < 300; ++i) later.push_back(tiny());
    for (int i = 0; i < 30; ++i) queries.push_back(tiny());
    ExpectCandidatesCoverTheRange(
        *metric, initial, later, queries,
        [](const Point&, const std::vector<double>& dists) {
          return RankedDistance(dists, 5);
        });
  }
}

// A metric that states no rounding error never gets an index.
TEST(PivotIndexGuessTest, MetricsWithoutAnErrorModelKeepTheScan) {
  const ExactScanMetric silent(&kEuclidean);
  EXPECT_FALSE(silent.RoundingError(3).has_value());
  ASSERT_TRUE(kEuclidean.RoundingError(54).has_value());
  EXPECT_TRUE(CountingMetric(&kManhattan).RoundingError(3).has_value());
  Rng rng(19);
  std::vector<Point> points;
  for (size_t t = 0; t < 1500; ++t) {
    points.push_back(StreamPoint(
        {rng.NextUniform(0.0, 100.0), rng.NextUniform(0.0, 100.0)}, t));
  }
  RunGuessPair(points, silent, 0.5, 1.0, 3000,
               [](size_t, const GuessStructure& guess) {
                 EXPECT_FALSE(guess.c_index().built());
               });
}

}  // namespace
}  // namespace fkc
