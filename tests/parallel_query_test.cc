// The parallel query pipeline's contract: PlanQuery and both Query modes
// are bit-identical to the sequential scan at any thread count — the
// solution, every deterministic QueryStats field, and the serialized state
// all match byte for byte — and the batch-level expiry dedup never changes
// state, only skips provably no-op sweeps.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "core/fair_center_sliding_window.h"
#include "metric/metric.h"
#include "sequential/jones_fair_center.h"

namespace fkc {
namespace {

const EuclideanMetric kMetric;
const JonesFairCenter kJones;

std::vector<Point> Stream(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  for (int i = 0; i < n; ++i) {
    points.push_back(Point({rng.NextUniform(0, 100), rng.NextUniform(0, 100)},
                           static_cast<int>(rng.NextBounded(3))));
  }
  return points;
}

SlidingWindowOptions Options(bool adaptive, int num_threads) {
  SlidingWindowOptions options;
  options.window_size = 120;
  options.delta = 1.0;
  options.adaptive_range = adaptive;
  if (!adaptive) {
    options.d_min = 0.05;
    options.d_max = 400.0;
  }
  options.num_threads = num_threads;
  return options;
}

/// Everything a query run produces that must be thread-count invariant.
struct RunTrace {
  std::vector<double> radii;
  std::vector<Point> last_centers;
  std::vector<double> guesses;
  std::vector<int64_t> coreset_sizes;
  std::vector<int> inspected;
  std::string final_state;
};

RunTrace RunQueryTrace(bool adaptive, int num_threads, const std::vector<Point>& points) {
  const ColorConstraint constraint({2, 1, 1});
  FairCenterSlidingWindow window(Options(adaptive, num_threads), constraint,
                                 &kMetric, &kJones);
  RunTrace trace;
  for (size_t i = 0; i < points.size(); ++i) {
    window.Update(points[i]);
    if (i % 37 == 36) {
      QueryStats stats;
      auto result = window.Query(&stats);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      trace.radii.push_back(result.value().radius);
      trace.last_centers = result.value().centers;
      trace.guesses.push_back(stats.guess);
      trace.coreset_sizes.push_back(stats.coreset_size);
      trace.inspected.push_back(stats.guesses_inspected);
    }
  }
  trace.final_state = window.SerializeState();
  return trace;
}

void ExpectSameTrace(const RunTrace& a, const RunTrace& b) {
  EXPECT_EQ(a.radii, b.radii);
  EXPECT_EQ(a.guesses, b.guesses);
  EXPECT_EQ(a.coreset_sizes, b.coreset_sizes);
  EXPECT_EQ(a.inspected, b.inspected);
  EXPECT_EQ(a.final_state, b.final_state);
  ASSERT_EQ(a.last_centers.size(), b.last_centers.size());
  for (size_t i = 0; i < a.last_centers.size(); ++i) {
    EXPECT_EQ(a.last_centers[i].coords, b.last_centers[i].coords);
    EXPECT_EQ(a.last_centers[i].color, b.last_centers[i].color);
  }
}

TEST(ParallelQueryTest, FixedRangeBitIdenticalAcrossThreadCounts) {
  const auto points = Stream(400, 17);
  const RunTrace sequential = RunQueryTrace(/*adaptive=*/false, 1, points);
  for (int threads : {2, 8}) {
    ExpectSameTrace(sequential, RunQueryTrace(/*adaptive=*/false, threads, points));
  }
}

TEST(ParallelQueryTest, AdaptiveRangeBitIdenticalAcrossThreadCounts) {
  const auto points = Stream(400, 23);
  const RunTrace sequential = RunQueryTrace(/*adaptive=*/true, 1, points);
  for (int threads : {2, 8}) {
    ExpectSameTrace(sequential, RunQueryTrace(/*adaptive=*/true, threads, points));
  }
}

// The regression the parallel path must not introduce: guesses_inspected and
// coreset_size populated exactly as the sequential early-exit scan counts
// them, never torn or accumulated across threads.
TEST(ParallelQueryTest, QueryStatsMatchSequentialSemantics) {
  const auto points = Stream(300, 31);
  const ColorConstraint constraint({2, 1, 1});

  FairCenterSlidingWindow sequential(Options(/*adaptive=*/false, 1),
                                     constraint, &kMetric, &kJones);
  FairCenterSlidingWindow parallel(Options(/*adaptive=*/false, 8), constraint,
                                   &kMetric, &kJones);
  for (const Point& p : points) {
    sequential.Update(p);
    parallel.Update(p);
  }

  QueryStats seq_stats, par_stats;
  auto seq = sequential.Query(&seq_stats);
  auto par = parallel.Query(&par_stats);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(par.ok());
  EXPECT_GT(seq_stats.guesses_inspected, 0);
  EXPECT_GT(seq_stats.coreset_size, 0);
  EXPECT_EQ(seq_stats.guess, par_stats.guess);
  EXPECT_EQ(seq_stats.coreset_size, par_stats.coreset_size);
  EXPECT_EQ(seq_stats.guesses_inspected, par_stats.guesses_inspected);
}

// Query and the k-median Query run the same plan: identical selection
// diagnostics on identical state.
TEST(ParallelQueryTest, QueryAndKMedianQueryShareOnePlan) {
  const auto points = Stream(250, 41);
  const ColorConstraint constraint({2, 1, 1});
  FairCenterSlidingWindow window(Options(/*adaptive=*/true, 4), constraint,
                                 &kMetric, &kJones);
  for (const Point& p : points) window.Update(p);

  QueryStats query_stats, kmedian_stats;
  ASSERT_TRUE(window.Query(&query_stats).ok());
  ASSERT_TRUE(window.Query(ObjectiveKind::kKMedian, &kmedian_stats).ok());
  EXPECT_EQ(query_stats.guess, kmedian_stats.guess);
  EXPECT_EQ(query_stats.coreset_size, kmedian_stats.coreset_size);
  EXPECT_EQ(query_stats.guesses_inspected, kmedian_stats.guesses_inspected);
}

TEST(ParallelQueryTest, PlanQueryOnEmptyWindowIsEmpty) {
  const ColorConstraint constraint({2, 1, 1});
  FairCenterSlidingWindow window(Options(/*adaptive=*/true, 4), constraint,
                                 &kMetric, &kJones);
  auto plan = window.PlanQuery();
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan.value().coreset.empty());
  EXPECT_EQ(plan.value().stats.coreset_size, 0);
  EXPECT_EQ(plan.value().stats.guesses_inspected, 0);
}

// Batch-level expiry dedup: the watermark reduces actual sweeps to a small
// fraction of the ExpireOnly calls (one per arrival per guess before), while
// the state stays bit-identical to the always-sweep behaviour (covered by
// the thread-count tests above, which serialize the final state).
TEST(ParallelQueryTest, ExpiryDedupSkipsMostSweeps) {
  const auto points = Stream(600, 53);
  const ColorConstraint constraint({2, 1, 1});
  FairCenterSlidingWindow window(Options(/*adaptive=*/false, 1), constraint,
                                 &kMetric, &kJones);
  std::vector<Point> batch = points;
  window.UpdateBatch(std::move(batch));

  const int64_t guesses = window.Memory().guesses;
  ASSERT_GT(guesses, 0);
  // Without dedup every arrival sweeps every guess: 600 * guesses sweeps.
  // The watermark brings it down to the actual expiry events.
  const int64_t naive = 600 * guesses;
  EXPECT_LT(window.ExpirySweeps(), naive / 4)
      << "expiry watermark is not deduplicating sweeps";
}

}  // namespace
}  // namespace fkc
