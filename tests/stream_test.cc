// Tests for the streaming substrate: vector streams, the reference window,
// the metrics recorder, and the experiment driver.
#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/fair_center_sliding_window.h"
#include "metric/metric.h"
#include "sequential/jones_fair_center.h"
#include "stream/metrics_recorder.h"
#include "stream/reference_window.h"
#include "stream/stream.h"
#include "stream/window_driver.h"

namespace fkc {
namespace {

const EuclideanMetric kMetric;
const JonesFairCenter kJones;

Point P(double x, int color) { return Point({x}, color); }

TEST(VectorStreamTest, EmitsInOrderAndEnds) {
  VectorStream stream({P(1, 0), P(2, 1)}, 2, "test");
  EXPECT_EQ(stream.Next()->coords[0], 1.0);
  EXPECT_EQ(stream.Next()->coords[0], 2.0);
  EXPECT_FALSE(stream.Next().has_value());
  EXPECT_EQ(stream.ell(), 2);
  EXPECT_EQ(stream.dimension(), 1);
  EXPECT_EQ(stream.Name(), "test");
}

TEST(VectorStreamTest, CyclingRestarts) {
  VectorStream stream({P(1, 0), P(2, 0)}, 1, "cyc", /*cycle=*/true);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(stream.Next()->coords[0], 1.0);
    EXPECT_EQ(stream.Next()->coords[0], 2.0);
  }
}

TEST(VectorStreamTest, EmptyCyclingStreamEnds) {
  VectorStream stream({}, 1, "empty", /*cycle=*/true);
  EXPECT_FALSE(stream.Next().has_value());
}

TEST(ReferenceWindowTest, EvictsOldest) {
  ReferenceWindow window(2);
  window.Update(P(1, 0));
  window.Update(P(2, 0));
  window.Update(P(3, 0));
  const auto snapshot = window.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].coords[0], 2.0);
  EXPECT_EQ(snapshot[1].coords[0], 3.0);
  EXPECT_EQ(window.MemoryPoints(), 2);
}

TEST(ReferenceWindowTest, QueryRunsSolverOnWindow) {
  ReferenceWindow window(10);
  window.Update(P(0, 0));
  window.Update(P(10, 1));
  auto result = window.Query(kMetric, kJones, ColorConstraint({1, 1}));
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().radius, 10.0);
  EXPECT_FALSE(result.value().centers.empty());
}

TEST(MetricsRecorderTest, Aggregation) {
  MetricsRecorder rec("algo");
  rec.RecordUpdateNanos(2000000);
  rec.RecordUpdateNanos(4000000);
  rec.RecordQuery(1000000, 5.0, 100, 1.25);
  rec.RecordQuery(3000000, 7.0, 200, 0.75);
  EXPECT_DOUBLE_EQ(rec.MeanUpdateMillis(), 3.0);
  EXPECT_DOUBLE_EQ(rec.MeanQueryMillis(), 2.0);
  EXPECT_DOUBLE_EQ(rec.MeanRadius(), 6.0);
  EXPECT_DOUBLE_EQ(rec.MeanMemoryPoints(), 150.0);
  EXPECT_DOUBLE_EQ(rec.MeanApproxRatio(), 1.0);
  EXPECT_EQ(rec.QueryCount(), 2);
  EXPECT_EQ(rec.UpdateCount(), 2);
}

TEST(MetricsRecorderTest, NanRatiosIgnored) {
  MetricsRecorder rec("algo");
  rec.RecordQuery(1, 1.0, 1, std::nan(""));
  EXPECT_TRUE(std::isnan(rec.MeanApproxRatio()));
  rec.RecordQuery(1, 1.0, 1, 2.0);
  EXPECT_DOUBLE_EQ(rec.MeanApproxRatio(), 2.0);
}

std::vector<Point> TwoClusterData(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  for (int i = 0; i < n; ++i) {
    const double base = rng.NextBernoulli(0.5) ? 0.0 : 100.0;
    points.push_back(
        P(base + rng.NextUniform(0, 1), static_cast<int>(rng.NextBounded(2))));
  }
  return points;
}

TEST(WindowDriverTest, RunsStreamingAndBaselineTogether) {
  const ColorConstraint constraint({1, 1});
  const int64_t window_size = 50;

  SlidingWindowOptions options;
  options.window_size = window_size;
  options.delta = 1.0;
  options.adaptive_range = true;
  FairCenterSlidingWindow ours(options, constraint, &kMetric, &kJones);

  WindowDriver driver(&kMetric, constraint, window_size);
  driver.AddStreaming("Ours", &ours);
  driver.AddBaseline("Jones", &kJones);

  VectorStream stream(TwoClusterData(400, 3), 2, "two-cluster");
  DriverOptions run;
  run.stream_length = 300;
  run.num_queries = 20;
  const auto reports = driver.Run(&stream, run);

  ASSERT_EQ(reports.size(), 2u);
  const auto& ours_report = reports[0];
  const auto& jones_report = reports[1];
  EXPECT_EQ(ours_report.queries, 20);
  EXPECT_EQ(jones_report.queries, 20);
  // The baseline defines ratio 1.0 for itself (it is the only baseline).
  EXPECT_NEAR(jones_report.mean_ratio, 1.0, 1e-9);
  // Streaming quality within the theoretical factor of the baseline.
  EXPECT_LT(ours_report.mean_ratio, 4.0);
  EXPECT_GT(ours_report.mean_ratio, 0.1);
  // Baseline memory = full window; streaming memory smaller on clustered
  // data with a short ladder... at minimum both positive.
  EXPECT_DOUBLE_EQ(jones_report.mean_memory_points,
                   static_cast<double>(window_size));
  EXPECT_GT(ours_report.mean_memory_points, 0);
}

TEST(WindowDriverTest, LiteVariantDrivable) {
  const ColorConstraint constraint({1, 1});
  SlidingWindowOptions options;
  options.window_size = 40;
  options.adaptive_range = true;
  FairCenterSlidingWindow lite(ValidationOnlyOptions(options), constraint,
                               &kMetric, &kJones);

  WindowDriver driver(&kMetric, constraint, 40);
  driver.AddStreaming("Lite", &lite);
  VectorStream stream(TwoClusterData(200, 7), 2, "two-cluster");
  DriverOptions run;
  run.stream_length = 150;
  run.num_queries = 10;
  const auto reports = driver.Run(&stream, run);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].queries, 10);
  // No baseline registered: ratio undefined.
  EXPECT_TRUE(std::isnan(reports[0].mean_ratio));
}

TEST(WindowDriverTest, QueryStrideSpacesMeasurements) {
  const ColorConstraint constraint({1, 1});
  SlidingWindowOptions options;
  options.window_size = 30;
  options.adaptive_range = true;
  FairCenterSlidingWindow ours(options, constraint, &kMetric, &kJones);

  WindowDriver driver(&kMetric, constraint, 30);
  driver.AddStreaming("Ours", &ours);
  VectorStream stream(TwoClusterData(500, 9), 2, "two-cluster");
  DriverOptions run;
  run.stream_length = 400;
  run.num_queries = 5;
  run.query_stride = 10;
  const auto reports = driver.Run(&stream, run);
  EXPECT_EQ(reports[0].queries, 5);
}

}  // namespace
}  // namespace fkc
