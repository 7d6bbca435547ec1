// End-to-end integration: datasets -> driver -> streaming algorithms vs
// sequential baselines, verifying the paper's qualitative claims at
// miniature scale (solution quality within a small factor of the baselines,
// sub-window memory, fairness everywhere).
#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/fair_center_sliding_window.h"
#include "datasets/registry.h"
#include "metric/aspect_ratio.h"
#include "metric/metric.h"
#include "sequential/chen_matroid_center.h"
#include "sequential/jones_fair_center.h"
#include "stream/window_driver.h"

namespace fkc {
namespace {

const EuclideanMetric kMetric;
const JonesFairCenter kJones;
const ChenMatroidCenter kChen;

class DatasetIntegrationTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DatasetIntegrationTest, FullPipelineMatchesPaperClaims) {
  const std::string dataset_name = GetParam();
  const int64_t window_size = 300;
  const int64_t stream_length = 900;

  auto dataset = datasets::MakeDataset(dataset_name, stream_length);
  ASSERT_TRUE(dataset.ok());
  const int ell = dataset.value().ell;
  const ColorConstraint constraint =
      ColorConstraint::Proportional(dataset.value().points, ell, 14);

  // Distance bounds for the fixed-range variant, as the paper's Ours.
  std::vector<Point> sample;
  for (size_t i = 0; i < dataset.value().points.size(); i += 3) {
    sample.push_back(dataset.value().points[i]);
  }
  const DistanceExtrema extrema =
      ComputeDistanceExtrema(kMetric, sample).value();
  ASSERT_GT(extrema.max_distance, 0.0);

  SlidingWindowOptions fixed;
  fixed.window_size = window_size;
  fixed.beta = 2.0;
  fixed.delta = 0.5;
  fixed.d_min = extrema.min_distance;
  fixed.d_max = extrema.max_distance * 1.5;  // sample slack
  FairCenterSlidingWindow ours(fixed, constraint, &kMetric, &kJones);

  SlidingWindowOptions adaptive = fixed;
  adaptive.adaptive_range = true;
  adaptive.d_min = adaptive.d_max = 0.0;
  FairCenterSlidingWindow oblivious(adaptive, constraint, &kMetric, &kJones);

  FairCenterSlidingWindow lite(ValidationOnlyOptions(adaptive), constraint,
                               &kMetric, &kJones);

  WindowDriver driver(&kMetric, constraint, window_size);
  driver.AddStreaming("Ours", &ours);
  driver.AddStreaming("OursOblivious", &oblivious);
  driver.AddStreaming("Lite", &lite);
  driver.AddBaseline("Jones", &kJones);
  driver.AddBaseline("ChenEtAl", &kChen);

  auto stream = datasets::MakeStream(std::move(dataset).value());
  DriverOptions run;
  run.stream_length = stream_length;
  run.num_queries = 10;
  run.query_stride = 5;
  const auto reports = driver.Run(stream.get(), run);
  ASSERT_EQ(reports.size(), 5u);

  const auto& ours_report = reports[0];
  const auto& oblivious_report = reports[1];
  const auto& lite_report = reports[2];

  // Paper, Fig. 1: streaming solutions within ~2x of the best baseline even
  // at coarse coresets; delta = 0.5 is the most accurate setting. Allow a
  // generous margin for the tiny windows used here.
  EXPECT_LT(ours_report.mean_ratio, 2.5) << dataset_name;
  EXPECT_LT(oblivious_report.mean_ratio, 2.5) << dataset_name;
  // Lite is the weakest variant, but still constant-factor.
  EXPECT_LT(lite_report.mean_ratio, 6.0) << dataset_name;

  // Memory: the asymptotic below-window claim needs real window sizes (the
  // benches show it); at this miniature scale just bound the overhead — the
  // per-guess structures must not blow past a small multiple of the window.
  EXPECT_LT(lite_report.mean_memory_points, 1.5 * window_size);
  EXPECT_DOUBLE_EQ(reports[3].mean_memory_points,
                   static_cast<double>(window_size));
  EXPECT_DOUBLE_EQ(reports[4].mean_memory_points,
                   static_cast<double>(window_size));

  // Baseline ratios: each baseline's per-window ratio is >= 1 by definition
  // of the denominator (best baseline radius of that window); the better of
  // the two means stays near 1 (they alternate as per-window winners).
  EXPECT_GE(reports[3].mean_ratio, 1.0 - 1e-9);
  EXPECT_GE(reports[4].mean_ratio, 1.0 - 1e-9);
  EXPECT_LE(std::min(reports[3].mean_ratio, reports[4].mean_ratio), 1.15);
}

INSTANTIATE_TEST_SUITE_P(RealDatasets, DatasetIntegrationTest,
                         ::testing::Values("phones", "higgs", "covtype"),
                         [](const auto& info) { return info.param; });

TEST(IntegrationTest, SyntheticFamiliesRunEndToEnd) {
  for (const std::string name : {"blobs3", "rotated6"}) {
    auto dataset = datasets::MakeDataset(name, 600);
    ASSERT_TRUE(dataset.ok());
    const ColorConstraint constraint = ColorConstraint::Uniform(7, 3);

    SlidingWindowOptions options;
    options.window_size = 200;
    options.delta = 2.0;
    options.adaptive_range = true;
    FairCenterSlidingWindow window(options, constraint, &kMetric, &kJones);

    WindowDriver driver(&kMetric, constraint, 200);
    driver.AddStreaming("Ours", &window);
    driver.AddBaseline("Jones", &kJones);

    auto stream = datasets::MakeStream(std::move(dataset).value());
    DriverOptions run;
    run.stream_length = 600;
    run.num_queries = 5;
    run.query_stride = 3;
    const auto reports = driver.Run(stream.get(), run);
    EXPECT_LT(reports[0].mean_ratio, 3.0) << name;
  }
}

TEST(IntegrationTest, ConceptDriftRecovery) {
  // An abrupt distribution shift: the window slides off the old regime and
  // the streaming solution must track the new one within a few window
  // lengths (the whole point of sliding windows vs insertion-only).
  const ColorConstraint constraint({2, 2});
  SlidingWindowOptions options;
  options.window_size = 150;
  options.delta = 1.0;
  options.adaptive_range = true;
  FairCenterSlidingWindow window(options, constraint, &kMetric, &kJones);

  Rng rng(17);
  ReferenceWindow truth(150);
  int64_t t = 0;
  auto feed = [&](double lo, double hi) {
    ++t;
    Point p({rng.NextUniform(lo, hi), rng.NextUniform(lo, hi)},
            static_cast<int>(rng.NextBounded(2)));
    p.arrival = t;
    truth.Update(p);
    window.Update(p);
  };
  // Regime A: huge spread.
  for (int i = 0; i < 300; ++i) feed(0.0, 5000.0);
  // Regime B: tight cluster.
  for (int i = 0; i < 300; ++i) feed(100.0, 101.0);

  auto result = window.Query();
  ASSERT_TRUE(result.ok());
  const double radius =
      ClusteringRadius(kMetric, truth.Snapshot(), result.value().centers);
  EXPECT_LT(radius, 5.0) << "failed to adapt to the post-drift regime";
}

}  // namespace
}  // namespace fkc
