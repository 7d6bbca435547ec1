// Differential test for the bounded c-phase scan: the same stream through
// two windows, one whose c-phase runs the built-in metrics' bounded kernels
// (Metric::DistanceSoAWithin) and one on a forwarding metric that keeps the
// base-class default, the exact DistanceSoA. The bounded scan may only
// change values that are out of range, so the checkpoint bytes and the
// query answers must agree at every query point — across datasets of high
// and low dimension, fixed and adaptive ranges, the Corollary-2 variant,
// the threaded batch engine, and all three built-in metrics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "core/fair_center_sliding_window.h"
#include "datasets/registry.h"
#include "metric/aspect_ratio.h"
#include "metric/coordinate_pool.h"
#include "metric/metric.h"
#include "sequential/jones_fair_center.h"
#include "exact_scan_metric.h"

namespace fkc {
namespace {

// Forwards every scan to `inner` unchanged, bounded ones included, and
// counts the columns a bounded scan returned with a value other than the
// exact distance: proof that the run really abandoned some columns. It
// states no rounding error, so its windows never build a pivot index and
// every c-phase runs the bounded scan (pivot_index_test covers the index).
class AbandonProbeMetric final : public Metric {
 public:
  explicit AbandonProbeMetric(const Metric* inner) : inner_(inner) {}
  double Distance(const Point& a, const Point& b) const override {
    return inner_->Distance(a, b);
  }
  void DistanceMany(const Point& p, const Point* const* points, size_t count,
                    double* out) const override {
    inner_->DistanceMany(p, points, count, out);
  }
  void DistanceSoA(const Point& p, const CoordinatePool& pool,
                   double* out) const override {
    inner_->DistanceSoA(p, pool, out);
  }
  void DistanceSoAWithin(const Point& p, const CoordinatePool& pool,
                         double bound, double* out) const override {
    inner_->DistanceSoAWithin(p, pool, bound, out);
    std::vector<double> exact(pool.size());
    inner_->DistanceSoA(p, pool, exact.data());
    int64_t abandoned = 0;
    for (size_t i = 0; i < exact.size(); ++i) {
      if (std::memcmp(&exact[i], &out[i], sizeof(double)) != 0) ++abandoned;
    }
    abandoned_.fetch_add(abandoned, std::memory_order_relaxed);
  }
  std::string Name() const override { return inner_->Name(); }

  int64_t abandoned() const {
    return abandoned_.load(std::memory_order_relaxed);
  }

 private:
  const Metric* inner_;
  mutable std::atomic<int64_t> abandoned_{0};
};

const EuclideanMetric kEuclidean;
const ManhattanMetric kManhattan;
const ChebyshevMetric kChebyshev;
const JonesFairCenter kJones;

struct DiffCase {
  const char* label;
  const char* dataset;
  const Metric* metric;
  bool adaptive;
  CoreVariant variant;
  int threads;  ///< 1 feeds Update per point; more feeds UpdateBatch
};

class BoundedScanDifferentialTest : public ::testing::TestWithParam<DiffCase> {
};

TEST_P(BoundedScanDifferentialTest, StateAndAnswersMatchTheExactScan) {
  const DiffCase c = GetParam();
  constexpr int64_t kWindow = 300;
  constexpr int64_t kArrivals = 4 * kWindow;
  constexpr int64_t kQueryEvery = 100;
  constexpr size_t kBatch = 25;

  auto made = datasets::MakeDataset(c.dataset, kArrivals, /*seed=*/5);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const std::vector<Point>& points = made.value().points;
  const ColorConstraint constraint =
      ColorConstraint::Proportional(points, made.value().ell, 14);

  SlidingWindowOptions options;
  options.window_size = kWindow;
  options.delta = 0.5;
  options.variant = c.variant;
  options.adaptive_range = c.adaptive;
  options.num_threads = c.threads;
  if (!c.adaptive) {
    const std::vector<Point> sample(points.begin(), points.begin() + 300);
    const DistanceExtrema extrema =
        ComputeDistanceExtrema(*c.metric, sample).value();
    options.d_min = extrema.min_distance / 2.0;
    options.d_max = extrema.max_distance * 2.0;
  }

  AbandonProbeMetric bounded(c.metric);
  ExactScanMetric exact(c.metric);
  FairCenterSlidingWindow fast(options, constraint, &bounded, &kJones);
  FairCenterSlidingWindow reference(options, constraint, &exact, &kJones);

  std::vector<Point> batch;
  for (int64_t t = 0; t < kArrivals; ++t) {
    if (c.threads == 1) {
      fast.Update(points[t]);
      reference.Update(points[t]);
    } else {
      batch.push_back(points[t]);
      if (batch.size() == kBatch) {
        fast.UpdateBatch(batch);
        reference.UpdateBatch(std::move(batch));
        batch.clear();
      }
    }
    if ((t + 1) % kQueryEvery != 0) continue;
    ASSERT_TRUE(batch.empty());
    ASSERT_EQ(fast.SerializeState(), reference.SerializeState())
        << c.label << " t=" << t;
    const auto got = fast.Query();
    const auto want = reference.Query();
    ASSERT_EQ(got.ok(), want.ok()) << c.label << " t=" << t;
    if (!want.ok()) continue;
    EXPECT_EQ(std::memcmp(&got.value().radius, &want.value().radius,
                          sizeof(double)),
              0)
        << c.label << " t=" << t;
    ASSERT_EQ(got.value().centers.size(), want.value().centers.size());
    for (size_t i = 0; i < want.value().centers.size(); ++i) {
      EXPECT_EQ(got.value().centers[i].id, want.value().centers[i].id)
          << c.label << " t=" << t << " center " << i;
      EXPECT_EQ(got.value().centers[i].coords, want.value().centers[i].coords)
          << c.label << " t=" << t << " center " << i;
    }
  }
  // At d = 54 the dense guesses hold many far c-attractors: the bounded
  // scan must actually have cut some of them short, or this test compares
  // the exact scan with itself.
  if (std::string(c.dataset) == "covtype" &&
      c.variant == CoreVariant::kFull) {
    EXPECT_GT(bounded.abandoned(), 0) << c.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, BoundedScanDifferentialTest,
    ::testing::Values(
        DiffCase{"covtype_fixed_euclidean", "covtype", &kEuclidean, false,
                 CoreVariant::kFull, 1},
        DiffCase{"covtype_fixed_manhattan", "covtype", &kManhattan, false,
                 CoreVariant::kFull, 1},
        DiffCase{"covtype_fixed_chebyshev", "covtype", &kChebyshev, false,
                 CoreVariant::kFull, 1},
        DiffCase{"covtype_adaptive_euclidean", "covtype", &kEuclidean, true,
                 CoreVariant::kFull, 1},
        DiffCase{"covtype_adaptive_manhattan_batch4", "covtype", &kManhattan,
                 true, CoreVariant::kFull, 4},
        DiffCase{"covtype_validation_only", "covtype", &kEuclidean, false,
                 CoreVariant::kValidationOnly, 1},
        DiffCase{"phones_fixed_euclidean_batch4", "phones", &kEuclidean,
                 false, CoreVariant::kFull, 4},
        DiffCase{"phones_adaptive_euclidean_batch4", "phones", &kEuclidean,
                 true, CoreVariant::kFull, 4},
        DiffCase{"phones_adaptive_manhattan", "phones", &kManhattan, true,
                 CoreVariant::kFull, 1},
        DiffCase{"phones_adaptive_chebyshev_batch4", "phones", &kChebyshev,
                 true, CoreVariant::kFull, 4},
        DiffCase{"phones_validation_only", "phones", &kChebyshev, true,
                 CoreVariant::kValidationOnly, 1}),
    [](const auto& info) { return std::string(info.param.label); });

}  // namespace
}  // namespace fkc
