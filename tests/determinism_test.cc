// Determinism guarantees: identical configurations over identical streams
// must produce bit-identical results, across every algorithm in the library.
// Reproducibility is a stated property of the experiment harness (README).
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/fair_center_sliding_window.h"
#include "core/insertion_only_fair_center.h"
#include "datasets/registry.h"
#include "metric/metric.h"
#include "sequential/chen_matroid_center.h"
#include "sequential/jones_fair_center.h"
#include "sequential/kleindessner.h"

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

bool SameCenters(const std::vector<Point>& a, const std::vector<Point>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].coords != b[i].coords || a[i].color != b[i].color) return false;
  }
  return true;
}

TEST(DeterminismTest, SlidingWindowIdenticalRuns) {
  const ColorConstraint constraint({2, 1, 1});
  const auto points = Stream(300, 7);

  auto run = [&]() {
    SlidingWindowOptions options;
    options.window_size = 100;
    options.delta = 1.0;
    options.adaptive_range = true;
    FairCenterSlidingWindow window(options, constraint, &kMetric, &kJones);
    std::vector<double> radii;
    std::vector<Point> last_centers;
    for (size_t i = 0; i < points.size(); ++i) {
      window.Update(points[i]);
      if (i % 40 == 39) {
        auto result = window.Query();
        EXPECT_TRUE(result.ok());
        radii.push_back(result.value().radius);
        last_centers = result.value().centers;
      }
    }
    return std::make_pair(radii, last_centers);
  };

  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_TRUE(SameCenters(first.second, second.second));
}

TEST(DeterminismTest, LiteAndInsertionOnlyIdenticalRuns) {
  const ColorConstraint constraint({2, 2, 1});  // streams emit 3 colors
  const auto points = Stream(200, 11);

  auto run_lite = [&]() {
    SlidingWindowOptions options;
    options.window_size = 80;
    options.adaptive_range = true;
    FairCenterSlidingWindow lite(ValidationOnlyOptions(options), constraint,
                                 &kMetric, &kJones);
    for (const Point& p : points) lite.Update(p);
    auto result = lite.Query();
    EXPECT_TRUE(result.ok());
    return result.value().centers;
  };
  EXPECT_TRUE(SameCenters(run_lite(), run_lite()));

  auto run_insertion = [&]() {
    InsertionOnlyFairCenter summary(InsertionOnlyOptions{}, constraint,
                                    &kMetric, &kJones);
    for (const Point& p : points) summary.Update(p);
    auto result = summary.Query();
    EXPECT_TRUE(result.ok());
    return result.value().centers;
  };
  EXPECT_TRUE(SameCenters(run_insertion(), run_insertion()));
}

TEST(DeterminismTest, SequentialSolversAreDeterministic) {
  const auto points = Stream(80, 13);
  const ColorConstraint constraint({2, 2, 1});
  const ChenMatroidCenter chen;
  const KleindessnerFairCenter kleindessner;

  for (const FairCenterSolver* solver :
       std::initializer_list<const FairCenterSolver*>{&kJones, &chen,
                                                      &kleindessner}) {
    auto a = solver->Solve(kMetric, points, constraint);
    auto b = solver->Solve(kMetric, points, constraint);
    ASSERT_TRUE(a.ok()) << solver->Name();
    ASSERT_TRUE(b.ok()) << solver->Name();
    EXPECT_DOUBLE_EQ(a.value().radius, b.value().radius) << solver->Name();
    EXPECT_TRUE(SameCenters(a.value().centers, b.value().centers))
        << solver->Name();
  }
}

TEST(DeterminismTest, DatasetsReproducePerSeed) {
  for (const std::string& name :
       {std::string("phones"), std::string("higgs"), std::string("covtype"),
        std::string("blobs4"), std::string("rotated6")}) {
    auto a = datasets::MakeDataset(name, 150, 99);
    auto b = datasets::MakeDataset(name, 150, 99);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.value().points.size(), b.value().points.size());
    for (size_t i = 0; i < a.value().points.size(); ++i) {
      EXPECT_EQ(a.value().points[i].coords, b.value().points[i].coords)
          << name << "[" << i << "]";
      EXPECT_EQ(a.value().points[i].color, b.value().points[i].color);
    }
  }
}

}  // namespace
}  // namespace fkc
