// Quickstart: the smallest end-to-end use of the library.
//
// Streams colored 2-d points through a sliding window and periodically asks
// for a fair center set: at most k_i centers of each color i, covering every
// point of the current window with minimal radius.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <vector>

#include "common/random.h"
#include "core/fair_center_sliding_window.h"
#include "metric/metric.h"
#include "sequential/jones_fair_center.h"

int main() {
  // 1. The fairness constraint: two demographic groups, at most 2 centers
  //    from group 0 and at most 1 from group 1.
  //    Create returns a Status for caps no constraint can have (a negative
  //    cap, or caps summing past INT_MAX).
  const auto constraint = fkc::ColorConstraint::Create({2, 1});
  if (!constraint.ok()) {
    std::fprintf(stderr, "%s\n", constraint.status().ToString().c_str());
    return 1;
  }

  // 2. The metric space and the sequential solver used on query coresets
  //    (Jones et al. 2020, the best known 3-approximation).
  const fkc::EuclideanMetric metric;
  const fkc::JonesFairCenter solver;

  // 3. The sliding window. adaptive_range means the algorithm estimates the
  //    distance scales of the data by itself (the "OursOblivious" variant of
  //    the paper) — nothing about the stream needs to be known up front.
  //    num_threads = 0 lets the ladder update engine fan the per-guess
  //    structures out over every hardware thread; results are bit-identical
  //    to a single-threaded run.
  fkc::SlidingWindowOptions options;
  options.window_size = 1000;  // queries answer for the last 1000 points
  options.delta = 1.0;         // coreset precision (smaller = more accurate)
  options.adaptive_range = true;
  options.num_threads = 0;
  //    Create returns kInvalidArgument for options or inputs the window
  //    cannot run with, where the constructor would abort.
  auto created = fkc::FairCenterSlidingWindow::Create(
      options, constraint.value(), &metric, &solver);
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    return 1;
  }
  fkc::FairCenterSlidingWindow& window = created.value();

  // 4. Stream synthetic data: three drifting Gaussian clusters whose points
  //    belong to group 0 with probability 0.7. Arrivals are delivered in
  //    batches of 100 — UpdateBatch is equivalent to 100 Update calls but
  //    lets the engine amortize its parallel fan-out.
  fkc::Rng rng(42);
  std::vector<fkc::Point> batch;
  for (int t = 1; t <= 5000; ++t) {
    const double cluster = static_cast<double>(rng.NextBounded(3)) * 50.0;
    const double drift = t * 0.01;  // slow concept drift
    fkc::Coordinates coords = {cluster + drift + rng.NextGaussian(0, 1.0),
                               cluster - drift + rng.NextGaussian(0, 1.0)};
    const int group = rng.NextBernoulli(0.7) ? 0 : 1;
    batch.push_back(fkc::Point(std::move(coords), group));
    if (batch.size() == 100) {
      window.UpdateBatch(std::move(batch));
      batch.clear();
    }

    // 5. Query every 1000 arrivals. The query cost is independent of the
    //    window size: the sequential solver only ever sees a small coreset.
    if (t % 1000 == 0) {
      fkc::QueryStats stats;
      auto solution = window.Query(&stats);
      if (!solution.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     solution.status().ToString().c_str());
        return 1;
      }
      std::printf(
          "t=%5d  radius=%7.3f  centers=%zu  coreset=%lld points  "
          "memory=%lld points (window holds %lld)\n",
          t, solution.value().radius, solution.value().centers.size(),
          static_cast<long long>(stats.coreset_size),
          static_cast<long long>(window.Memory().TotalPoints()),
          static_cast<long long>(window.WindowPopulation()));
      for (const fkc::Point& center : solution.value().centers) {
        std::printf("    center %s\n", center.ToString().c_str());
      }
    }
  }
  return 0;
}
