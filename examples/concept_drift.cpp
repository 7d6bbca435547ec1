// Concept drift: why a short sliding window, not a summary of the whole
// stream.
//
// The stream moves through three regimes (different locations and scales).
// A summary of everything seen so far keeps representatives of regimes that
// already ended — its centers lag in regions the analyst no longer cares
// about. A window of W = 1000 forgets expired data by construction and
// tracks each regime within one window length.
//
// Both sides are the same class, FairCenterSlidingWindow. The comparator's
// window spans the whole stream (W = 3 x 2500 arrivals), so nothing ever
// expires from it: it has prefix semantics.
//
// Exits nonzero unless, at the end of regimes B and C, the short window's
// radius on the live window is strictly below the whole-stream window's.
#include <cstdio>

#include "common/random.h"
#include "core/fair_center_sliding_window.h"
#include "metric/metric.h"
#include "sequential/jones_fair_center.h"
#include "sequential/radius.h"
#include "stream/reference_window.h"

int main() {
  const int64_t window_size = 1000;
  const int64_t regime_length = 2500;
  const int64_t regime_count = 3;
  const auto constraint = fkc::ColorConstraint::Create({2, 2});
  const fkc::EuclideanMetric metric;
  const fkc::JonesFairCenter jones;
  if (!constraint.ok()) {
    std::fprintf(stderr, "%s\n", constraint.status().ToString().c_str());
    return 1;
  }

  fkc::SlidingWindowOptions options;
  options.window_size = window_size;
  options.delta = 1.0;
  options.adaptive_range = true;
  auto sliding_window = fkc::FairCenterSlidingWindow::Create(
      options, constraint.value(), &metric, &jones);
  options.window_size = regime_count * regime_length;
  auto whole_stream_window = fkc::FairCenterSlidingWindow::Create(
      options, constraint.value(), &metric, &jones);
  for (const auto* created : {&sliding_window, &whole_stream_window}) {
    if (!created->ok()) {
      std::fprintf(stderr, "%s\n", created->status().ToString().c_str());
      return 1;
    }
  }
  fkc::FairCenterSlidingWindow& sliding = sliding_window.value();
  fkc::FairCenterSlidingWindow& whole_stream = whole_stream_window.value();

  fkc::ReferenceWindow truth(window_size);
  fkc::Rng rng(7);

  struct Regime {
    const char* name;
    double center;
    double spread;
  };
  const Regime regimes[regime_count] = {{"city A (wide)", 0.0, 200.0},
                                        {"city B (tight)", 10000.0, 5.0},
                                        {"city C (medium)", -5000.0, 50.0}};

  std::printf("%16s %8s %16s %18s\n", "regime", "t", "sliding_radius",
              "whole_stream_radius");
  bool claim_holds = true;
  int64_t t = 0;
  for (int64_t r = 0; r < regime_count; ++r) {
    const Regime& regime = regimes[r];
    for (int64_t i = 0; i < regime_length; ++i) {
      ++t;
      fkc::Point p({regime.center + rng.NextGaussian(0, regime.spread),
                    rng.NextGaussian(0, regime.spread)},
                   static_cast<int>(rng.NextBounded(2)));
      p.arrival = t;
      truth.Update(p);
      if (!sliding.Update(p).ok() || !whole_stream.Update(p).ok()) {
        std::fprintf(stderr, "update rejected\n");
        return 1;
      }

      if (i == regime_length - 1) {  // end of each regime
        auto sliding_result = sliding.Query();
        auto prefix_result = whole_stream.Query();
        if (!sliding_result.ok() || !prefix_result.ok()) {
          std::fprintf(stderr, "query failed\n");
          return 1;
        }
        // Both evaluated on the *current window* — what the analyst needs.
        const auto window_points = truth.Snapshot();
        const double sliding_radius = fkc::ClusteringRadius(
            metric, window_points, sliding_result.value().centers);
        const double prefix_radius = fkc::ClusteringRadius(
            metric, window_points, prefix_result.value().centers);
        std::printf("%16s %8lld %16.3f %18.3f\n", regime.name,
                    static_cast<long long>(t), sliding_radius, prefix_radius);
        // Nothing has drifted by the end of regime A; from B on, the
        // whole-stream window still covers the regimes that left.
        if (r > 0 && !(sliding_radius < prefix_radius)) claim_holds = false;
      }
    }
  }

  std::printf(
      "\nAfter each drift the sliding-window radius reflects only the live "
      "regime, while\nthe whole-stream window pays for covering regimes "
      "that already left the live window.\nIts centers can even sit in dead "
      "regions — useless for decisions about the present.\n");
  if (!claim_holds) {
    std::fprintf(stderr,
                 "claim failed: the W = %lld window's radius is not below "
                 "the whole-stream window's after every drift\n",
                 static_cast<long long>(window_size));
    return 1;
  }
  return 0;
}
