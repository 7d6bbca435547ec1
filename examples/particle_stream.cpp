// Particle stream triage: the HIGGS-style scenario.
//
// A detector pipeline streams 7-dimensional kinematic feature vectors
// labelled signal vs background. Downstream analyses work on a small coreset
// of representative events from the recent stream; the representation must
// be fair in the paper's sense — per-class *upper caps* on the number of
// representatives — so that the abundant background class cannot swamp the
// whole summary budget.
//
// This example compares:
//   * unconstrained k-center summarization (no cap: background free to fill
//     every slot), vs
//   * fair center with caps {signal <= 4, background <= 10},
// both over a sliding window, and reports class composition and radii.
#include <cstdio>

#include "core/fair_center_sliding_window.h"
#include "datasets/higgs_sim.h"
#include "metric/metric.h"
#include "sequential/gonzalez.h"
#include "sequential/jones_fair_center.h"
#include "sequential/radius.h"
#include "stream/reference_window.h"

int main() {
  const int64_t window_size = 1500;
  const int64_t stream_length = 6000;

  fkc::datasets::HiggsSimOptions data_options;
  data_options.num_points = stream_length;
  data_options.signal_fraction = 0.10;  // make signal genuinely rare
  const std::vector<fkc::Point> events =
      fkc::datasets::GenerateHiggsSim(data_options);

  // Budget of 14 representatives, background capped at 10: the majority
  // class can never occupy more than 10 slots of the summary.
  const auto caps = fkc::ColorConstraint::Create({4, 10});  // color 0 = signal
  if (!caps.ok()) {
    std::fprintf(stderr, "%s\n", caps.status().ToString().c_str());
    return 1;
  }
  const fkc::ColorConstraint& constraint = caps.value();
  const fkc::EuclideanMetric metric;
  const fkc::JonesFairCenter jones;

  fkc::SlidingWindowOptions options;
  options.window_size = window_size;
  options.delta = 1.0;
  options.adaptive_range = true;
  auto created = fkc::FairCenterSlidingWindow::Create(options, constraint,
                                                      &metric, &jones);
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    return 1;
  }
  fkc::FairCenterSlidingWindow& fair_summary = created.value();
  fkc::ReferenceWindow window(window_size);

  std::printf("%8s | %22s | %22s\n", "t", "fair (sig/bkg, radius)",
              "unfair (sig/bkg, radius)");
  for (int64_t t = 1; t <= stream_length; ++t) {
    fkc::Point p = events[t - 1];
    p.arrival = t;
    window.Update(p);
    fair_summary.Update(std::move(p));

    if (t >= window_size && t % 1500 == 0) {
      auto fair = fair_summary.Query();
      if (!fair.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     fair.status().ToString().c_str());
        return 1;
      }
      // Unfair comparator: plain greedy k-center on the full window with the
      // same budget (14 centers, no quotas).
      const auto window_points = window.Snapshot();
      const auto greedy = fkc::GonzalezKCenter(metric, window_points, 14);
      const auto greedy_centers =
          fkc::HeadPoints(window_points, greedy);

      auto count = [](const std::vector<fkc::Point>& centers, int color) {
        int n = 0;
        for (const auto& c : centers) n += (c.color == color);
        return n;
      };
      const double fair_radius = fkc::ClusteringRadius(
          metric, window_points, fair.value().centers);
      std::printf("%8lld | %6d/%-6d r=%-8.3f | %6d/%-6d r=%-8.3f\n",
                  static_cast<long long>(t),
                  count(fair.value().centers, 0),
                  count(fair.value().centers, 1), fair_radius,
                  count(greedy_centers, 0), count(greedy_centers, 1),
                  greedy.coverage_radius);
    }
  }

  std::printf(
      "\nThe fair summary never carries more than 10 background "
      "representatives — the cap\nbinds whenever background would otherwise "
      "swamp the budget — while unconstrained\nk-center fills slots purely "
      "by geometry. The unconstrained radius can be smaller\nbecause it "
      "optimizes without the cap constraint.\n");
  return 0;
}
