// Sensor monitoring: the PHONES-style scenario from the paper's motivation.
//
// A fleet of smartphones streams 3-d positions labelled by user activity
// (stand, sit, walk, bike, stairs-up, stairs-down, null). An analyst keeps a
// live summary of the most recent readings: k = 14 representative positions,
// with per-activity caps proportional to activity frequencies so that no
// activity dominates the summary (the fairness requirement).
//
// The example contrasts the streaming summary with a full-window recompute,
// showing that quality is comparable while memory and query time are not.
#include <cstdio>

#include "core/fair_center_sliding_window.h"
#include "common/stopwatch.h"
#include "datasets/phones_sim.h"
#include "metric/metric.h"
#include "sequential/color_constraint.h"
#include "sequential/jones_fair_center.h"
#include "sequential/radius.h"
#include "stream/reference_window.h"

namespace {

const char* kActivityNames[] = {"stand",     "sit",  "walk",
                                "bike",      "st-up", "st-down",
                                "null"};

}  // namespace

int main() {
  const int64_t window_size = 2000;
  const int64_t stream_length = 8000;

  fkc::datasets::PhonesSimOptions data_options;
  data_options.num_points = stream_length;
  const std::vector<fkc::Point> trace =
      fkc::datasets::GeneratePhonesSim(data_options);

  // Caps proportional to activity frequencies, totalling 14 (the paper's
  // configuration).
  const fkc::ColorConstraint constraint =
      fkc::ColorConstraint::Proportional(trace, data_options.ell, 14);
  std::printf("activity caps:");
  for (int c = 0; c < constraint.ell(); ++c) {
    std::printf(" %s=%d", kActivityNames[c], constraint.cap(c));
  }
  std::printf("  (k=%d)\n\n", constraint.TotalK());

  const fkc::EuclideanMetric metric;
  const fkc::JonesFairCenter jones;

  fkc::SlidingWindowOptions options;
  options.window_size = window_size;
  options.delta = 2.0;            // coarser coreset: bigger memory savings
  options.adaptive_range = true;  // sensor scales are unknown a priori
  auto created = fkc::FairCenterSlidingWindow::Create(options, constraint,
                                                      &metric, &jones);
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    return 1;
  }
  fkc::FairCenterSlidingWindow& streaming = created.value();
  fkc::ReferenceWindow full_window(window_size);

  std::printf("%8s %12s %12s %10s %12s %12s\n", "t", "stream_rad",
              "full_rad", "ratio", "stream_pts", "query_ms");
  for (int64_t t = 1; t <= stream_length; ++t) {
    fkc::Point p = trace[t - 1];
    p.arrival = t;
    full_window.Update(p);
    streaming.Update(std::move(p));

    if (t >= window_size && t % 1000 == 0) {
      fkc::Stopwatch timer;
      auto summary = streaming.Query();
      const double query_ms = timer.ElapsedMillis();
      if (!summary.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     summary.status().ToString().c_str());
        return 1;
      }
      // Ground truth: the same solver on the verbatim window.
      auto reference = full_window.Query(metric, jones, constraint);
      if (!reference.ok()) {
        std::fprintf(stderr, "reference failed: %s\n",
                     reference.status().ToString().c_str());
        return 1;
      }
      const auto window_points = full_window.Snapshot();
      const double stream_radius = fkc::ClusteringRadius(
          metric, window_points, summary.value().centers);
      const double full_radius = reference.value().radius;
      std::printf("%8lld %12.4f %12.4f %10.3f %12lld %12.3f\n",
                  static_cast<long long>(t), stream_radius, full_radius,
                  full_radius > 0 ? stream_radius / full_radius : 1.0,
                  static_cast<long long>(streaming.Memory().TotalPoints()),
                  query_ms);
    }
  }

  // Final summary with per-activity breakdown.
  auto final_summary = streaming.Query();
  if (final_summary.ok()) {
    std::printf("\nfinal fair summary of the last %lld readings:\n",
                static_cast<long long>(window_size));
    for (const fkc::Point& center : final_summary.value().centers) {
      std::printf("  [%-7s] (%.2f, %.2f, %.2f)\n",
                  kActivityNames[center.color], center.coords[0],
                  center.coords[1], center.coords[2]);
    }
  }
  return 0;
}
