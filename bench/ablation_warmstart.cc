// Ablation: replay warm-up of freshly instantiated guesses (an
// implementation decision of the adaptive-range variant, documented in
// DESIGN.md). When the witnessed distance range shifts, OursOblivious
// creates guess structures for scales it was not tracking; seeding them by
// replaying the nearest existing guess's stored points keeps the new scale
// aware of the current window. Without it, fresh guesses only learn about
// future arrivals and query quality degrades for up to a window length
// after every regime shift.
//
// Workload: a stream alternating between a wide and a tight regime every
// 1.5 window lengths, so range shifts keep happening. Expected shape: the
// cold variant's ratio (vs the full-window Jones baseline) is visibly worse;
// memory and time are essentially unchanged.
#include <cmath>

#include "bench_util.h"
#include "common/flags.h"
#include "common/random.h"
#include "core/fair_center_sliding_window.h"
#include "sequential/jones_fair_center.h"
#include "stream/window_driver.h"

int main(int argc, char** argv) {
  fkc::FlagParser flags;
  int64_t window = 1000;
  int64_t regimes = 6;
  flags.AddInt64("window", &window, "window size in points");
  flags.AddInt64("regimes", &regimes, "number of alternating regimes");
  FKC_CHECK_OK(flags.Parse(argc, argv));
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage(argv[0]).c_str());
    return 0;
  }

  fkc::bench::PrintPreamble(
      "replay warm-up ablation (adaptive-range design choice)",
      "warm variant's ratio stays near the baseline across regime shifts; "
      "cold variant degrades after each shift; memory/time comparable");

  const fkc::EuclideanMetric metric;
  const fkc::JonesFairCenter jones;
  const fkc::ColorConstraint constraint =
      fkc::bench::Checked(fkc::ColorConstraint::Create({2, 2}));

  // Alternating-regime stream.
  fkc::Rng rng(42);
  std::vector<fkc::Point> points;
  const int64_t regime_length = window + window / 2;
  for (int64_t r = 0; r < regimes; ++r) {
    const bool wide = (r % 2 == 0);
    const double center = wide ? 0.0 : 5000.0;
    const double spread = wide ? 1000.0 : 2.0;
    for (int64_t i = 0; i < regime_length; ++i) {
      points.push_back(
          fkc::Point({center + rng.NextGaussian(0, spread),
                      center + rng.NextGaussian(0, spread)},
                     static_cast<int>(rng.NextBounded(2))));
    }
  }
  const int64_t stream_length = static_cast<int64_t>(points.size());

  fkc::SlidingWindowOptions warm_options;
  warm_options.window_size = window;
  warm_options.delta = 1.0;
  warm_options.adaptive_range = true;
  fkc::FairCenterSlidingWindow warm =
      fkc::bench::Checked(fkc::FairCenterSlidingWindow::Create(
          warm_options, constraint, &metric, &jones));
  fkc::SlidingWindowOptions cold_options = warm_options;
  cold_options.warm_start_new_guesses = false;
  fkc::FairCenterSlidingWindow cold =
      fkc::bench::Checked(fkc::FairCenterSlidingWindow::Create(
          cold_options, constraint, &metric, &jones));

  fkc::WindowDriver driver(&metric, constraint, window);
  driver.AddStreaming("warm-start", &warm);
  driver.AddStreaming("cold-start", &cold);
  driver.AddBaseline("Jones", &jones);

  fkc::VectorStream stream(std::move(points), 2, "alternating",
                           /*cycle=*/false);
  fkc::DriverOptions run;
  run.stream_length = stream_length;
  // Measure across the last two regimes (covering shifts in both
  // directions), sampling steadily.
  run.num_queries = 40;
  run.query_stride = (2 * regime_length) / 40;
  const auto reports = driver.Run(&stream, run);

  fkc::bench::PrintHeader("warm");
  fkc::bench::PrintRow("alternating", reports[0], 1.0);
  fkc::bench::PrintRow("alternating", reports[1], 0.0);
  fkc::bench::PrintRow("alternating", reports[2], -1.0);
  return 0;
}
