// Ablation: the Corollary-2 validation-only variant (Lite) against the full
// coreset algorithm at the two ends of its delta range.
//
// The paper observes that delta = 4 "is equivalent to using a coreset
// comparable in size to the validation set, i.e. the one yielding the result
// of Corollary 2". This bench puts the three side by side: Lite should track
// Full@delta=4 in memory and be the cheapest to update, while Full@delta=0.5
// buys accuracy with memory.
#include "bench_util.h"
#include "common/flags.h"
#include "core/fair_center_sliding_window.h"
#include "sequential/jones_fair_center.h"

int main(int argc, char** argv) {
  fkc::FlagParser flags;
  int64_t window = 2000;
  int64_t queries = 8;
  int64_t stride = 25;
  flags.AddInt64("window", &window, "window size in points");
  flags.AddInt64("queries", &queries, "number of measured windows");
  flags.AddInt64("stride", &stride, "arrivals between measured windows");
  FKC_CHECK_OK(flags.Parse(argc, argv));
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage(argv[0]).c_str());
    return 0;
  }

  fkc::bench::PrintPreamble(
      "Corollary-2 (Lite) ablation",
      "Lite memory ~ Full@delta=4 and far below Full@delta=0.5; Lite ratio "
      "worst but constant-factor; x column: 0.5/4 = Full's delta, 99 = Lite");
  fkc::bench::PrintHeader("delta");

  const fkc::EuclideanMetric metric;
  const fkc::JonesFairCenter jones;

  for (const std::string& name : fkc::datasets::RealDatasetNames()) {
    const int64_t stream_length = window + window / 2 + queries * stride;
    fkc::bench::PreparedDataset prepared =
        fkc::bench::Prepare(name, stream_length, metric);

    fkc::SlidingWindowOptions fine;
    fine.window_size = window;
    fine.delta = 0.5;
    fine.d_min = prepared.d_min;
    fine.d_max = prepared.d_max;
    fkc::FairCenterSlidingWindow full_fine =
        fkc::bench::Checked(fkc::FairCenterSlidingWindow::Create(
            fine, prepared.constraint, &metric, &jones));
    fkc::SlidingWindowOptions coarse = fine;
    coarse.delta = 4.0;
    fkc::FairCenterSlidingWindow full_coarse =
        fkc::bench::Checked(fkc::FairCenterSlidingWindow::Create(
            coarse, prepared.constraint, &metric, &jones));
    fkc::FairCenterSlidingWindow lite =
        fkc::bench::Checked(fkc::FairCenterSlidingWindow::Create(
            fkc::ValidationOnlyOptions(fine), prepared.constraint, &metric,
            &jones));

    fkc::WindowDriver driver(&metric, prepared.constraint, window);
    driver.AddStreaming("Full@0.5", &full_fine);
    driver.AddStreaming("Full@4.0", &full_coarse);
    driver.AddStreaming("Lite", &lite);
    driver.AddBaseline("Jones", &jones);

    auto stream = fkc::datasets::MakeStream(std::move(prepared.dataset));
    fkc::DriverOptions run;
    run.stream_length = stream_length;
    run.num_queries = queries;
    run.query_stride = stride;
    const auto reports = driver.Run(stream.get(), run);
    fkc::bench::PrintRow(name, reports[0], 0.5);
    fkc::bench::PrintRow(name, reports[1], 4.0);
    fkc::bench::PrintRow(name, reports[2], 99.0);
    fkc::bench::PrintRow(name, reports[3], 0.0);
  }
  return 0;
}
