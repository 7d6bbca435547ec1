// Ablation: sensitivity to the guess-ladder progression beta.
//
// The paper fixes beta = 2 for all experiments, noting that "varying this
// parameter does not significantly influence the results". This bench
// verifies the claim: quality should stay flat across beta, while memory and
// time shift mildly (smaller beta = denser ladder = more guesses, each
// cheaper to certify; the delta-parameter rule compensates quality).
#include <memory>

#include "bench_util.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "core/fair_center_sliding_window.h"
#include "sequential/jones_fair_center.h"

int main(int argc, char** argv) {
  fkc::FlagParser flags;
  std::string betas_csv = "0.5,1,2,4";
  std::string dataset = "phones";
  int64_t window = 2000;
  int64_t queries = 8;
  int64_t stride = 25;
  double delta = 1.0;
  flags.AddString("betas", &betas_csv, "comma-separated beta values");
  flags.AddString("dataset", &dataset, "dataset name");
  flags.AddInt64("window", &window, "window size in points");
  flags.AddInt64("queries", &queries, "number of measured windows");
  flags.AddInt64("stride", &stride, "arrivals between measured windows");
  flags.AddDouble("delta", &delta, "coreset precision");
  FKC_CHECK_OK(flags.Parse(argc, argv));
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage(argv[0]).c_str());
    return 0;
  }

  fkc::bench::PrintPreamble(
      "beta ablation (the paper fixes beta = 2)",
      "approximation ratio roughly flat across beta; memory/update time "
      "increase as beta shrinks (denser guess ladder)");
  fkc::bench::PrintHeader("beta");

  const fkc::EuclideanMetric metric;
  const fkc::JonesFairCenter jones;
  const int64_t stream_length = window + window / 2 + queries * stride;
  fkc::bench::PreparedDataset prepared =
      fkc::bench::Prepare(dataset, stream_length, metric);

  std::vector<std::unique_ptr<fkc::FairCenterSlidingWindow>> windows;
  fkc::WindowDriver driver(&metric, prepared.constraint, window);
  std::vector<double> betas;
  for (const std::string& beta_text : fkc::StrSplit(betas_csv, ',')) {
    const double beta = fkc::ParseDouble(beta_text).value();
    betas.push_back(beta);
    fkc::SlidingWindowOptions options;
    options.window_size = window;
    options.beta = beta;
    options.delta = delta;
    options.d_min = prepared.d_min;
    options.d_max = prepared.d_max;
    windows.push_back(std::make_unique<fkc::FairCenterSlidingWindow>(
        fkc::bench::Checked(fkc::FairCenterSlidingWindow::Create(
            options, prepared.constraint, &metric, &jones))));
    driver.AddStreaming("Ours@beta=" + beta_text, windows.back().get());
  }
  driver.AddBaseline("Jones", &jones);

  auto stream = fkc::datasets::MakeStream(std::move(prepared.dataset));
  fkc::DriverOptions run;
  run.stream_length = stream_length;
  run.num_queries = queries;
  run.query_stride = stride;
  const auto reports = driver.Run(stream.get(), run);
  for (size_t i = 0; i < betas.size(); ++i) {
    fkc::bench::PrintRow(dataset, reports[i], betas[i]);
  }
  fkc::bench::PrintRow(dataset, reports.back(), 0.0);
  return 0;
}
