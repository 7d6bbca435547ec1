// Figure 3: memory (top) and query time (bottom, log scale in the paper) as
// a function of the window size, with the most accurate setting delta = 0.5.
//
// Paper's findings to reproduce:
//   * Baseline memory grows linearly with the window; the streaming
//     algorithms' memory stabilizes to a window-size-independent level.
//   * The query-time gap widens steeply with the window; in the paper
//     ChenEtAl times out beyond 30k-point windows and Jones beyond 200k.
//     We mirror the timeouts with per-baseline window caps.
#include <memory>

#include "bench_util.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "core/fair_center_sliding_window.h"
#include "sequential/chen_matroid_center.h"
#include "sequential/jones_fair_center.h"

int main(int argc, char** argv) {
  fkc::FlagParser flags;
  std::string windows_csv = "500,1000,2000,4000,8000";
  int64_t queries = 8;
  int64_t stride = 25;
  double delta = 0.5;
  int64_t chen_limit = 2000;    // paper: ChenEtAl times out at 30k
  int64_t jones_limit = 8000;   // paper: Jones times out at 200k
  int64_t threads = 1;
  int64_t seed = 42;
  int64_t repeats = 1;
  bool paper_scale = false;
  std::string datasets_csv = "phones,higgs,covtype";
  std::string output_csv;
  flags.AddString("windows", &windows_csv, "comma-separated window sizes");
  flags.AddInt64("queries", &queries, "number of measured windows");
  flags.AddInt64("stride", &stride, "arrivals between measured windows");
  flags.AddDouble("delta", &delta, "coreset precision (paper: 0.5)");
  flags.AddInt64("chen_limit", &chen_limit,
                 "largest window on which ChenEtAl runs");
  flags.AddInt64("jones_limit", &jones_limit,
                 "largest window on which Jones runs");
  fkc::AddThreadsFlag(&flags, &threads);
  flags.AddInt64("seed", &seed, "stream/simulator seed");
  flags.AddInt64("repeats", &repeats,
                 "rerun the sweep this many times at seed, seed+1, ...");
  flags.AddBool("paper_scale", &paper_scale,
                "windows 10000..500000 as in the paper");
  flags.AddString("datasets", &datasets_csv, "datasets to run");
  flags.AddString("output_csv", &output_csv,
                  "also write raw rows to this CSV (summarizer schema)");
  FKC_CHECK_OK(flags.Parse(argc, argv));
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage(argv[0]).c_str());
    return 0;
  }
  if (paper_scale) {
    windows_csv = "10000,30000,100000,200000,500000";
    chen_limit = 30000;
    jones_limit = 200000;
    queries = 200;
    stride = 1;
  }

  fkc::bench::PrintPreamble(
      "Figure 3 (memory and query time vs window size, delta = 0.5)",
      "baseline memory linear in window, streaming memory flat after an "
      "initial ramp; query-time gap widens with window size (baselines "
      "eventually time out)");
  fkc::bench::PrintHeader("window");

  const fkc::EuclideanMetric metric;
  const fkc::JonesFairCenter jones;
  const fkc::ChenMatroidCenter chen;
  fkc::bench::CsvSink sink(output_csv, "fig3", "window");

  for (int64_t r = 0; r < repeats; ++r) {
    const uint64_t run_seed = static_cast<uint64_t>(seed + r);
    if (repeats > 1) {
      std::printf("# repeat %lld/%lld seed=%llu\n",
                  static_cast<long long>(r + 1),
                  static_cast<long long>(repeats),
                  static_cast<unsigned long long>(run_seed));
    }
    for (const std::string& name : fkc::StrSplit(datasets_csv, ',')) {
      for (const std::string& window_text : fkc::StrSplit(windows_csv, ',')) {
        const int64_t window_size = fkc::ParseInt(window_text).value();
        const int64_t stream_length =
            window_size + window_size / 2 + queries * stride;
        fkc::bench::PreparedDataset prepared = fkc::bench::Prepare(
            name, stream_length, metric, /*total_k=*/14, run_seed);

        fkc::SlidingWindowOptions fixed;
        fixed.window_size = window_size;
        fixed.delta = delta;
        fixed.d_min = prepared.d_min;
        fixed.d_max = prepared.d_max;
        fixed.num_threads = fkc::ResolveThreadCount(threads);
        fkc::FairCenterSlidingWindow ours =
            fkc::bench::Checked(fkc::FairCenterSlidingWindow::Create(
                fixed, prepared.constraint, &metric, &jones));
        fkc::SlidingWindowOptions adaptive = fixed;
        adaptive.adaptive_range = true;
        adaptive.d_min = adaptive.d_max = 0.0;
        fkc::FairCenterSlidingWindow oblivious =
            fkc::bench::Checked(fkc::FairCenterSlidingWindow::Create(
                adaptive, prepared.constraint, &metric, &jones));

        fkc::WindowDriver driver(&metric, prepared.constraint, window_size);
        driver.AddStreaming("Ours", &ours);
        driver.AddStreaming("OursObliv", &oblivious);
        if (window_size <= jones_limit) driver.AddBaseline("Jones", &jones);
        if (window_size <= chen_limit) driver.AddBaseline("ChenEtAl", &chen);

        auto stream = fkc::datasets::MakeStream(std::move(prepared.dataset));
        fkc::DriverOptions run;
        run.stream_length = stream_length;
        run.num_queries = queries;
        run.query_stride = stride;
        const auto reports = driver.Run(stream.get(), run);
        for (const auto& report : reports) {
          fkc::bench::PrintRow(name, report,
                               static_cast<double>(window_size));
          sink.Row(name, report, static_cast<double>(window_size), run_seed);
        }
      }
    }
  }
  return 0;
}
