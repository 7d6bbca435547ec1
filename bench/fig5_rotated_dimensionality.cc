// Figure 5: query time and memory as a function of the number of
// *coordinates* on the `rotated` datasets — PHONES-like 3-d data zero-padded
// to D dimensions and rigidly rotated, so the intrinsic (doubling) dimension
// stays 3 regardless of D.
//
// Paper's finding to reproduce: our algorithm's query time and memory are
// flat in D — the cost depends on the actual dimensionality of the data,
// not on the sheer number of coordinates. (Jones is flat too; it is the
// contrast with Figure 4's growth that carries the message.)
#include "bench_util.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "core/fair_center_sliding_window.h"
#include "sequential/jones_fair_center.h"

int main(int argc, char** argv) {
  fkc::FlagParser flags;
  std::string dims_csv = "3,6,9,12,15";
  int64_t window = 2000;
  int64_t queries = 8;
  int64_t stride = 25;
  int64_t threads = 1;
  int64_t seed = 42;
  int64_t repeats = 1;
  bool paper_scale = false;
  std::string output_csv;
  flags.AddString("dims", &dims_csv, "comma-separated ambient dimensions");
  flags.AddInt64("window", &window, "window size in points");
  flags.AddInt64("queries", &queries, "number of measured windows");
  flags.AddInt64("stride", &stride, "arrivals between measured windows");
  fkc::AddThreadsFlag(&flags, &threads);
  flags.AddInt64("seed", &seed, "stream/simulator seed");
  flags.AddInt64("repeats", &repeats,
                 "rerun the sweep this many times at seed, seed+1, ...");
  flags.AddBool("paper_scale", &paper_scale, "window 10000, 200 queries");
  flags.AddString("output_csv", &output_csv,
                  "also write raw rows to this CSV (summarizer schema)");
  FKC_CHECK_OK(flags.Parse(argc, argv));
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage(argv[0]).c_str());
    return 0;
  }
  if (paper_scale) {
    window = 10000;
    queries = 200;
    stride = 1;
  }

  fkc::bench::PrintPreamble(
      "Figure 5 (query time and memory vs #coordinates, rotated)",
      "both metrics flat in the ambient dimension for Ours at both deltas — "
      "cost tracks the intrinsic 3-d structure, not the coordinate count");
  fkc::bench::PrintHeader("coords");

  const fkc::EuclideanMetric metric;
  const fkc::JonesFairCenter jones;
  fkc::bench::CsvSink sink(output_csv, "fig5", "coords");

  for (int64_t r = 0; r < repeats; ++r) {
    const uint64_t run_seed = static_cast<uint64_t>(seed + r);
    if (repeats > 1) {
      std::printf("# repeat %lld/%lld seed=%llu\n",
                  static_cast<long long>(r + 1),
                  static_cast<long long>(repeats),
                  static_cast<unsigned long long>(run_seed));
    }
    for (const std::string& dim_text : fkc::StrSplit(dims_csv, ',')) {
      const int64_t dim = fkc::ParseInt(dim_text).value();
      const std::string name = "rotated" + std::to_string(dim);
      const int64_t stream_length = window + window / 2 + queries * stride;
      fkc::bench::PreparedDataset prepared = fkc::bench::Prepare(
          name, stream_length, metric, /*total_k=*/14, run_seed);

      fkc::WindowDriver driver(&metric, prepared.constraint, window);
      fkc::SlidingWindowOptions fine;
      fine.window_size = window;
      fine.delta = 0.5;
      fine.d_min = prepared.d_min;
      fine.d_max = prepared.d_max;
      fine.num_threads = fkc::ResolveThreadCount(threads);
      fkc::FairCenterSlidingWindow ours_fine =
          fkc::bench::Checked(fkc::FairCenterSlidingWindow::Create(
              fine, prepared.constraint, &metric, &jones));
      fkc::SlidingWindowOptions coarse = fine;
      coarse.delta = 2.0;
      fkc::FairCenterSlidingWindow ours_coarse =
          fkc::bench::Checked(fkc::FairCenterSlidingWindow::Create(
              coarse, prepared.constraint, &metric, &jones));
      driver.AddStreaming("Ours@0.5", &ours_fine);
      driver.AddStreaming("Ours@2.0", &ours_coarse);
      driver.AddBaseline("Jones", &jones);

      auto stream = fkc::datasets::MakeStream(std::move(prepared.dataset));
      fkc::DriverOptions run;
      run.stream_length = stream_length;
      run.num_queries = queries;
      run.query_stride = stride;
      const auto reports = driver.Run(stream.get(), run);
      for (const auto& report : reports) {
        fkc::bench::PrintRow("rotated", report, static_cast<double>(dim));
        sink.Row("rotated", report, static_cast<double>(dim), run_seed);
      }
    }
  }
  return 0;
}
