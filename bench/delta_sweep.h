// The shared delta-sweep experiment behind Figures 1 and 2: for each
// dataset, all four algorithms (Ours / OursOblivious across the delta grid,
// Jones and ChenEtAl on the full window) run over one stream pass, measured
// on consecutive windows.
#ifndef FKC_BENCH_DELTA_SWEEP_H_
#define FKC_BENCH_DELTA_SWEEP_H_

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "core/fair_center_sliding_window.h"
#include "sequential/chen_matroid_center.h"
#include "sequential/jones_fair_center.h"

namespace fkc {
namespace bench {

struct DeltaSweepConfig {
  int64_t window_size = 2000;
  int64_t num_queries = 10;
  int64_t query_stride = 20;
  std::vector<double> deltas = {0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0};
  std::vector<std::string> dataset_names = {"phones", "higgs", "covtype"};
  double beta = 2.0;  // the paper's fixed guess progression
  /// ChenEtAl times out on large windows in the paper; skip it beyond this.
  int64_t chen_window_limit = 4000;
  /// Parallel engine knobs: worker threads per streaming window (0 = all
  /// hardware threads) and arrivals per UpdateBatch call. Both default to 1
  /// so figure timings stay comparable with the paper's single-threaded
  /// per-arrival measurements unless explicitly overridden.
  int64_t num_threads = 1;
  int64_t update_batch_size = 1;
  /// Stream/simulator seed. Repeats rerun the whole sweep at seed,
  /// seed + 1, ... so the summarizer can take median/p95 across them.
  uint64_t seed = 42;
  int64_t repeats = 1;
  /// When non-empty, raw rows are appended to this CSV (schema in
  /// bench_util.h CsvSink) in addition to the stdout table.
  std::string output_csv;
};

struct DeltaSweepResult {
  std::string dataset;
  double delta;  // 0 for the baselines (delta-independent)
  AlgorithmReport report;
};

/// Runs the sweep once at `seed` and returns one row per
/// (dataset, algorithm, delta).
inline std::vector<DeltaSweepResult> RunDeltaSweep(
    const DeltaSweepConfig& config, uint64_t seed) {
  const EuclideanMetric metric;
  const JonesFairCenter jones;
  const ChenMatroidCenter chen;
  std::vector<DeltaSweepResult> rows;

  for (const std::string& name : config.dataset_names) {
    const int64_t stream_length = config.window_size + config.window_size / 2 +
                                  config.num_queries * config.query_stride;
    PreparedDataset prepared =
        Prepare(name, stream_length, metric, /*total_k=*/14, seed);

    // Own the windows for the whole driver run.
    std::vector<std::unique_ptr<FairCenterSlidingWindow>> windows;
    WindowDriver driver(&metric, prepared.constraint, config.window_size);

    for (double delta : config.deltas) {
      SlidingWindowOptions fixed;
      fixed.window_size = config.window_size;
      fixed.beta = config.beta;
      fixed.delta = delta;
      fixed.d_min = prepared.d_min;
      fixed.d_max = prepared.d_max;
      fixed.num_threads = ResolveThreadCount(config.num_threads);
      windows.push_back(std::make_unique<FairCenterSlidingWindow>(
          Checked(FairCenterSlidingWindow::Create(fixed, prepared.constraint,
                                                  &metric, &jones))));
      driver.AddStreaming(StrFormat("Ours@%g", delta), windows.back().get());

      SlidingWindowOptions adaptive = fixed;
      adaptive.adaptive_range = true;
      adaptive.d_min = adaptive.d_max = 0.0;
      windows.push_back(std::make_unique<FairCenterSlidingWindow>(
          Checked(FairCenterSlidingWindow::Create(adaptive, prepared.constraint,
                                                  &metric, &jones))));
      driver.AddStreaming(StrFormat("OursObliv@%g", delta),
                          windows.back().get());
    }
    driver.AddBaseline("Jones", &jones);
    const bool run_chen = config.window_size <= config.chen_window_limit;
    if (run_chen) driver.AddBaseline("ChenEtAl", &chen);

    auto stream = datasets::MakeStream(std::move(prepared.dataset));
    DriverOptions run;
    run.stream_length = stream_length;
    run.num_queries = config.num_queries;
    run.query_stride = config.query_stride;
    run.update_batch_size = config.update_batch_size;
    const auto reports = driver.Run(stream.get(), run);

    size_t r = 0;
    for (double delta : config.deltas) {
      rows.push_back({name, delta, reports[r++]});  // Ours
      rows.push_back({name, delta, reports[r++]});  // OursOblivious
    }
    rows.push_back({name, 0.0, reports[r++]});  // Jones
    if (run_chen) rows.push_back({name, 0.0, reports[r++]});
  }
  return rows;
}

/// Runs `config.repeats` seeded sweeps, printing every row and mirroring it
/// into `config.output_csv` when set. Shared by fig1 and fig2 (same grid,
/// different commentary).
inline void RunDeltaSweepRepeats(const DeltaSweepConfig& config,
                                 const char* figure) {
  CsvSink sink(config.output_csv, figure, "delta");
  for (int64_t r = 0; r < config.repeats; ++r) {
    const uint64_t seed = config.seed + static_cast<uint64_t>(r);
    if (config.repeats > 1) {
      std::printf("# repeat %lld/%lld seed=%llu\n",
                  static_cast<long long>(r + 1),
                  static_cast<long long>(config.repeats),
                  static_cast<unsigned long long>(seed));
    }
    const auto rows = RunDeltaSweep(config, seed);
    for (const auto& row : rows) {
      PrintRow(row.dataset, row.report, row.delta);
      sink.Row(row.dataset, row.report, row.delta, seed);
    }
  }
}

/// Shared flag wiring for the two delta-sweep figures. Returns false (after
/// printing usage) when --help was requested.
inline bool ParseDeltaSweepFlags(int argc, char** argv,
                                 DeltaSweepConfig* config) {
  FlagParser flags;
  int64_t window = config->window_size;
  int64_t queries = config->num_queries;
  int64_t stride = config->query_stride;
  int64_t threads = config->num_threads;
  int64_t batch = config->update_batch_size;
  int64_t seed = static_cast<int64_t>(config->seed);
  int64_t repeats = config->repeats;
  bool paper_scale = false;
  std::string datasets_csv;
  std::string deltas_csv;
  std::string output_csv;
  flags.AddInt64("window", &window, "window size in points");
  flags.AddInt64("queries", &queries, "number of measured windows");
  flags.AddInt64("stride", &stride, "arrivals between measured windows");
  AddThreadsFlag(&flags, &threads);
  flags.AddInt64("batch", &batch, "arrivals per UpdateBatch call");
  flags.AddInt64("seed", &seed, "stream/simulator seed");
  flags.AddInt64("repeats", &repeats,
                 "rerun the sweep this many times at seed, seed+1, ...");
  flags.AddBool("paper_scale", &paper_scale,
                "use the paper's window size (10000) and 200 queries");
  flags.AddString("datasets", &datasets_csv,
                  "comma-separated dataset names (default: all three)");
  flags.AddString("deltas", &deltas_csv,
                  "comma-separated delta grid (default: the paper's "
                  "0.5..4 in steps of 0.5)");
  flags.AddString("output_csv", &output_csv,
                  "also write raw rows to this CSV (summarizer schema)");
  FKC_CHECK_OK(flags.Parse(argc, argv));
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage(argv[0]).c_str());
    return false;
  }
  FKC_CHECK_GE(seed, 0) << "--seed must be non-negative";
  FKC_CHECK_GE(repeats, 1) << "--repeats must be >= 1";
  config->window_size = window;
  config->num_queries = queries;
  config->query_stride = stride;
  config->num_threads = threads;
  config->update_batch_size = batch;
  config->seed = static_cast<uint64_t>(seed);
  config->repeats = repeats;
  config->output_csv = output_csv;
  if (paper_scale) {
    config->window_size = 10000;
    config->num_queries = 200;
    config->query_stride = 1;
  }
  if (!datasets_csv.empty()) {
    config->dataset_names = StrSplit(datasets_csv, ',');
  }
  if (!deltas_csv.empty()) {
    config->deltas.clear();
    for (const std::string& text : StrSplit(deltas_csv, ',')) {
      auto parsed = ParseDouble(text);
      FKC_CHECK(parsed.ok() && parsed.value() > 0.0)
          << "bad --deltas entry '" << text << "'";
      config->deltas.push_back(parsed.value());
    }
  }
  return true;
}

}  // namespace bench
}  // namespace fkc

#endif  // FKC_BENCH_DELTA_SWEEP_H_
