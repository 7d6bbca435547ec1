// Explorer: a flag-driven CLI to run any algorithm of the library on any
// dataset — the built-in synthetic families or your own CSV — and print the
// paper's four metrics. The practical entry point for trying the library on
// real data.
//
// Examples:
//   explorer --dataset=phones --algorithm=oblivious --window=5000
//   explorer --csv=mydata.csv --ell=4 --algorithm=ours --delta=2 --k=8
//   explorer --dataset=blobs5 --algorithm=lite --queries=20
#include <cstdio>
#include <memory>
#include <utility>

#include "common/flags.h"
#include "common/logging.h"
#include "core/fair_center_sliding_window.h"
#include "datasets/csv_loader.h"
#include "datasets/registry.h"
#include "metric/aspect_ratio.h"
#include "metric/metric.h"
#include "sequential/chen_matroid_center.h"
#include "sequential/jones_fair_center.h"
#include "stream/window_driver.h"

int main(int argc, char** argv) {
  fkc::FlagParser flags;
  std::string dataset_name = "phones";
  std::string csv_path;
  std::string algorithm = "oblivious";  // ours|oblivious|lite|jones|chen
  int64_t window = 2000;
  int64_t queries = 10;
  int64_t stride = 20;
  int64_t total_k = 14;
  int64_t ell_override = 0;
  double delta = 1.0;
  double beta = 2.0;
  uint64_t seed = 42;
  int64_t seed_flag = 42;
  int64_t threads = 0;  // all hardware threads (see AddThreadsFlag)
  int64_t batch = 1;
  flags.AddString("dataset", &dataset_name,
                  "named dataset (phones|higgs|covtype|blobs<d>|rotated<D>)");
  flags.AddString("csv", &csv_path,
                  "CSV path (numeric columns + integer color in the last "
                  "column); overrides --dataset");
  flags.AddString("algorithm", &algorithm,
                  "ours | oblivious | lite | jones | chen");
  flags.AddInt64("window", &window, "window size in points");
  flags.AddInt64("queries", &queries, "number of measured windows");
  flags.AddInt64("stride", &stride, "arrivals between measured windows");
  flags.AddInt64("k", &total_k, "total center budget (caps proportional)");
  flags.AddInt64("ell", &ell_override,
                 "number of colors for CSV input (default: max label + 1)");
  flags.AddDouble("delta", &delta, "coreset precision");
  flags.AddDouble("beta", &beta, "guess ladder progression");
  flags.AddInt64("seed", &seed_flag, "generator seed for named datasets");
  fkc::AddThreadsFlag(&flags, &threads);
  flags.AddInt64("batch", &batch, "arrivals per UpdateBatch call");
  FKC_CHECK_OK(flags.Parse(argc, argv));
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage(argv[0]).c_str());
    return 0;
  }
  seed = static_cast<uint64_t>(seed_flag);

  const fkc::EuclideanMetric metric;
  const fkc::JonesFairCenter jones;
  const fkc::ChenMatroidCenter chen;

  // --- Assemble the stream. ---
  const int64_t stream_length = window + window / 2 + queries * stride;
  std::vector<fkc::Point> points;
  int ell = 0;
  if (!csv_path.empty()) {
    auto loaded = fkc::datasets::LoadCsv(csv_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", csv_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    points = std::move(loaded).value();
    for (const fkc::Point& p : points) ell = std::max(ell, p.color + 1);
    if (ell_override > 0) ell = static_cast<int>(ell_override);
    dataset_name = csv_path;
  } else {
    auto made = fkc::datasets::MakeDataset(dataset_name, stream_length, seed);
    if (!made.ok()) {
      std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
      return 1;
    }
    ell = made.value().ell;
    points = std::move(made).value().points;
  }
  if (points.empty()) {
    std::fprintf(stderr, "empty dataset\n");
    return 1;
  }

  const fkc::ColorConstraint constraint = fkc::ColorConstraint::Proportional(
      points, ell, static_cast<int>(total_k));
  std::printf("dataset=%s points=%zu dim=%zu ell=%d %s\n",
              dataset_name.c_str(), points.size(), points[0].dimension(), ell,
              constraint.ToString().c_str());

  // Distance bounds for the fixed-range variant.
  std::vector<fkc::Point> sample;
  const size_t sample_stride = points.size() > 2000 ? points.size() / 2000 : 1;
  for (size_t i = 0; i < points.size(); i += sample_stride) {
    sample.push_back(points[i]);
  }
  const auto computed = fkc::ComputeDistanceExtrema(metric, sample);
  if (!computed.ok()) {
    std::fprintf(stderr, "%s\n", computed.status().ToString().c_str());
    return 1;
  }
  const fkc::DistanceExtrema& extrema = computed.value();

  // --- Configure the chosen algorithm. ---
  fkc::SlidingWindowOptions options;
  options.window_size = window;
  options.beta = beta;
  options.delta = delta;
  options.num_threads = fkc::ResolveThreadCount(threads);
  options.adaptive_range = (algorithm != "ours");
  if (algorithm == "ours") {
    options.d_min = extrema.min_distance / 2.0;
    options.d_max = extrema.max_distance * 2.0;
  }

  std::unique_ptr<fkc::FairCenterSlidingWindow> streaming;
  fkc::WindowDriver driver(&metric, constraint, window);
  if (algorithm == "ours" || algorithm == "oblivious" || algorithm == "lite") {
    auto created = fkc::FairCenterSlidingWindow::Create(
        algorithm == "lite" ? fkc::ValidationOnlyOptions(options) : options,
        constraint, &metric, &jones);
    if (!created.ok()) {
      std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
      return 1;
    }
    streaming = std::make_unique<fkc::FairCenterSlidingWindow>(
        std::move(created).value());
    driver.AddStreaming(algorithm, streaming.get());
  } else if (algorithm == "jones") {
    driver.AddBaseline("jones", &jones);
  } else if (algorithm == "chen") {
    driver.AddBaseline("chen", &chen);
  } else {
    std::fprintf(stderr, "unknown --algorithm=%s\n", algorithm.c_str());
    return 1;
  }
  driver.AddBaseline("Jones-reference", &jones);

  fkc::VectorStream stream(std::move(points), ell, dataset_name,
                           /*cycle=*/true);
  fkc::DriverOptions run;
  run.stream_length = stream_length;
  run.num_queries = queries;
  run.query_stride = stride;
  run.update_batch_size = batch;
  const auto reports = driver.Run(&stream, run);

  std::printf("\n%-16s %10s %12s %12s %12s\n", "algorithm", "ratio",
              "memory_pts", "update_ms", "query_ms");
  for (const auto& report : reports) {
    std::printf("%-16s %10.3f %12.1f %12.4f %12.3f\n", report.name.c_str(),
                report.mean_ratio, report.mean_memory_points,
                report.mean_update_ms, report.mean_query_ms);
  }
  return 0;
}
