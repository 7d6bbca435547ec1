// Shared plumbing for the figure-reproduction benches: dataset preparation
// with the paper's canonical configuration (sum k_i = 14, caps proportional
// to global color frequencies), distance-bound estimation for the
// fixed-range variant, and uniform row printing.
#ifndef FKC_BENCH_BENCH_UTIL_H_
#define FKC_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "datasets/registry.h"
#include "metric/aspect_ratio.h"
#include "metric/metric.h"
#include "sequential/color_constraint.h"
#include "stream/window_driver.h"

namespace fkc {
namespace bench {

/// The value of a Result the bench's own configuration produced (a window
/// from FairCenterSlidingWindow::Create, a constraint from
/// ColorConstraint::Create): a rejected configuration stops the bench with
/// its Status (FKC_CHECK).
template <typename T>
T Checked(Result<T> result) {
  FKC_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// A prepared experiment input: materialized points, the paper's fairness
/// constraint, and distance bounds for the fixed-range ("Ours") variant.
struct PreparedDataset {
  datasets::Dataset dataset;
  ColorConstraint constraint;
  double d_min = 0.0;
  double d_max = 0.0;
};

/// The subsample Prepare scans for distance bounds: every
/// max(1, n / 2000)-th point, about 2,000 of them.
inline std::vector<Point> BoundsSample(const std::vector<Point>& points) {
  std::vector<Point> sample;
  const size_t stride = points.size() > 2000 ? points.size() / 2000 : 1;
  for (size_t i = 0; i < points.size(); i += stride) {
    sample.push_back(points[i]);
  }
  return sample;
}

/// Generates `num_points` of the named dataset and derives the canonical
/// experiment configuration. Distance bounds come from an exact scan over a
/// subsample (the paper's Ours is given the true stream bounds; a subsample
/// with slack reproduces that knowledge at laptop cost). The scan is
/// ComputeDistanceExtrema's triangular walk of tile kernel calls: ~11 ms
/// for the ~2,000-point covtype sample (d = 54) and ~4 ms for phones
/// (d = 3) on a 4-vCPU AVX-512 VM, where a scalar pair loop took ~55 and
/// ~10 ms. Mixed-dimension data fails the FKC_CHECK below.
inline PreparedDataset Prepare(const std::string& name, int64_t num_points,
                               const Metric& metric, int total_k = 14,
                               uint64_t seed = 42) {
  auto made = datasets::MakeDataset(name, num_points, seed);
  FKC_CHECK(made.ok()) << made.status().ToString();
  PreparedDataset out;
  out.dataset = std::move(made).value();
  out.constraint = ColorConstraint::Proportional(out.dataset.points,
                                                 out.dataset.ell, total_k);

  const Result<DistanceExtrema> computed =
      ComputeDistanceExtrema(metric, BoundsSample(out.dataset.points));
  FKC_CHECK(computed.ok()) << computed.status().ToString();
  const DistanceExtrema& extrema = computed.value();
  FKC_CHECK_GT(extrema.max_distance, 0.0) << "degenerate dataset " << name;
  out.d_min = extrema.min_distance / 2.0;  // subsample slack
  out.d_max = extrema.max_distance * 2.0;
  return out;
}

/// Prints the uniform result header used by every figure bench.
inline void PrintHeader(const char* x_name) {
  std::printf("%-10s %-16s %10s %10s %12s %12s %12s %10s\n", "dataset",
              "algorithm", x_name, "ratio", "memory_pts", "update_ms",
              "query_ms", "queries");
}

/// Prints one result row. `x` is the swept parameter (delta, window size,
/// dimensionality, ...).
inline void PrintRow(const std::string& dataset, const AlgorithmReport& r,
                     double x) {
  std::printf("%-10s %-16s %10.3g %10.3f %12.1f %12.4f %12.3f %10lld\n",
              dataset.c_str(), r.name.c_str(), x, r.mean_ratio,
              r.mean_memory_points, r.mean_update_ms, r.mean_query_ms,
              static_cast<long long>(r.queries));
}

/// Prints the bench preamble: which figure is being reproduced and the shape
/// the paper reports, so a reader can eyeball-verify the output.
inline void PrintPreamble(const char* figure, const char* expectation) {
  std::printf("# Reproduces %s\n# Paper's shape: %s\n#\n", figure,
              expectation);
}

/// Machine-readable result output behind the `--output_csv` flag every
/// figure bench carries: one raw row per (dataset, algorithm, x, seed) in
/// the schema `tools/summarize_results.py` aggregates. Constructed with an
/// empty path it is a no-op, so benches call Row() unconditionally.
class CsvSink {
 public:
  CsvSink(const std::string& path, const std::string& figure,
          const std::string& x_name)
      : figure_(figure), x_name_(x_name) {
    if (path.empty()) return;
    file_ = std::fopen(path.c_str(), "w");
    FKC_CHECK(file_ != nullptr) << "cannot open --output_csv path " << path;
    std::fprintf(file_,
                 "figure,dataset,algorithm,x_name,x,seed,ratio,memory_pts,"
                 "update_ms,query_ms,queries\n");
  }
  ~CsvSink() {
    if (file_ != nullptr) std::fclose(file_);
  }
  CsvSink(const CsvSink&) = delete;
  CsvSink& operator=(const CsvSink&) = delete;

  void Row(const std::string& dataset, const AlgorithmReport& r, double x,
           uint64_t seed) {
    if (file_ == nullptr) return;
    std::fprintf(file_, "%s,%s,%s,%s,%g,%llu,%.6f,%.3f,%.6f,%.6f,%lld\n",
                 figure_.c_str(), dataset.c_str(), r.name.c_str(),
                 x_name_.c_str(), x, static_cast<unsigned long long>(seed),
                 r.mean_ratio, r.mean_memory_points, r.mean_update_ms,
                 r.mean_query_ms, static_cast<long long>(r.queries));
  }

 private:
  std::string figure_;
  std::string x_name_;
  std::FILE* file_ = nullptr;
};

}  // namespace bench
}  // namespace fkc

#endif  // FKC_BENCH_BENCH_UTIL_H_
