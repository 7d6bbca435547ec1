// A decorating metric that counts distance evaluations. Distance
// computations dominate every algorithm in this library, so the counter is
// the machine-independent complexity measure used by the Theorem-3 tests
// (update/query cost independent of the window size) and available to
// benchmarks for ops-based reporting.
#ifndef FKC_METRIC_COUNTING_METRIC_H_
#define FKC_METRIC_COUNTING_METRIC_H_

#include <atomic>
#include <cstdint>

#include "metric/coordinate_pool.h"
#include "metric/metric.h"

namespace fkc {

/// Wraps another metric and counts calls. The counter is atomic (relaxed)
/// so counts stay exact under the parallel ladder engine, where independent
/// guess structures evaluate distances concurrently.
class CountingMetric final : public Metric {
 public:
  /// `inner` must outlive this wrapper.
  explicit CountingMetric(const Metric* inner) : inner_(inner) {}

  double Distance(const Point& a, const Point& b) const override {
    count_.fetch_add(1, std::memory_order_relaxed);
    return inner_->Distance(a, b);
  }

  /// Counts one evaluation per pair — exactly what the scalar loop would
  /// count — while forwarding the batch to the inner metric.
  void DistanceMany(const Point& p, const Point* const* points, size_t count,
                    double* out) const override {
    count_.fetch_add(static_cast<int64_t>(count), std::memory_order_relaxed);
    inner_->DistanceMany(p, points, count, out);
  }

  /// SoA scans count exactly like per-pair calls: one increment per stored
  /// point, whatever kernel width the inner metric dispatches to. This keeps
  /// the Theorem-3 complexity tests and the CI perf counters identical
  /// across scalar, AVX2, and AVX-512 runs.
  void DistanceSoA(const Point& p, const CoordinatePool& pool,
                   double* out) const override {
    count_.fetch_add(static_cast<int64_t>(pool.size()),
                     std::memory_order_relaxed);
    inner_->DistanceSoA(p, pool, out);
  }

  /// An ordered scan counts like DistanceSoA and forwards the order.
  void DistanceSoAOrdered(const Point& p, const CoordinatePool& pool,
                          ScanOrder order, double* out) const override {
    count_.fetch_add(static_cast<int64_t>(pool.size()),
                     std::memory_order_relaxed);
    inner_->DistanceSoAOrdered(p, pool, order, out);
  }

  /// A bounded scan counts like the exact one: one per stored point, however
  /// many dimensions the inner kernel actually reads.
  void DistanceSoAWithin(const Point& p, const CoordinatePool& pool,
                         double bound, double* out) const override {
    count_.fetch_add(static_cast<int64_t>(pool.size()),
                     std::memory_order_relaxed);
    inner_->DistanceSoAWithin(p, pool, bound, out);
  }

  /// A tile scan counts like one DistanceSoA per row, and forwards the tile
  /// so counted runs take the inner metric's tiled path.
  void DistanceSoATile(const Point* rows, size_t row_count,
                       const CoordinatePool& pool, size_t out_stride,
                       double* out) const override {
    count_.fetch_add(static_cast<int64_t>(row_count * pool.size()),
                     std::memory_order_relaxed);
    inner_->DistanceSoATile(rows, row_count, pool, out_stride, out);
  }

  /// Counting changes no distance, so the inner metric's error holds.
  std::optional<DistanceError> RoundingError(size_t dim) const override {
    return inner_->RoundingError(dim);
  }

  std::string Name() const override {
    return "counting(" + inner_->Name() + ")";
  }

  /// Number of Distance calls since construction or the last Reset.
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  void Reset() { count_.store(0, std::memory_order_relaxed); }

 private:
  const Metric* inner_;
  mutable std::atomic<int64_t> count_{0};
};

}  // namespace fkc

#endif  // FKC_METRIC_COUNTING_METRIC_H_
