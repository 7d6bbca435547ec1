// A forwarding metric for differential tests of the c-phase's shortcuts.
#ifndef FKC_TESTS_EXACT_SCAN_METRIC_H_
#define FKC_TESTS_EXACT_SCAN_METRIC_H_

#include <string>

#include "metric/coordinate_pool.h"
#include "metric/metric.h"

namespace fkc {

// Forwards Distance, DistanceMany and DistanceSoA to `inner` but keeps the
// base class's DistanceSoAWithin, which answers with the exact DistanceSoA,
// and its RoundingError, which states none, so a window on it neither
// stops a scan early nor builds a pivot index: every c-phase scans its
// whole pool with exact distances.
class ExactScanMetric final : public Metric {
 public:
  explicit ExactScanMetric(const Metric* inner) : inner_(inner) {}
  double Distance(const Point& a, const Point& b) const override {
    return inner_->Distance(a, b);
  }
  void DistanceMany(const Point& p, const Point* const* points, size_t count,
                    double* out) const override {
    inner_->DistanceMany(p, points, count, out);
  }
  void DistanceSoA(const Point& p, const CoordinatePool& pool,
                   double* out) const override {
    inner_->DistanceSoA(p, pool, out);
  }
  std::string Name() const override { return inner_->Name(); }

 private:
  const Metric* inner_;
};

}  // namespace fkc

#endif  // FKC_TESTS_EXACT_SCAN_METRIC_H_
