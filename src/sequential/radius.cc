#include "sequential/radius.h"

#include <algorithm>
#include <limits>

namespace fkc {

double ClusteringRadius(const Metric& metric, const std::vector<Point>& window,
                        const std::vector<Point>& centers) {
  return PoolClusteringRadius(metric, ColoredPool::FromPoints(window),
                              centers);
}

double PoolClusteringRadius(const Metric& metric, const ColoredPool& window,
                            const std::vector<Point>& centers) {
  if (window.empty()) return 0.0;
  if (centers.empty()) return std::numeric_limits<double>::infinity();
  const size_t stride = window.slot_count();
  std::vector<double> rows(centers.size() * stride);
  window.DistanceRows(metric, centers, rows.data());
  double worst = 0.0;
  for (size_t i = 0; i < window.size(); ++i) {
    const double* column = rows.data() + window.slot(i);
    double nearest = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < centers.size(); ++c) {
      nearest = std::min(nearest, column[c * stride]);
    }
    worst = std::max(worst, nearest);
  }
  return worst;
}

}  // namespace fkc
