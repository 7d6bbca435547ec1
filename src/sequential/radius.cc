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
  std::vector<double> tile(centers.size() * stride);
  window.DistanceRows(metric, centers, tile.data());
  std::vector<const double*> rows(centers.size());
  for (size_t c = 0; c < rows.size(); ++c) rows[c] = tile.data() + c * stride;
  return ClusteringRadiusFromRows(window, rows);
}

double ClusteringRadiusFromRows(const ColoredPool& window,
                                const std::vector<const double*>& rows) {
  if (window.empty()) return 0.0;
  if (rows.empty()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (size_t i = 0; i < window.size(); ++i) {
    const size_t s = window.slot(i);
    double nearest = std::numeric_limits<double>::infinity();
    for (const double* row : rows) nearest = std::min(nearest, row[s]);
    worst = std::max(worst, nearest);
  }
  return worst;
}

}  // namespace fkc
