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
  // Row by row over the slots, so the min is one vector select per lane
  // block; each slot still takes its rows' minimum in center order.
  const size_t stride = window.slot_count();
  std::vector<double> nearest(stride,
                              std::numeric_limits<double>::infinity());
  for (const double* row : rows) {
    for (size_t s = 0; s < stride; ++s) {
      nearest[s] = row[s] < nearest[s] ? row[s] : nearest[s];
    }
  }
  double worst = 0.0;
  for (size_t i = 0; i < window.size(); ++i) {
    worst = std::max(worst, nearest[window.slot(i)]);
  }
  return worst;
}

}  // namespace fkc
