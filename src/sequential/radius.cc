#include "sequential/radius.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

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

std::vector<int> AssignToCenters(const Metric& metric,
                                 const std::vector<Point>& window,
                                 const std::vector<Point>& centers) {
  FKC_CHECK(!centers.empty());
  std::vector<int> assignment;
  assignment.reserve(window.size());
  for (const Point& p : window) {
    int best = 0;
    double best_distance = metric.Distance(p, centers[0]);
    for (size_t c = 1; c < centers.size(); ++c) {
      const double d = metric.Distance(p, centers[c]);
      if (d < best_distance) {
        best_distance = d;
        best = static_cast<int>(c);
      }
    }
    assignment.push_back(best);
  }
  return assignment;
}

}  // namespace fkc
