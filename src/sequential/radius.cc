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
  std::vector<double> nearest(window.size(),
                              std::numeric_limits<double>::infinity());
  std::vector<double> row(window.slot_count());
  for (const Point& center : centers) {
    window.DistanceRow(metric, center, row.data());
    for (size_t i = 0; i < nearest.size(); ++i) {
      nearest[i] = std::min(nearest[i], row[window.slot(i)]);
    }
  }
  double worst = 0.0;
  for (double d : nearest) worst = std::max(worst, d);
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
