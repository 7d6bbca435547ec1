#include "sequential/radius.h"

#include <limits>

#include "metric/simd_kernels.h"

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
  // One head pass per row, without colors: each folds its row into the
  // points' nearest distances, and the last one's farthest point is the
  // radius. A slot that is no point of the set holds -inf and never counts.
  const size_t stride = window.slot_count();
  std::vector<double> nearest(stride,
                              -std::numeric_limits<double>::infinity());
  std::vector<int> position(stride, -1);
  for (size_t i = 0; i < window.size(); ++i) {
    nearest[window.slot(i)] = std::numeric_limits<double>::infinity();
    position[window.slot(i)] = static_cast<int>(i);
  }
  const simd::HeadPassKernel head_pass = simd::ActiveKernels().head_pass;
  double radius = 0.0;
  for (const double* row : rows) {
    radius = head_pass(row, position.data(), nullptr, stride, nearest.data(),
                       nullptr, nullptr)
                 .distance;
  }
  return radius;
}

}  // namespace fkc
