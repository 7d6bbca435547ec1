#include "sequential/radius.h"

#include <limits>

#include "metric/shadow_pool.h"
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

namespace {

// Folds the rows into each slot's nearest distance, one head pass per row,
// and returns the last pass's farthest point; `position` maps each slot to
// its point. A slot that is no point of the set holds -inf and position -1,
// and never counts.
simd::Farthest FoldRows(const ColoredPool& window,
                        const std::vector<const double*>& rows,
                        std::vector<double>* nearest,
                        std::vector<int>* position) {
  const size_t stride = window.slot_count();
  nearest->assign(stride, -std::numeric_limits<double>::infinity());
  position->assign(stride, -1);
  for (size_t i = 0; i < window.size(); ++i) {
    (*nearest)[window.slot(i)] = std::numeric_limits<double>::infinity();
    (*position)[window.slot(i)] = static_cast<int>(i);
  }
  const simd::HeadPassKernel head_pass = simd::ActiveKernels().head_pass;
  simd::Farthest farthest = {0.0, -1};
  for (const double* row : rows) {
    farthest = head_pass(row, position->data(), nullptr, stride,
                         nearest->data(), nullptr, nullptr);
  }
  return farthest;
}

}  // namespace

double ClusteringRadiusFromRows(const ColoredPool& window,
                                const std::vector<const double*>& rows) {
  if (window.empty()) return 0.0;
  if (rows.empty()) return std::numeric_limits<double>::infinity();
  // The last head pass's farthest point is the radius.
  std::vector<double> nearest;
  std::vector<int> position;
  return FoldRows(window, rows, &nearest, &position).distance;
}

double ResolvedClusteringRadius(const Metric& metric, const ColoredPool& window,
                                const std::vector<Point>& centers,
                                const std::vector<const double*>& rows,
                                double row_error, int64_t* resolved_pairs) {
  if (row_error == 0.0 || window.empty() || rows.empty()) {
    return ClusteringRadiusFromRows(window, rows);
  }
  std::vector<double> nearest;
  std::vector<int> position;
  const double bound = FoldRows(window, rows, &nearest, &position).distance -
                       2.0 * row_error;
  size_t candidates[ShadowPool::kMaxCandidates] = {};
  const size_t found = ShadowPool::Candidates(
      nullptr, nearest.data(), nullptr, nullptr, nearest.size(), bound,
      ShadowPool::kMaxCandidates, candidates);
  if (found > ShadowPool::kMaxCandidates) {
    return PoolClusteringRadius(metric, window, centers);
  }
  return ShadowPool::ResolveFarthest(metric, window, centers, position.data(),
                                     candidates, found, nearest.data(),
                                     resolved_pairs)
      .distance;
}

}  // namespace fkc
