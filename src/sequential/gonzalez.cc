#include "sequential/gonzalez.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "metric/simd_kernels.h"

namespace fkc {

GonzalezResult GonzalezKCenter(const Metric& metric, const ColoredPool& pool,
                               int k, int first_index,
                               const GonzalezHeadFn& on_head, double* rows,
                               int ell) {
  GonzalezResult result;
  if (pool.empty() || k <= 0) return result;
  FKC_CHECK_GE(first_index, 0);
  FKC_CHECK_LT(first_index, static_cast<int>(pool.size()));
  FKC_CHECK_GE(ell, 0);

  const int n = static_cast<int>(pool.size());
  const int heads_wanted = std::min(k, n);
  const size_t stride = pool.slot_count();

  // Per slot: the distance from its point to the current head set, the
  // point's position and its color. A slot that holds no point of the set
  // has -inf, position -1 and color `ell`, the table's sentinel entry.
  std::vector<double> nearest(stride,
                              -std::numeric_limits<double>::infinity());
  std::vector<int> position(stride, -1);
  std::vector<int> color(ell > 0 ? stride : 0, ell);
  for (int i = 0; i < n; ++i) {
    nearest[pool.slot(i)] = std::numeric_limits<double>::infinity();
    position[pool.slot(i)] = i;
    if (ell > 0) {
      FKC_CHECK(pool.color(i) >= 0 && pool.color(i) < ell)
          << "color " << pool.color(i) << " outside [0, " << ell << ")";
      color[pool.slot(i)] = pool.color(i);
    }
  }
  std::vector<double> color_distance(ell + 1);
  std::vector<int> color_index(ell + 1);
  std::vector<double> own_row(rows == nullptr ? stride : 0);
  const simd::HeadPassKernel head_pass = simd::ActiveKernels().head_pass;

  int next_head = first_index;
  double next_distance = std::numeric_limits<double>::infinity();
  for (int j = 0; j < heads_wanted; ++j) {
    result.head_indices.push_back(next_head);
    result.insertion_distances.push_back(next_distance);

    double* const row = rows != nullptr ? rows + j * stride : own_row.data();
    pool.DistanceRow(metric, pool.At(next_head), row,
                     j % 2 == 0 ? ScanOrder::kForward : ScanOrder::kBackward);
    std::fill(color_distance.begin(), color_distance.end() - 1,
              std::numeric_limits<double>::infinity());
    std::fill(color_index.begin(), color_index.end(), -1);
    color_distance.back() = -std::numeric_limits<double>::infinity();
    const simd::Farthest farthest =
        head_pass(row, position.data(), ell > 0 ? color.data() : nullptr,
                  stride, nearest.data(), color_distance.data(),
                  color_index.data());
    next_distance = farthest.distance;
    next_head = farthest.position;
    if (on_head && !on_head({next_distance, color_distance.data(),
                             color_index.data()})) {
      break;
    }
    if (next_head == -1) break;  // all points coincide with the heads
  }

  result.coverage_radius = next_distance;
  return result;
}

GonzalezResult GonzalezKCenter(const Metric& metric,
                               const std::vector<Point>& points, int k,
                               int first_index) {
  return GonzalezKCenter(metric, ColoredPool::FromPoints(points), k,
                         first_index);
}

std::vector<Point> HeadPoints(const std::vector<Point>& points,
                              const GonzalezResult& result) {
  std::vector<Point> heads;
  heads.reserve(result.head_indices.size());
  for (int idx : result.head_indices) heads.push_back(points[idx]);
  return heads;
}

}  // namespace fkc
