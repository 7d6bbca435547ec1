#include "sequential/gonzalez.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace fkc {

GonzalezResult GonzalezKCenter(const Metric& metric, const ColoredPool& pool,
                               int k, int first_index,
                               const GonzalezHeadFn& on_head, double* rows) {
  GonzalezResult result;
  if (pool.empty() || k <= 0) return result;
  FKC_CHECK_GE(first_index, 0);
  FKC_CHECK_LT(first_index, static_cast<int>(pool.size()));

  const int n = static_cast<int>(pool.size());
  const int heads_wanted = std::min(k, n);
  const size_t stride = pool.slot_count();

  // Per slot: the distance from its point to the current head set, and the
  // point's position. A slot that holds no point of the set has -inf and
  // never wins.
  std::vector<double> nearest(stride,
                              -std::numeric_limits<double>::infinity());
  std::vector<int> position(stride, -1);
  for (int i = 0; i < n; ++i) {
    nearest[pool.slot(i)] = std::numeric_limits<double>::infinity();
    position[pool.slot(i)] = i;
  }
  std::vector<double> own_row(rows == nullptr ? stride : 0);

  int next_head = first_index;
  double next_distance = std::numeric_limits<double>::infinity();
  for (int j = 0; j < heads_wanted; ++j) {
    result.head_indices.push_back(next_head);
    result.insertion_distances.push_back(next_distance);

    double* const row = rows != nullptr ? rows + j * stride : own_row.data();
    pool.DistanceRow(metric, pool.At(next_head), row,
                     j % 2 == 0 ? ScanOrder::kForward : ScanOrder::kBackward);
    // The farthest point, ties to the lowest position, in slot order; the
    // min is a select, not a branch, so a pass does not mispredict on the
    // ~half of the points the new head is nearer to.
    next_distance = 0.0;
    next_head = -1;
    for (size_t s = 0; s < stride; ++s) {
      const double m = row[s] < nearest[s] ? row[s] : nearest[s];
      nearest[s] = m;
      if (m > next_distance ||
          (m == next_distance && next_head != -1 && position[s] < next_head)) {
        next_distance = m;
        next_head = position[s];
      }
    }
    if (on_head && !on_head(row, next_distance)) break;
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
