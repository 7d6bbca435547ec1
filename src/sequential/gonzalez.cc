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

  // nearest[i] = distance from point i to the current head set.
  std::vector<double> nearest(n, std::numeric_limits<double>::infinity());
  std::vector<double> own_row(rows == nullptr ? stride : 0);

  int next_head = first_index;
  double next_distance = std::numeric_limits<double>::infinity();
  for (int j = 0; j < heads_wanted; ++j) {
    result.head_indices.push_back(next_head);
    result.insertion_distances.push_back(next_distance);

    double* const row = rows != nullptr ? rows + j * stride : own_row.data();
    pool.DistanceRow(metric, pool.At(next_head), row);
    next_distance = 0.0;
    next_head = -1;
    for (int i = 0; i < n; ++i) {
      const double d = row[pool.slot(i)];
      if (d < nearest[i]) nearest[i] = d;
      if (nearest[i] > next_distance) {
        next_distance = nearest[i];
        next_head = i;
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
