// Gonzalez's greedy 2-approximation for unconstrained k-center [23]. Beyond
// being a baseline, it is the head-selection engine inside the Jones fair
// solver and the k-median seeding.
#ifndef FKC_SEQUENTIAL_GONZALEZ_H_
#define FKC_SEQUENTIAL_GONZALEZ_H_

#include <functional>
#include <vector>

#include "metric/colored_pool.h"
#include "metric/metric.h"
#include "metric/point.h"

namespace fkc {

/// Output of the greedy farthest-point traversal.
struct GonzalezResult {
  /// Indices of the selected heads, in selection order.
  std::vector<int> head_indices;
  /// insertion_distances[j] = distance of head j from heads 0..j-1 at the
  /// moment of selection; +inf for the first head. Non-increasing.
  std::vector<double> insertion_distances;
  /// Coverage radius: max over all points of the distance to the full head
  /// set. Classic guarantee: at most 2x the optimal k-center radius.
  double coverage_radius = 0.0;
};

/// Sees each selected head's distance row as ColoredPool::DistanceRow
/// fills it, once per head in selection order: d(head, point i) is
/// row[pool.slot(i)]. It is called after the row has updated every point's
/// distance to the head set, so `next_distance` is the insertion distance
/// the next head would have: the coverage radius of the heads so far, 0 when
/// every point coincides with one of them. Returning false ends the
/// traversal after this head, with the heads so far as the result and
/// `next_distance` as its coverage radius.
using GonzalezHeadFn =
    std::function<bool(const double* row, double next_distance)>;

/// Runs the farthest-point greedy over `pool` starting from `first_index`,
/// selecting min(k, n) heads unless `on_head` ends it sooner. Each head is
/// read from the pool (At) and costs one DistanceRow, so O(n * k) distance
/// evaluations in at most 2k kernel calls.
///
/// Scan order: even heads scan the pool forward, odd heads backward (owned
/// slots first, each pool's blocks newest first), so on a pool larger than
/// L2 each pass starts on the blocks the previous one read last. Every row
/// is the same in either order, bit for bit.
///
/// Ties: the next head is the farthest point with the lowest position,
/// whatever the pool's slot order or the pass's scan order, so the heads
/// are those of a forward scan over a copy of the points. The pass that
/// picks it runs over the slots, with a select rather than a branch for the
/// running minimum.
/// `rows`, when given, has room for min(k, n) rows of pool.slot_count()
/// doubles, and head j's row is written at rows + j * slot_count() and left
/// there for the caller; otherwise one buffer of the traversal's own holds
/// each row in turn.
GonzalezResult GonzalezKCenter(const Metric& metric, const ColoredPool& pool,
                               int k, int first_index = 0,
                               const GonzalezHeadFn& on_head = nullptr,
                               double* rows = nullptr);

/// The same greedy over a pool built from `points` for this call.
GonzalezResult GonzalezKCenter(const Metric& metric,
                               const std::vector<Point>& points, int k,
                               int first_index = 0);

/// Convenience: materializes the head points of a GonzalezResult.
std::vector<Point> HeadPoints(const std::vector<Point>& points,
                              const GonzalezResult& result);

}  // namespace fkc

#endif  // FKC_SEQUENTIAL_GONZALEZ_H_
