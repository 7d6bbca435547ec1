// Gonzalez's greedy 2-approximation for unconstrained k-center [23]. Beyond
// being a baseline, it is the head-selection engine inside the Jones fair
// solver and the k-median seeding.
#ifndef FKC_SEQUENTIAL_GONZALEZ_H_
#define FKC_SEQUENTIAL_GONZALEZ_H_

#include <cstdint>
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
  /// The bound on how far each row the traversal wrote into the caller's
  /// `rows` lies from the exact row (ShadowPool::error()); 0 when they are
  /// exact.
  double row_error = 0.0;
  /// Rows read from a float32 shadow of the pool (shadow_pool.h), and the
  /// Metric::Distance calls that resolved their decisions exactly. A
  /// traversal that went back to exact rows counts the shadow work it did
  /// before.
  int64_t shadow_rows = 0;
  int64_t resolved_pairs = 0;
};

/// What the traversal knows once a head's pass is done (its distance row
/// is in `rows`, when GonzalezKCenter is given them).
struct GonzalezHead {
  /// The insertion distance the next head would have: the coverage radius
  /// of the heads so far, 0 when every point coincides with one of them.
  double next_distance;
  /// Per color c < ell (GonzalezKCenter's `ell`): the head's distance to
  /// its nearest point of color c, and that point's position, the lowest
  /// among equal distances. (+inf, -1) when no point of color c is nearer
  /// than +inf; NaN distances never count.
  const double* color_distance;
  const int* color_index;
};

/// Sees each selected head once, in selection order, after its pass has
/// updated every point's distance to the head set. Returning false ends
/// the traversal after this head, with the heads so far as the result and
/// `next_distance` as its coverage radius.
using GonzalezHeadFn = std::function<bool(const GonzalezHead& head)>;

/// Runs the farthest-point greedy over `pool` starting from `first_index`,
/// selecting min(k, n) heads unless `on_head` ends it sooner. Each head is
/// read from the pool (At) and costs one distance row, so O(n * k) distance
/// evaluations in at most 2k kernel calls, and one head pass of the active
/// simd::KernelSet over the row (simd_kernels.h): it folds the row into
/// each point's distance to the heads, picks the next head and, when `ell`
/// is positive, fills the per-color table `on_head` sees. Every color of
/// the pool must then lie in [0, ell) (FKC_CHECK).
///
/// Row source: a DistanceRow per head, or, on a pool ShadowPool::Create
/// serves (a built-in metric over pools that keep a float32 twin, past
/// 1 MiB of coordinates), a shadow row per head, head 0 included, scanned
/// from the twins (shadow_pool.h). Every decision of a shadow row is then
/// resolved with Metric::Distance: the next head among the points whose
/// folded distance lies within 2 * error() of the farthest, and each
/// color's nearest point among the points of that color within
/// 2 * error() of its nearest. So heads, insertion distances and tables are
/// the exact rows' whatever the source. A resolution with more than
/// ShadowPool::kMaxCandidates candidates sends the traversal back to exact
/// rows (a restart that replays the heads so far without calling `on_head`
/// again).
///
/// Scan order: even heads scan the pool forward, odd heads backward (owned
/// slots first, each pool's blocks newest first), so on a pool larger than
/// L2 each pass starts on the blocks the previous one read last. Every row
/// is the same in either order, bit for bit.
///
/// Ties: the next head is the farthest point with the lowest position, and
/// each color's nearest point is the one with the lowest position, whatever
/// the pool's slot order, the pass's scan order or the kernel width, so
/// heads and tables are those of a forward scan over a copy of the points.
/// A slot that is no point of the set never wins either, nor does a point
/// at distance 0.
/// `rows`, when given, has room for min(k, n) rows of pool.slot_count()
/// doubles, and head j's row is written at rows + j * slot_count() and left
/// there for the caller; otherwise one buffer of the traversal's own holds
/// each row in turn. Each row lies within the result's row_error of the
/// exact row (0 unless the traversal read the shadow).
GonzalezResult GonzalezKCenter(const Metric& metric, const ColoredPool& pool,
                               int k, int first_index = 0,
                               const GonzalezHeadFn& on_head = nullptr,
                               double* rows = nullptr, int ell = 0);

/// The same greedy over a pool built from `points` for this call.
GonzalezResult GonzalezKCenter(const Metric& metric,
                               const std::vector<Point>& points, int k,
                               int first_index = 0);

/// Convenience: materializes the head points of a GonzalezResult.
std::vector<Point> HeadPoints(const std::vector<Point>& points,
                              const GonzalezResult& result);

}  // namespace fkc

#endif  // FKC_SEQUENTIAL_GONZALEZ_H_
