// Clustering-radius evaluation and the common solution/solver types shared by
// every fair-center algorithm in the library.
#ifndef FKC_SEQUENTIAL_RADIUS_H_
#define FKC_SEQUENTIAL_RADIUS_H_

#include <cstdint>
#include <vector>

#include "metric/colored_pool.h"
#include "metric/metric.h"
#include "metric/point.h"

namespace fkc {

/// r_C(W) = max_{p in W} d(p, C). Returns 0 for an empty window and +inf for
/// a non-empty window with no centers.
double ClusteringRadius(const Metric& metric, const std::vector<Point>& window,
                        const std::vector<Point>& centers);

/// ClusteringRadius over a window already held in a pool: one
/// ColoredPool::DistanceRows for all centers (one tiled pass over the pool
/// per tile of centers, not one pass per center), then
/// ClusteringRadiusFromRows.
double PoolClusteringRadius(const Metric& metric, const ColoredPool& window,
                            const std::vector<Point>& centers);

/// The radius of centers whose distance rows are already known:
/// rows[c][window.slot(i)] is d(center c, point i), as
/// ColoredPool::DistanceRow fills it. Folded into each point's nearest
/// distance in center order, one head pass (simd_kernels.h) per row, whose
/// last farthest point is the radius; +inf for a non-empty window with no
/// rows. The Jones
/// solver passes the rows its traversal kept for centers that are heads, so
/// its final radius reads the pool only for centers that are not.
double ClusteringRadiusFromRows(const ColoredPool& window,
                                const std::vector<const double*>& rows);

/// ClusteringRadiusFromRows for rows that may lie off the exact ones by up
/// to `row_error` each (a Gonzalez traversal's shadow rows, shadow_pool.h);
/// rows[c] is centers[c]'s. The points whose folded distance lies within
/// 2 * row_error of the fold's farthest are resolved with metric.Distance
/// to every center, so the radius is the exact rows' bit for bit. When more
/// than ShadowPool::kMaxCandidates points are that close, it is
/// PoolClusteringRadius's. Adds the Distance calls to `*resolved_pairs`.
/// With a row_error of 0 this is ClusteringRadiusFromRows.
double ResolvedClusteringRadius(const Metric& metric, const ColoredPool& window,
                                const std::vector<Point>& centers,
                                const std::vector<const double*>& rows,
                                double row_error, int64_t* resolved_pairs);

/// A fair-center solution: the chosen centers and their radius over the
/// point set they were computed for.
struct FairCenterSolution {
  std::vector<Point> centers;
  double radius = 0.0;
  /// The solve's work on a float32 shadow of its input (shadow_pool.h):
  /// rows read from the shadow, and Metric::Distance calls that resolved
  /// their decisions; 0 for solves on exact rows only.
  int64_t shadow_rows = 0;
  int64_t resolved_pairs = 0;
};

}  // namespace fkc

#endif  // FKC_SEQUENTIAL_RADIUS_H_
