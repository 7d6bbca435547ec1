// Clustering-radius evaluation and the common solution/solver types shared by
// every fair-center algorithm in the library.
#ifndef FKC_SEQUENTIAL_RADIUS_H_
#define FKC_SEQUENTIAL_RADIUS_H_

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

/// A fair-center solution: the chosen centers and their radius over the
/// point set they were computed for.
struct FairCenterSolution {
  std::vector<Point> centers;
  double radius = 0.0;
};

}  // namespace fkc

#endif  // FKC_SEQUENTIAL_RADIUS_H_
