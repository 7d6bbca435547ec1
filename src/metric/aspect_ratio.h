// Exact pairwise-distance statistics: minimum / maximum pairwise distance and
// the aspect ratio Δ = d_max / d_min that sizes the guess ladder. Intended
// for dataset preparation (the fixed-range bounds every figure bench and
// the explorer derive from a ~2,000-point sample), tests, and diagnostics —
// the streaming algorithm itself never calls these.
//
// Cost: one triangular walk over the metric's tile kernels. The points are
// copied once into a CoordinatePool; each tile of up to 8 consecutive
// points is scored by one Metric::DistanceSoATile against the pool's points
// from the tile's first point on, and the tile's points are then dropped
// from the pool's front. So n points cost n(n-1)/2 + ~4.5 n pairs through
// the SIMD kernels (a tile also scores itself against its own rows), where
// the pair loop made n(n-1)/2 scalar Distance calls. Each row i is folded
// from its pair j = i + 1 on, without a branch per pair. On the
// ~2,000-point samples (4-vCPU AVX-512 VM) this takes ~11 ms at d = 54 and
// ~4 ms at d = 3, against ~55 and ~10 ms for the pair loop.
//
// Exactness: every pair's value is Distance(points[i], points[j]) with
// i < j, bit for bit — the SoA contract in metric.h, with the row point as
// the first argument, also through the base-class fallbacks a custom metric
// uses (those gather the pool column into a point of coordinates only, so a
// Distance that reads a point's color, arrival or id must override
// DistanceSoA itself). The minimum of the non-zero values, the maximum and
// the zero count do not depend on the order the pairs are folded in (NaN
// distances are skipped by every comparison either way), so the result
// equals the pair loop's for every input and metric. A CountingMetric counts
// every pair a tile scores.
//
// Memory: O(n·d) for the pool copy, plus a tile buffer of 8 × n doubles.
#ifndef FKC_METRIC_ASPECT_RATIO_H_
#define FKC_METRIC_ASPECT_RATIO_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "metric/metric.h"
#include "metric/point.h"

namespace fkc {

/// Exact pairwise distance extrema over `points`.
struct DistanceExtrema {
  /// Smallest non-zero pairwise distance; +inf if fewer than two distinct
  /// locations exist. Zero distances (duplicate locations) are skipped
  /// because they would make the aspect ratio infinite while carrying no
  /// geometric information.
  double min_distance = 0.0;
  /// Largest pairwise distance (the diameter); 0 for < 2 points.
  double max_distance = 0.0;
  /// Number of coincident (distance zero) pairs encountered.
  int64_t zero_pairs = 0;
};

/// Computes extrema exactly over all pairs (see the file comment).
/// kInvalidArgument when the points do not share one dimension.
Result<DistanceExtrema> ComputeDistanceExtrema(
    const Metric& metric, const std::vector<Point>& points);

/// Aspect ratio Δ = d_max / d_min; returns 1 for degenerate inputs
/// (< 2 distinct locations). kInvalidArgument as ComputeDistanceExtrema.
Result<double> AspectRatio(const Metric& metric,
                           const std::vector<Point>& points);

/// Exact diameter (max pairwise distance): ComputeDistanceExtrema's
/// max_distance. kInvalidArgument as ComputeDistanceExtrema.
Result<double> Diameter(const Metric& metric,
                        const std::vector<Point>& points);

}  // namespace fkc

#endif  // FKC_METRIC_ASPECT_RATIO_H_
