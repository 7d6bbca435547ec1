// Robust (outlier-tolerant) fair center — the extension the paper's
// conclusion singles out as future work: "the extension of our algorithms to
// the robust variant of fair center, tolerating a fixed number of outliers".
//
// Problem: given colored points, caps k_i, and an outlier budget z, choose a
// feasible center set C minimizing the radius needed to cover all but at
// most z points.
//
// Algorithm (bicriteria, in the spirit of Charikar et al. and of the robust
// matroid-center line [4, 25]): binary search over candidate radii; for a
// guess r,
//   1. repeatedly pick the point whose ball of radius r covers the most
//      not-yet-covered points (at most k rounds, the classic robust-center
//      greedy), marking balls of radius 3r as covered;
//   2. the picked heads are pairwise > 2r apart by construction (each new
//      head is uncovered, i.e. outside every earlier 3r ball); match heads
//      to color slots with balls of radius r, as in the fair solvers —
//      unmatched heads are dropped and their points count toward the
//      uncovered budget;
//   3. accept the guess if the points left uncovered by the matched heads'
//      3r-balls (plus r for the center shift: 4r total) number at most z.
// Accepting yields radius <= 4r with <= z outliers; the guarantee is
// bicriteria (constant-factor radius at the exact outlier budget).
#ifndef FKC_SEQUENTIAL_ROBUST_FAIR_CENTER_H_
#define FKC_SEQUENTIAL_ROBUST_FAIR_CENTER_H_

#include "sequential/color_constraint.h"
#include "sequential/fair_center_solver.h"

namespace fkc {

/// Solution of a robust run: centers plus the points they exclude.
struct RobustFairCenterSolution {
  std::vector<Point> centers;
  /// Radius covering all non-outlier points.
  double radius = 0.0;
  /// Indices (into the input) of the excluded points; size <= z.
  std::vector<int> outlier_indices;
};

/// Solves fair center with at most `num_outliers` excluded points.
/// Returns kInfeasible when no feasible non-empty center set exists.
Result<RobustFairCenterSolution> SolveRobustFairCenter(
    const Metric& metric, const std::vector<Point>& points,
    const ColorConstraint& constraint, int num_outliers);

/// Exact robust fair center by enumeration (tests only): minimizes over all
/// cap-respecting center sets the radius of the best (n - z)-point coverage.
Result<RobustFairCenterSolution> BruteForceRobustFairCenter(
    const Metric& metric, const std::vector<Point>& points,
    const ColorConstraint& constraint, int num_outliers);

}  // namespace fkc

#endif  // FKC_SEQUENTIAL_ROBUST_FAIR_CENTER_H_
