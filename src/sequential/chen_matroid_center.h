// The matroid center of Chen, Li, Liang & Wang (Algorithmica 2016) [10]: the
// first 3-approximation for center clustering under an arbitrary matroid
// constraint, and the slower of the two sequential baselines in the paper's
// evaluation (labelled ChenEtAl).
//
// The paper's fairness constraint is a partition matroid (at most k_i
// centers of color i), and for it the matroid-intersection step of [10] is a
// head <-> color matching. Scheme, per candidate radius r:
//   1. Greedily extract heads: a maximal subset at pairwise distance > 2r
//      (every point ends up within 2r of a head). If a radius-r solution
//      exists, heads map injectively to its centers, so |heads| <= k.
//   2. The balls B(head, r) are pairwise disjoint; a radius-r solution must
//      contain one center inside each ball. Each head may take any color
//      present in its ball, and color i serves at most k_i heads: a
//      capacitated head <-> color matching that must saturate the heads. The
//      center of a matched (head, color) pair is the ball's nearest point of
//      that color.
//   3. On success every point is within 2r of a head and the head within r of
//      its chosen center: radius <= 3r. On failure OPT > r.
// The smallest admissible r is located by binary search over all pairwise
// distances (exact; OPT is always a point-to-point distance) or, for large
// inputs, over a geometric ladder — giving 3(1+eta)-approximation.
#ifndef FKC_SEQUENTIAL_CHEN_MATROID_CENTER_H_
#define FKC_SEQUENTIAL_CHEN_MATROID_CENTER_H_

#include "sequential/fair_center_solver.h"

namespace fkc {

/// Tuning knobs for the radius search.
struct ChenOptions {
  /// Inputs up to this size binary-search the exact sorted O(n^2) pairwise
  /// distance list; larger inputs use the geometric ladder below.
  int exact_candidate_limit = 2048;
  /// Ladder progression factor for large inputs; the approximation becomes
  /// 3 * ladder_factor.
  double ladder_factor = 1.05;
};

/// FairCenterSolver adapter: fair center as partition-matroid center.
class ChenMatroidCenter final : public FairCenterSolver {
 public:
  explicit ChenMatroidCenter(ChenOptions options = {}) : options_(options) {}

  Result<FairCenterSolution> Solve(
      const Metric& metric, const std::vector<Point>& points,
      const ColorConstraint& constraint) const override;

  double ApproximationFactor() const override { return 3.0; }
  std::string Name() const override { return "ChenEtAl"; }

 private:
  ChenOptions options_;
};

}  // namespace fkc

#endif  // FKC_SEQUENTIAL_CHEN_MATROID_CENTER_H_
