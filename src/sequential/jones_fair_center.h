// Fair k-center via maximum matching, after Jones, Nguyen & Nguyen (ICML
// 2020) [13]: the 3-approximation sequential algorithm the paper plugs into
// its Query procedure as "A".
//
// Reconstruction notes (the reference pseudocode is not bundled with the
// paper): we implement the scheme its guarantee rests on.
//
//   1. Run the Gonzalez farthest-point greedy for k = sum(k_i) heads. The
//      insertion distances delta_1 >= delta_2 >= ... are non-increasing, and
//      the first m heads are pairwise > delta_m apart.
//   2. For a candidate radius rho, keep the maximal head prefix with
//      delta_j > 2*rho. If a fair solution of radius rho exists, these heads
//      map injectively to optimal centers within rho (two heads > 2*rho apart
//      cannot share one), so a head <-> color-slot matching saturating the
//      prefix exists, where head h may use color c iff some point of color c
//      lies within rho of h.
//   3. Find the smallest feasible rho (feasibility is monotone: growing rho
//      shrinks the prefix and grows the balls) by binary search over the
//      O(k * ell) head-to-nearest-color distances plus the O(k) prefix
//      breakpoints delta_j / 2.
//   4. Output, for each matched head, the closest point of the matched color.
//      Every point is within max(2*rho, r_cov) of its head (r_cov <= 2*OPT is
//      the full Gonzalez coverage radius) and the head within rho of its
//      center, giving radius <= 2*OPT + rho* <= 3*OPT since rho* <= OPT.
//
// The solve reads its input as one ColoredPool (SolvePool): Gonzalez scans
// the coordinates, the color table reads the color column, radius tests
// work on point indices, and only the final centers become Points. Solve
// over a vector validates it and builds that pool.
//
// Runtime: O(n*k) for Gonzalez, whose per-head distance rows also fill the
// per-color distance table, plus
// O((k*ell + k) log(k*ell)) matchings on k-vertex graphs — matching the
// "linear in k and n" claim of [13].
#ifndef FKC_SEQUENTIAL_JONES_FAIR_CENTER_H_
#define FKC_SEQUENTIAL_JONES_FAIR_CENTER_H_

#include "sequential/fair_center_solver.h"

namespace fkc {

/// The 3-approximate fair-center solver used as the default `A`.
class JonesFairCenter final : public FairCenterSolver {
 public:
  Result<FairCenterSolution> Solve(
      const Metric& metric, const std::vector<Point>& points,
      const ColorConstraint& constraint) const override;
  Result<FairCenterSolution> SolvePool(
      const Metric& metric, const ColoredPool& pool,
      const ColorConstraint& constraint) const override;

  double ApproximationFactor() const override { return 3.0; }
  std::string Name() const override { return "Jones"; }
};

}  // namespace fkc

#endif  // FKC_SEQUENTIAL_JONES_FAIR_CENTER_H_
