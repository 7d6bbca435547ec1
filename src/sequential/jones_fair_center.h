// Fair k-center via maximum matching, after Jones, Nguyen & Nguyen (ICML
// 2020) [13]: the 3-approximation sequential algorithm the paper plugs into
// its Query procedure as "A".
//
// Reconstruction notes (the reference pseudocode is not bundled with the
// paper): we implement the scheme its guarantee rests on.
//
//   1. Run the Gonzalez farthest-point greedy for up to k = sum(k_i) heads.
//      The insertion distances delta_1 >= delta_2 >= ... are non-increasing,
//      and the first m heads are pairwise > delta_m apart. The traversal
//      stops early once steps 2-3 can no longer change (the stop rule
//      below).
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
// The stop rule. After j heads, with the next insertion distance delta_j
// known, the traversal stops if rho = delta_j / 2 is infeasible and the
// largest candidate collected so far is feasible; step 3 then searches only
// the collected candidates above delta_j / 2. The answer is the one all k
// heads give, bit for bit:
//   - by monotonicity no radius <= delta_j / 2 is feasible, so rho* lies
//     above it;
//   - above delta_j / 2 the prefix holds only heads < j, so feasibility
//     there depends only on their rows, and it can change only at their
//     color distances and at the breakpoints delta_m / 2, m < j: every
//     point where it turns feasible is a candidate already collected, and
//     the first feasible one is the full run's rho*;
//   - a feasible largest candidate means the full run's largest one is
//     feasible too, so it does not fail either.
// The centers come from the matching at rho*, which reads only the prefix
// heads' rows, so they are equal too. (Where 2 * rho overflows, the prefix
// is empty and every such radius gives the same empty answer in both
// runs.) The argument needs 2 * (delta_m / 2) == delta_m for every
// breakpoint m <= j. Halving is exact unless the half is subnormal, and
// delta_m >= delta_j, so the rule runs only while delta_j / 2 is a normal
// double; below that the traversal runs to k heads.
//
// Radius tests decide feasibility by augmenting paths over the colors'
// capacities: each head first takes a color with spare capacity (a greedy
// assignment, usually enough), and moves other heads only when none is
// left. They allocate nothing, so the stop rule's per-head tests stay cheap
// on small pools. Only rho* itself goes through MaximumCapacitatedMatching,
// whose assignment picks the centers; it runs Hopcroft–Karp on the
// cap-expanded graph without building it, with the expanded graph's
// neighbor order, so its assignment is the expanded graph's.
//
// The solve reads its input as one ColoredPool (SolvePool): Gonzalez scans
// the coordinates into rows the solve keeps, alternating the scan direction
// from head to head (gonzalez.h), and its head pass over each row (one
// vectorized kernel, simd_kernels.h) hands the solve the head's color
// table: per color, the nearest point, the lowest position among equal
// distances, so the table is the one a loop over the positions in order
// would fill. Radius tests work on point indices, and only the final
// centers become Points. When the centers are, as a set, the first p
// heads, the final radius is the traversal's: head p's insertion distance
// (the coverage radius when p is every head), the farthest point of the
// fold of those heads' rows. Otherwise it reads the kept row of each
// center that is a head, tiles one DistanceRows pass for the others, and
// folds the rows with the same head pass (ClusteringRadiusFromRows). Solve
// over a vector validates it and builds that pool.
//
// Runtime: O(n*j) for the j <= k heads the traversal computes, whose rows
// also fill the per-color distance table and most of the final radius;
// O(n) per center that is not a head; plus sorting the O(k*ell)
// candidates, O(log(k*ell)) radius tests for the search and up to two per
// head, and one matching, all on at most k heads — matching the "linear in
// k and n" claim of [13].
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
