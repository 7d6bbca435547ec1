// Exact (exponential-time) solvers used as ground truth in tests and in the
// approximation-ratio property suites. Never use these outside tests: they
// enumerate center combinations.
#ifndef FKC_SEQUENTIAL_BRUTE_FORCE_H_
#define FKC_SEQUENTIAL_BRUTE_FORCE_H_

#include "sequential/color_constraint.h"
#include "sequential/fair_center_solver.h"

namespace fkc {

/// The most points the exact solvers take.
constexpr size_t kMaxBruteForcePoints = 64;

/// Exact fair center: enumerates, per color, all combinations of
/// min(cap_i, count_i) points (adding centers never increases the radius, so
/// an optimal solution of maximal per-color size always exists) and takes the
/// best cartesian combination. kInvalidArgument above kMaxBruteForcePoints
/// points; kOutOfRange when no candidate's radius is finite (every choice
/// leaves some distance that overflows), as a window answers such a query.
Result<FairCenterSolution> BruteForceFairCenter(
    const Metric& metric, const std::vector<Point>& points,
    const ColorConstraint& constraint);

/// Exact unconstrained k-center: enumerates all size-min(k,n) subsets, with
/// BruteForceFairCenter's errors.
Result<FairCenterSolution> BruteForceKCenter(const Metric& metric,
                                             const std::vector<Point>& points,
                                             int k);

/// FairCenterSolver adapter around BruteForceFairCenter (alpha = 1).
class BruteForceSolver final : public FairCenterSolver {
 public:
  Result<FairCenterSolution> Solve(
      const Metric& metric, const std::vector<Point>& points,
      const ColorConstraint& constraint) const override {
    return BruteForceFairCenter(metric, points, constraint);
  }
  double ApproximationFactor() const override { return 1.0; }
  std::string Name() const override { return "BruteForce"; }
};

}  // namespace fkc

#endif  // FKC_SEQUENTIAL_BRUTE_FORCE_H_
