// Abstract interface for sequential fair-center algorithms. The sliding
// window Query procedure (Algorithm 3 of the paper) is parameterized by a
// solver "A": the approximation of the streaming algorithm is alpha + epsilon
// where alpha is the solver's guarantee. A query hands the solver the
// chosen guess's coreset as one ColoredPool (SolvePool); Solve over a
// vector of Points is the entry point for every other caller.
#ifndef FKC_SEQUENTIAL_FAIR_CENTER_SOLVER_H_
#define FKC_SEQUENTIAL_FAIR_CENTER_SOLVER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "metric/colored_pool.h"
#include "metric/metric.h"
#include "metric/point.h"
#include "sequential/color_constraint.h"
#include "sequential/radius.h"

namespace fkc {

/// A sequential fair-center algorithm: given a point set and color caps,
/// returns a center set that respects every cap.
class FairCenterSolver {
 public:
  virtual ~FairCenterSolver() = default;

  /// Computes a fair center set for `points`. Returns kInfeasible when no
  /// non-empty feasible center set exists (e.g. every occurring color has a
  /// zero cap) and the input is non-empty. An empty input yields an empty
  /// solution with radius 0.
  virtual Result<FairCenterSolution> Solve(
      const Metric& metric, const std::vector<Point>& points,
      const ColorConstraint& constraint) const = 0;

  /// Solve over a point set held as a ColoredPool, with the same answers
  /// (bit for bit) and the same errors as Solve(metric, pool.ToPoints(),
  /// constraint) — which is what this default runs, so a solver that
  /// overrides only Solve (a decorator, say) stays correct and pays one
  /// materialization. Solvers that read a pool natively override it.
  virtual Result<FairCenterSolution> SolvePool(
      const Metric& metric, const ColoredPool& pool,
      const ColorConstraint& constraint) const {
    return Solve(metric, pool.ToPoints(), constraint);
  }

  /// Worst-case approximation factor of the algorithm (for documentation and
  /// for the delta = eps / ((1+beta)(1+2*alpha)) parameter rule).
  virtual double ApproximationFactor() const = 0;

  virtual std::string Name() const = 0;
};

}  // namespace fkc

#endif  // FKC_SEQUENTIAL_FAIR_CENTER_SOLVER_H_
