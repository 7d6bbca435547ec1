// Abstract interface for sequential fair-center algorithms. The sliding
// window Query procedure (Algorithm 3 of the paper) is parameterized by a
// solver "A": the approximation of the streaming algorithm is alpha + epsilon
// where alpha is the solver's guarantee.
#ifndef FKC_SEQUENTIAL_FAIR_CENTER_SOLVER_H_
#define FKC_SEQUENTIAL_FAIR_CENTER_SOLVER_H_

#include <string>
#include <vector>

#include "common/status.h"
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

  /// Worst-case approximation factor of the algorithm (for documentation and
  /// for the delta = eps / ((1+beta)(1+2*alpha)) parameter rule).
  virtual double ApproximationFactor() const = 0;

  virtual std::string Name() const = 0;
};

}  // namespace fkc

#endif  // FKC_SEQUENTIAL_FAIR_CENTER_SOLVER_H_
