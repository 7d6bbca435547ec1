// The fairness constraint of the paper: at most k_i centers of color i, for
// each of the ell colors. This is the single source of truth for feasibility
// checks across sequential solvers, the sliding-window core, and the tests.
#ifndef FKC_SEQUENTIAL_COLOR_CONSTRAINT_H_
#define FKC_SEQUENTIAL_COLOR_CONSTRAINT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "metric/point.h"

namespace fkc {

/// Per-color cardinality caps k_1..k_ell with k = sum k_i.
class ColorConstraint {
 public:
  ColorConstraint() = default;

  /// `caps[i]` is the maximum number of centers of color i. Caps must be
  /// non-negative, and their sum k at most INT_MAX (FKC_CHECK); zero
  /// disables a color entirely.
  explicit ColorConstraint(std::vector<int> caps);

  /// The constructor, with its preconditions tested first:
  /// kInvalidArgument for a negative cap or caps summing past INT_MAX.
  static Result<ColorConstraint> Create(std::vector<int> caps);

  /// Uniform caps: `ell` colors, each allowed `cap_per_color` centers.
  static ColorConstraint Uniform(int ell, int cap_per_color);

  /// Caps proportional to the color frequencies in `points`, normalized so
  /// that the total equals `total_k` (the paper uses total_k = 14 with caps
  /// proportional to the global color distribution). Every color that occurs
  /// receives at least one slot when total_k >= #occurring colors.
  static ColorConstraint Proportional(const std::vector<Point>& points,
                                      int ell, int total_k);

  int ell() const { return static_cast<int>(caps_.size()); }
  int cap(int color) const { return caps_[color]; }
  const std::vector<int>& caps() const { return caps_; }

  /// k = sum of caps — the rank of the induced partition matroid.
  int TotalK() const { return total_k_; }

  /// True when `points`, interpreted as a center set, respects every cap.
  /// Points with colors outside [0, ell) make the set infeasible.
  bool IsFeasible(const std::vector<Point>& points) const;

  /// OK when `points` is valid input to a sequential solver: every color in
  /// [0, ell) and one dimension throughout. kInvalidArgument names the
  /// first offending point.
  Status CheckSolverInput(const std::vector<Point>& points) const;

  /// Per-color counts of `points`; colors outside range are dropped.
  std::vector<int> CountColors(const std::vector<Point>& points) const;

  std::string ToString() const;

 private:
  std::vector<int> caps_;
  int total_k_ = 0;
};

}  // namespace fkc

#endif  // FKC_SEQUENTIAL_COLOR_CONSTRAINT_H_
