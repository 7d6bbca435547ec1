// The naive full-window baseline: stores the window verbatim and answers
// queries by running a sequential solver on all of it. This is how the paper
// evaluates ChenEtAl and Jones in the sliding-window setting, and it doubles
// as ground truth for the streaming algorithm's radius in tests.
#ifndef FKC_STREAM_REFERENCE_WINDOW_H_
#define FKC_STREAM_REFERENCE_WINDOW_H_

#include <deque>

#include "common/status.h"
#include "sequential/color_constraint.h"
#include "sequential/fair_center_solver.h"

namespace fkc {

/// A verbatim sliding window of the last n points.
class ReferenceWindow {
 public:
  explicit ReferenceWindow(int64_t window_size);

  /// Appends the next stream point, evicting the oldest when full. The
  /// point's arrival/id metadata is kept as provided.
  void Update(Point p);

  /// Materializes the current window contents, oldest first.
  std::vector<Point> Snapshot() const;

  /// Runs `solver` on the entire window — the baseline query.
  Result<FairCenterSolution> Query(const Metric& metric,
                                   const FairCenterSolver& solver,
                                   const ColorConstraint& constraint) const;

  int64_t size() const { return static_cast<int64_t>(buffer_.size()); }
  int64_t window_size() const { return window_size_; }

  /// Memory in the paper's unit: every window point is stored.
  int64_t MemoryPoints() const { return size(); }

 private:
  int64_t window_size_;
  std::deque<Point> buffer_;
};

}  // namespace fkc

#endif  // FKC_STREAM_REFERENCE_WINDOW_H_
