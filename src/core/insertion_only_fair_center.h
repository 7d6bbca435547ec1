// Insertion-only streaming fair center, after the massive-data-model line
// the paper builds on (Chiplunkar, Kale & Ramamoorthy, ICML 2020 [16];
// doubling-style coresets go back to McCutchen-Khuller and [4, 11]). This is
// the substrate the sliding-window algorithm improves upon: one pass, no
// deletions, O(k * |Gamma|) stored points, (3 + eps)-approximate queries —
// but *prefix* semantics: it summarizes everything since the beginning and
// cannot forget, which is exactly what the sliding-window model fixes (see
// examples/concept_drift.cpp for the contrast).
//
// Scheme:
//   * Buffer the first arrivals until k+1 points with a non-zero minimum
//     pairwise distance d_min exist. For unconstrained k-center, two of any
//     k+1 points must share an optimal center, so OPT >= d_min / 2 — and in
//     insertion-only streams OPT only grows. Queries during buffering are
//     answered exactly on the buffer.
//   * Instantiate the guess ladder from d_min/2 upward; seed every guess by
//     replaying the buffer. Per guess gamma: attractors pairwise > 2*gamma,
//     each holding a maximal independent set (per-color caps, first-come)
//     of the points it attracted.
//   * A guess with k+1 attractors certifies OPT > gamma and dies — forever,
//     by monotonicity. When the top guess dies, a doubled guess is spawned,
//     seeded by replaying the dying guess's stored points (the classic
//     re-clustering step).
//   * Query: the smallest alive guess's stored points form the coreset; the
//     sequential solver A runs on it.
#ifndef FKC_CORE_INSERTION_ONLY_FAIR_CENTER_H_
#define FKC_CORE_INSERTION_ONLY_FAIR_CENTER_H_

#include <map>
#include <vector>

#include "common/status.h"
#include "core/attractor_set.h"
#include "core/guess_ladder.h"
#include "core/memory_footprint.h"
#include "metric/metric.h"
#include "sequential/color_constraint.h"
#include "sequential/fair_center_solver.h"

namespace fkc {

/// Configuration of the insertion-only summary.
struct InsertionOnlyOptions {
  /// Guess ladder progression (consecutive guesses differ by 1 + beta).
  double beta = 2.0;
};

/// One-pass insertion-only fair-center summary.
class InsertionOnlyFairCenter {
 public:
  /// `metric` and `solver` must outlive this object.
  InsertionOnlyFairCenter(InsertionOnlyOptions options,
                          ColorConstraint constraint, const Metric* metric,
                          const FairCenterSolver* solver);

  /// Consumes the next stream point. An arrival breaking ValidateArrival's
  /// rules (the pinned dimension is that of the first accepted arrival)
  /// fails with kInvalidArgument and is not consumed.
  Status Update(Coordinates coords, int color);
  Status Update(Point p);

  /// A fair-center solution for *all points seen so far*.
  Result<FairCenterSolution> Query();

  /// Stored points (buffer or ladder structures).
  MemoryStats Memory() const;

  /// Points consumed so far.
  int64_t count() const { return count_; }

  /// Number of alive guesses (diagnostics; 0 while buffering).
  int64_t AliveGuesses() const { return static_cast<int64_t>(guesses_.size()); }

 private:
  struct GuessState {
    AttractorList entries;
  };

  /// Moves from the buffering phase to the ladder phase.
  void ActivateLadder();

  /// Inserts `p` into one guess; returns false if the guess must die
  /// (attractor count exceeded k).
  bool InsertIntoGuess(GuessState* state, double gamma, const Point& p);

  /// All points stored by a guess, attractors first.
  std::vector<Point> StoredPoints(const GuessState& state) const;

  /// Kills dead guesses from below and spawns doubled guesses above until
  /// the top guess is alive.
  void PruneAndExtend();

  InsertionOnlyOptions options_;
  ColorConstraint constraint_;
  const Metric* metric_;
  const FairCenterSolver* solver_;
  GuessLadder ladder_;

  /// Buffering phase: the first arrivals, exact.
  bool buffering_ = true;
  std::vector<Point> buffer_;

  /// Ladder phase: alive guesses by exponent.
  std::map<int, GuessState> guesses_;

  int64_t count_ = 0;
  uint64_t next_id_ = 1;
  int64_t dimension_ = -1;  // of the accepted arrivals; -1 before the first
};

}  // namespace fkc

#endif  // FKC_CORE_INSERTION_ONLY_FAIR_CENTER_H_
