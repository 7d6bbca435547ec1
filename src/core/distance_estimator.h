// Sliding-window distance-range estimation for the aspect-ratio-oblivious
// variant (OursOblivious in the paper's experiments).
//
// The paper obtains running estimates of d_min and d_max for the current
// window "by means of the techniques of [8], based on a sliding-window
// diameter-estimation algorithm", and then considers only guesses inside
// [d_min, d_max]. We follow the same blueprint with an O(log Delta)-state
// witness tracker:
//
//   Every distance the algorithm evaluates between the arriving point and a
//   stored active point (plus the distance to the immediately preceding
//   arrival, which bootstraps the tracker) is an observation between two
//   points that are both alive *now*. Observations are bucketed by guess
//   exponent; each bucket remembers the last observation time. A bucket
//   whose witness is older than one window length cannot correspond to a
//   live pair any more (both endpoints arrived before the observation, so
//   they have expired) and is dropped.
//
// The reported range [d_min_est, d_max_est] therefore never underestimates
// how long a distance scale stays relevant, and overshoots by at most one
// window length after the witnessing pair expires — which costs a transient
// sliver of memory, never correctness. Fresh scales entering the window are
// picked up as soon as any arriving point witnesses them.
#ifndef FKC_CORE_DISTANCE_ESTIMATOR_H_
#define FKC_CORE_DISTANCE_ESTIMATOR_H_

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/guess_ladder.h"
#include "core/guess_structure.h"

namespace fkc {

/// Tracks which guess exponents are witnessed by pairs of currently-active
/// points.
class WindowDistanceEstimator final : public DistanceObserver {
 public:
  /// The ladder is copied (two doubles), keeping the estimator
  /// self-contained and safely movable.
  WindowDistanceEstimator(const GuessLadder& ladder, int64_t window_size);

  /// Sets the logical time of subsequent observations.
  void BeginStep(int64_t now) { now_ = now; }

  /// Records one distance between two points active at the current step.
  /// Zero and NaN distances are ignored (they carry no scale information);
  /// +inf lands in the ladder's InfiniteExponent() bucket.
  void ObserveDistance(double distance) override;

  /// The smallest and largest witnessed exponents among live buckets, or
  /// nullopt when no non-zero distance was observed within the current
  /// window.
  std::optional<std::pair<int, int>> Range() const;

  /// Number of live buckets (diagnostics).
  int64_t LiveBuckets() const;

  /// Checkpoint support: dumps / restores the witness buckets verbatim.
  std::vector<std::pair<int, int64_t>> DumpBuckets() const;
  void RestoreBuckets(const std::vector<std::pair<int, int64_t>>& buckets,
                      int64_t now);

 private:
  /// Removes buckets whose last witness left the window. O(1) while the
  /// watermark proves every bucket live; otherwise one pass over the
  /// buckets, which also resets the watermark.
  void EvictStale() const;

  GuessLadder ladder_;
  int64_t window_size_;
  int64_t now_ = 0;
  /// exponent -> last observation time.
  mutable std::map<int, int64_t> last_seen_;
  /// A lower bound on every bucket's last observation time (INT64_MAX when
  /// there are none). Observations only raise a bucket's time, so it stays
  /// a bound until an eviction pass or a restore recomputes it exactly.
  mutable int64_t oldest_seen_ = INT64_MAX;
};

}  // namespace fkc

#endif  // FKC_CORE_DISTANCE_ESTIMATOR_H_
