// An exact pivot index over a guess's c-attractor pool: the range query of
// the c-phase (every c-attractor within r = delta * gamma / 2 of the
// arrival) without a distance to most of the pool.
//
// The paper works in a general metric space, so the triangle inequality is
// the only tool a filter may use (LAESA pivots): for pivots pi_j,
//   d(p, a) >= max_j |d(p, pi_j) - d(a, pi_j)|,
// so a c-attractor whose bound exceeds r needs no distance at all.
//
// Layout.   kPivots pivots, picked farthest-first from the pool when the
//           index is built; their coordinates are copied, so a pivot may
//           leave the window. Each c-attractor a has a row e(a) of its
//           pivot distances, filed in a bucket keyed by floor(e_0(a) / w),
//           w = r / 2. A bucket holds its rows dim-major in a CoordinatePool
//           of dimension kPivots + 1: the pivot distances, then the row's
//           sequence number (below). The bound is the Chebyshev distance
//           of the first kPivots coordinates, so the filter is the built-in
//           bounded Chebyshev kernel over those rows of each block. A query
//           visits only the buckets whose key range can hold a row within
//           the bound of its own e_0.
//
// Order.    The owner appends in arrival order and removes oldest-first,
//           like its CoordinatePool, so each removal pops the front of one
//           bucket. A ring of bucket keys, one per position, and a running
//           count of dropped positions keep the rows in step: a row is known
//           by its sequence number, dropped + position (exact as a double
//           below 2^53).
//
// Margin.   Computed distances are not exact distances, so the bound must
//           allow for rounding. The metric states its error (Metric::
//           RoundingError): every finite computed distance D' of exact
//           distance D has |D' - D| <= rho D + sigma, with rho <= 1/4 (the
//           index refuses a larger rho). Let a be in range, D'(p, a) <= r,
//           and let e_p = D'(p, pi), e_a = D'(a, pi) be finite. Then
//           D <= (D' + sigma) / (1 - rho), and with k = (1 + rho)/(1 - rho):
//             e_p <= (1 + rho) (D(p, a) + D(a, pi)) + sigma
//                 <= k (r + 2 sigma) + k e_a + sigma,
//           and the same with p and a swapped. Whichever of e_p, e_a is the
//           larger, the difference is at most k (r + 2 sigma) + (k - 1) e_p
//           + sigma, and k - 1 <= 3 rho, so with E = max_j e_p_j:
//             |e_p - e_a| <= r + 3 sigma + 3 rho (r + 2 sigma + E) =: b*.
//           Probe evaluates b* in floating point, scales it by 1 + 2^-40
//           (more than the relative error of its eight operations) and steps
//           it up two doubles (more than the absolute error of its products
//           in the subnormal range), so b >= b*. Rounding is monotone, so
//           fl(|e_p - e_a|) <= b for every pivot, and the bounded Chebyshev
//           scan, which is exact at or below its bound, keeps a. The bucket
//           keys are monotone in e_0 for the same reason: fl(e_p_0 - b)
//           <= e_a_0 <= fl(e_p_0 + b), and x -> floor(fl(x / w)), clamped,
//           never decreases, so a's bucket lies in the visited key range.
//
// Infinities. A pivot distance can overflow to +inf (coordinates near
//           1e154). An infinite row entry proves nothing, so it must never
//           prune: a c-attractor with one is a "wild" row, filed in a
//           bucket of its own and returned as a candidate on every query,
//           and an arrival with one
//           (or with an infinite margin) is not filtered at all (Probe
//           returns false and the caller scans the whole pool).
//
// Lifecycle. The index is derived state: it is never serialized, a restore
//           drops it, and its owner builds it lazily (guess_structure.h).
//           Candidates are verified with the exact metric, so the index
//           changes which distances are computed, never what the c-phase
//           decides.
#ifndef FKC_CORE_PIVOT_INDEX_H_
#define FKC_CORE_PIVOT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "metric/coordinate_pool.h"
#include "metric/metric.h"
#include "metric/point.h"

namespace fkc {

class PivotIndex {
 public:
  static constexpr size_t kPivots = 8;

  /// An owner builds its index when its pool reaches this many columns and
  /// drops it below a quarter of that. Measured with BM_CPhaseIndex on the
  /// covtype dense guess (d = 54, a 4-vCPU AVX-512 VM): at 256 columns the
  /// index and the bounded scan cost about the same (0.35-0.42 against
  /// 0.44-0.48 us per arrival), at 1,024 the index is 2.6x faster. A build
  /// costs nine scans of the pool, so the threshold sits above the
  /// crossover. A phones pool at the fleet's settings (d = 3) never holds
  /// more than ~240 columns, so the fleet keeps the scan.
  static constexpr size_t kBuildColumns = 1024;
  static constexpr size_t kTeardownColumns = kBuildColumns / 4;

  bool built() const { return metric_ != nullptr; }

  /// Builds the index over `pool`, whose position i becomes row i, for
  /// queries of radius `range`. The rows are `metric`'s distances, and
  /// Probe uses it too. Leaves the index unbuilt, and returns false, when
  /// the metric states no rounding error (or one above 1/4) or the bucket
  /// width r / 2 is not a positive finite double.
  bool Build(const Metric& metric, const CoordinatePool& pool, double range);

  /// Drops everything (unbuilt).
  void Clear();

  /// Computes the pivot row of `p`, the row Append files next. Returns
  /// false when that row or its margin is not finite: the index then
  /// proves nothing for p, and the caller must scan every position.
  bool Probe(const Point& p);

  /// The positions that the last successful Probe's point may lie within
  /// range of, bucket by bucket (not sorted): every position it does lie
  /// within range of is among them.
  const std::vector<size_t>& Candidates();

  /// Files the last probed row at position size().
  void Append();

  /// Removes positions [0, n), as CoordinatePool::DropFront.
  void DropFront(size_t n);

  size_t size() const { return keys_.size() - keys_head_; }

 private:
  struct Bucket {
    int64_t key;
    CoordinatePool rows;  // dim kPivots + 1, one column per row
  };

  /// The bucket key of a first-pivot distance x: floor(x / w), clamped.
  int64_t Key(double x) const;

  /// The bucket of `key`, inserted empty if absent.
  Bucket& BucketFor(int64_t key);

  /// Index in buckets_ of the first bucket whose key is >= key.
  size_t LowerBound(int64_t key) const;

  const Metric* metric_ = nullptr;
  double range_ = 0.0;
  double width_ = 0.0;
  DistanceError error_{0.0, 0.0};

  CoordinatePool pivots_;      // kPivots columns of the data's dimension
  std::vector<double> row_;    // the last probed row
  double margin_ = 0.0;        // b for the last probed row
  std::vector<Bucket> buckets_;  // ascending by key
  std::vector<int64_t> keys_;  // bucket key per position, from keys_head_
  size_t keys_head_ = 0;
  int64_t dropped_ = 0;        // positions removed since the build

  std::vector<double> scratch_;
  std::vector<size_t> candidates_;
};

}  // namespace fkc

#endif  // FKC_CORE_PIVOT_INDEX_H_
