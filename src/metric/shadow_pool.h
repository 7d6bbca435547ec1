// Float32 shadow rows of a ColoredPool, for traversals whose rows stream a
// pool larger than the caches.
//
// A Gonzalez traversal (sequential/gonzalez.h) reads its pool once per
// head. On a covtype coreset (~9,900 points, d = 54) each exact row streams
// ~4.3 MB of doubles from L3; a float copy is half that, about the size of
// L2. A CoordinatePool past CoordinatePool::kTwinMinBytes keeps that copy
// as it grows: its twin, each coordinate centred on a reference column
// (coordinate_pool.h). A ColoredPool that borrows such a pool writes its
// copied columns' twin against the same reference, so the two twins read
// as one. A ShadowPool is a view over those twins: it owns no buffer, and
// every head's row (Row) is a scan of the twins with the float kernels of
// simd_kernels.h.
//
// A shadow row is not the exact row: each entry lies within error() of the
// distance Metric::Distance computes for its pair. The bound is proven in
// shadow_pool.cc from T, a bound on every column's distance to the
// reference that the twins' extents give. A caller that reads shadow rows
// resolves each decision exactly: every slot whose shadow value lies
// within 2 * error() of the decisive one is a candidate, and Distance
// decides among the candidates (ResolveFarthest, for the farthest point
// of a fold of rows). When more than kMaxCandidates slots are that
// close (a lattice of equal distances), the caller goes back to exact rows
// instead.
//
// Only the three built-in metrics (EuclideanMetric, ManhattanMetric and
// ChebyshevMetric, all final) have shadow kernels; every other metric,
// decorators included, reads exact rows.
//
// Create declines when T makes float32 unsafe: T too large for float's
// range (or not finite), or so small that the bound is no finer than T
// itself. A twin stores 0 for a difference outside float's range and
// records it in its extent as +inf, so every conversion is defined either
// way.
#ifndef FKC_METRIC_SHADOW_POOL_H_
#define FKC_METRIC_SHADOW_POOL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "metric/colored_pool.h"
#include "metric/coordinate_pool.h"
#include "metric/metric.h"
#include "metric/point.h"
#include "metric/simd_kernels.h"

namespace fkc {

class ShadowPool {
 public:
  /// The most candidates one decision resolves before its caller goes back
  /// to exact rows.
  static constexpr size_t kMaxCandidates = 64;

  /// True when `metric` is a built-in metric and every CoordinatePool that
  /// `pool` scans keeps a twin (on one reference: ColoredPool::Builder
  /// centres copies on the borrowed pool's).
  static bool Serves(const Metric& metric, const ColoredPool& pool);

  /// The shadow view of `pool` (which must outlive it) when Serves holds
  /// and the twins' extent makes float32 safe; nullopt otherwise.
  static std::optional<ShadowPool> Create(const Metric& metric,
                                          const ColoredPool& pool);

  /// The candidates of a shadow row's decisions: the slots s in
  /// [0, count), in slot order, with nearest[s] >= far_bound or, when
  /// `color` is not null, row[s] <= bound[color[s]] (`row` and `bound` are
  /// not read when it is). Writes them to `out` while there are at most
  /// `limit` and returns how many there are, or limit + 1 as soon as there
  /// are more.
  static size_t Candidates(const double* row, const double* nearest,
                           const int* color, const double* bound,
                           size_t count, double far_bound, size_t limit,
                           size_t* out);

  /// The exact farthest point of a fold of rows that each lie within
  /// error() of the exact rows of `centers`: nearest[s] is slot s's folded
  /// distance, position[s] its point, and `candidates` (at most
  /// kMaxCandidates, in slot order) the slots whose folded distance lies
  /// within 2 * error() of the fold's farthest, as Candidates finds them.
  /// Each candidate gets its exact distance to the centers, the least
  /// metric.Distance in center order, in nearest[s]; the farthest of
  /// those, with the lowest position among equals
  /// (simd::internal::KeepFarthest), is the exact rows' fold's farthest
  /// point, bit for bit. Adds the Distance calls to `*pairs`.
  static simd::Farthest ResolveFarthest(const Metric& metric,
                                        const ColoredPool& pool,
                                        const std::vector<Point>& centers,
                                        const int* position,
                                        const size_t* candidates,
                                        size_t count, double* nearest,
                                        int64_t* pairs);

  /// The bound on |Row(...)[s] - metric.Distance|.
  double error() const { return error_; }

  /// row[s], for every slot s of the pool, lies within error() of the
  /// metric's Distance between the coordinates in `slot` and in slot s.
  /// The same in either order, bit for bit.
  void Row(size_t slot, ScanOrder order, double* row);

 private:
  ShadowPool(const ColoredPool& pool, simd::ShadowKernel kernel)
      : pool_(&pool), kernel_(kernel), query_(pool.dim()) {}

  const ColoredPool* pool_;
  simd::ShadowKernel kernel_;
  double error_ = 0.0;
  std::vector<float> query_;  // Row's head, its twin column
};

}  // namespace fkc

#endif  // FKC_METRIC_SHADOW_POOL_H_
