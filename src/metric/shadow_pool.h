// A float32 shadow of a ColoredPool's coordinates, for traversals whose
// rows stream a pool larger than the caches.
//
// A Gonzalez traversal (sequential/gonzalez.h) reads its pool once per
// head. On a covtype coreset (~9,900 points, d = 54) each exact row streams
// ~4.3 MB of doubles from L3; a float copy is half that, about the size of
// L2. The shadow is that copy, centred: head 0's exact pass (Fill) also
// stores each coordinate's difference to head 0 as a float, in the pool's
// block layout, one float block per block span of the pool. Later heads
// scan the shadow (Row) with the float kernels of simd_kernels.h.
//
// A shadow row is not the exact row: each entry lies within error() of the
// distance Metric::Distance computes for its pair. The bound is proven in
// shadow_pool.cc from R, the largest entry of head 0's exact row, which
// bounds every centred coordinate. A caller that reads shadow rows
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
// Fill declines (returns false) when R makes float32 unsafe: R too large
// for float's range (or not finite), or so small that the bound is no
// finer than R itself. The fill kernels store 0 for a difference outside
// float's range, so every conversion is defined either way.
#ifndef FKC_METRIC_SHADOW_POOL_H_
#define FKC_METRIC_SHADOW_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "metric/colored_pool.h"
#include "metric/coordinate_pool.h"
#include "metric/metric.h"
#include "metric/point.h"
#include "metric/simd_kernels.h"

namespace fkc {

class ShadowPool {
 public:
  /// A pool gets a shadow when its coordinates take more than this many
  /// bytes. On covtype coresets a nine-head traversal on the shadow breaks
  /// even with exact rows between 250 and 2,000 points (0.1-0.9 MB) at
  /// every kernel width (measured on a 4-vCPU AVX-512 VM; CHANGES.md).
  static constexpr size_t kMinBytes = size_t{1} << 20;
  /// The most candidates one decision resolves before its caller goes back
  /// to exact rows.
  static constexpr size_t kMaxCandidates = 64;
  /// Floats between consecutive rows of a shadow block. Every block starts
  /// its span at lane 0, so a span of at most kBlockLanes columns is
  /// readable up to RoundUpToShadowLanes(count) floats without slack.
  static constexpr size_t kRowStride = CoordinatePool::kBlockLanes;

  /// True when `metric` is a built-in metric and `pool`'s coordinates take
  /// more than kMinBytes.
  static bool Serves(const Metric& metric, const ColoredPool& pool);

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

  /// One pass of `metric`'s fill kernel over `pool` (`metric` must be a
  /// built-in metric): row[s] is DistanceRow(metric, head, row)'s, bit for
  /// bit, and the shadow holds every slot's coordinates centred on `head`.
  /// Returns whether the shadow is usable; when it is not, only the row is.
  bool Fill(const Metric& metric, const ColoredPool& pool, const Point& head,
            double* row);

  /// The bound on |Row(...)[s] - metric.Distance| of a usable shadow.
  double error() const { return error_; }

  /// row[s], for every slot s of the pool, lies within error() of the
  /// metric's Distance between the coordinates in `slot` and in slot s.
  /// The same in either order, bit for bit.
  void Row(size_t slot, ScanOrder order, double* row);

 private:
  struct Span {
    size_t first;  // slot of the block's first column
    size_t count;
  };
  struct FreeFloats {
    void operator()(float* p) const {
      ::operator delete[](p, std::align_val_t{64});
    }
  };

  const float* Block(size_t k) const {
    return data_.get() + k * dim_ * kRowStride;
  }

  simd::ShadowKernel kernel_ = nullptr;
  size_t dim_ = 0;
  double error_ = 0.0;
  std::vector<Span> spans_;  // span k is block k, in forward order
  std::unique_ptr<float[], FreeFloats> data_;
  size_t capacity_ = 0;       // floats data_ holds
  std::vector<float> query_;  // Row's centred head
};

}  // namespace fkc

#endif  // FKC_METRIC_SHADOW_POOL_H_
