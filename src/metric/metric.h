// Metric abstraction. The algorithms in this library work in arbitrary metric
// spaces; all geometry flows through this interface so swapping the distance
// swaps the space.
#ifndef FKC_METRIC_METRIC_H_
#define FKC_METRIC_METRIC_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "metric/coordinate_pool.h"
#include "metric/point.h"
#include "metric/simd_kernels.h"

namespace fkc {

/// A metric's statement of how far its computed distances may stray from
/// the exact ones (Metric::RoundingError).
struct DistanceError {
  double relative;
  double absolute;
};

/// Distance oracle over Points. Implementations must satisfy the metric
/// axioms (identity, symmetry, triangle inequality) — the approximation
/// guarantees of every algorithm in this library depend on them.
class Metric {
 public:
  virtual ~Metric() = default;

  /// d(a, b). Points of differing dimensionality are a caller bug.
  virtual double Distance(const Point& a, const Point& b) const = 0;

  /// Batched scan over scattered points: out[i] = d(p, *points[i]) for i in
  /// [0, count). The library itself scans pools through DistanceSoA; this
  /// scalar virtual loop remains as a seam for decorators.
  ///
  /// Contract: every out[i] must be bit-identical to Distance(p, *points[i])
  /// — an override may interleave pairs but must keep each pair's
  /// accumulation order unchanged.
  virtual void DistanceMany(const Point& p, const Point* const* points,
                            size_t count, double* out) const;

  /// Structure-of-arrays kernel for the streaming hot loop: out[i] = d(p,
  /// pool column i) for every dense position i in [0, pool.size()). The
  /// dim-major, block-chained CoordinatePool layout lets the built-in metrics
  /// dispatch to the vectorized kernels in simd_kernels.h; the base
  /// implementation gathers each column and calls Distance, so custom
  /// metrics stay correct without opting in — PROVIDED the metric depends on
  /// coordinates only. The pool stores no color/arrival/id, so a Distance
  /// that consults those fields must override DistanceSoA itself (the
  /// streaming core routes all attractor scans through here).
  ///
  /// Contract: identical to DistanceMany — every out[i] must be bit-identical
  /// to Distance(p, column i). The SIMD kernels honor this by giving each
  /// vector lane exactly one pair and accumulating that pair's terms in
  /// ascending dimension order (see simd_kernels.h).
  virtual void DistanceSoA(const Point& p, const CoordinatePool& pool,
                           double* out) const;

  /// DistanceSoA with the pool's blocks visited in `order`: out[i] is
  /// DistanceSoA's out[i], bit for bit, in either order (each lane owns one
  /// pair, so the order moves no rounding). A caller that alternates the
  /// order between consecutive scans of one pool reads the blocks the
  /// previous scan left in cache first. The base implementation is the
  /// forward DistanceSoA, so a decorator or custom metric that overrides
  /// only DistanceSoA stays correct without opting in; it scans forward.
  virtual void DistanceSoAOrdered(const Point& p, const CoordinatePool& pool,
                                  ScanOrder order, double* out) const;

  /// Bounded SoA scan, for callers that only need the columns within
  /// `bound`: out[i] is bit-identical to DistanceSoA's wherever that
  /// distance is <= bound, and !(out[i] <= bound) everywhere else. The base
  /// implementation is the exact DistanceSoA, so any metric (and any
  /// decorator that overrides only DistanceSoA) satisfies the contract. The
  /// built-in metrics run the bounded kernels of simd_kernels.h, which stop
  /// reading a lane block once its partials prove it past the bound.
  virtual void DistanceSoAWithin(const Point& p, const CoordinatePool& pool,
                                 double bound, double* out) const;

  /// Multi-row SoA scan: row r of `out` (at out + r * out_stride, with
  /// out_stride >= pool.size()) is DistanceSoA(rows[r], pool), bit for bit,
  /// for r in [0, row_count). The base implementation is that loop, so
  /// every decorator and custom metric stays correct without opting in.
  /// The built-in metrics dispatch to the tile kernels in simd_kernels.h,
  /// which read each pool block once for a tile of rows instead of once per
  /// row.
  virtual void DistanceSoATile(const Point* rows, size_t row_count,
                               const CoordinatePool& pool, size_t out_stride,
                               double* out) const;

  /// The rounding error of this metric's computed distances between points
  /// of dimension `dim`: whenever a computed Distance(a, b) (and so any SoA
  /// value, which is bit-identical to it) is finite, it lies within
  /// relative * d + absolute of the exact distance d of a and b, and the
  /// exact distance is a metric. Filters that prune by the triangle
  /// inequality (core/pivot_index.h) need this to stay exact; the base
  /// returns nullopt, and a metric that states nothing is never filtered.
  virtual std::optional<DistanceError> RoundingError(size_t dim) const;

  virtual std::string Name() const = 0;
};

/// The built-in metrics of coordinates under a norm, the three final
/// classes below: the SoA scans run the norm's kernels in
/// simd::ActiveKernels() (simd_kernels.h), which reproduce each subclass's
/// scalar Distance bit for bit.
class NormMetric : public Metric {
 public:
  simd::Norm norm() const { return norm_; }

  void DistanceSoA(const Point& p, const CoordinatePool& pool,
                   double* out) const override;
  void DistanceSoAOrdered(const Point& p, const CoordinatePool& pool,
                          ScanOrder order, double* out) const override;
  void DistanceSoAWithin(const Point& p, const CoordinatePool& pool,
                         double bound, double* out) const override;
  void DistanceSoATile(const Point* rows, size_t row_count,
                       const CoordinatePool& pool, size_t out_stride,
                       double* out) const override;

 private:
  friend class EuclideanMetric;
  friend class ManhattanMetric;
  friend class ChebyshevMetric;
  explicit NormMetric(simd::Norm norm) : norm_(norm) {}

  simd::Norm norm_;
};

/// Euclidean (L2) distance.
class EuclideanMetric final : public NormMetric {
 public:
  EuclideanMetric() : NormMetric(simd::Norm::kEuclidean) {}
  double Distance(const Point& a, const Point& b) const override;
  std::optional<DistanceError> RoundingError(size_t dim) const override;
  std::string Name() const override { return "euclidean"; }
};

/// Manhattan (L1) distance.
class ManhattanMetric final : public NormMetric {
 public:
  ManhattanMetric() : NormMetric(simd::Norm::kManhattan) {}
  double Distance(const Point& a, const Point& b) const override;
  std::optional<DistanceError> RoundingError(size_t dim) const override;
  std::string Name() const override { return "manhattan"; }
};

/// Chebyshev (L-infinity) distance.
class ChebyshevMetric final : public NormMetric {
 public:
  ChebyshevMetric() : NormMetric(simd::Norm::kChebyshev) {}
  double Distance(const Point& a, const Point& b) const override;
  std::optional<DistanceError> RoundingError(size_t dim) const override;
  std::string Name() const override { return "chebyshev"; }
};

/// Minimum distance from `p` to any point in `pool`; +inf when pool is empty.
double DistanceToSet(const Metric& metric, const Point& p,
                     const std::vector<Point>& pool);

/// The shared default metric (Euclidean), used when callers do not care.
const Metric& DefaultMetric();

}  // namespace fkc

#endif  // FKC_METRIC_METRIC_H_
