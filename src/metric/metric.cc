#include "metric/metric.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "metric/coordinate_pool.h"
#include "metric/simd_kernels.h"

namespace fkc {

void Metric::DistanceMany(const Point& p, const Point* const* points,
                          size_t count, double* out) const {
  for (size_t i = 0; i < count; ++i) out[i] = Distance(p, *points[i]);
}

void Metric::DistanceSoA(const Point& p, const CoordinatePool& pool,
                         double* out) const {
  // Generic fallback: gather each dim-major column back into a point and go
  // through the virtual Distance. One scratch point reused across columns.
  if (pool.empty()) return;  // a never-filled pool has no dimension yet
  FKC_CHECK_EQ(p.coords.size(), pool.dim());
  Point scratch;
  scratch.coords.resize(pool.dim());
  for (size_t i = 0; i < pool.size(); ++i) {
    for (size_t d = 0; d < pool.dim(); ++d) {
      scratch.coords[d] = pool.At(i, d);
    }
    out[i] = Distance(p, scratch);
  }
}

void Metric::DistanceSoAOrdered(const Point& p, const CoordinatePool& pool,
                                ScanOrder /*order*/, double* out) const {
  DistanceSoA(p, pool, out);
}

void Metric::DistanceSoAWithin(const Point& p, const CoordinatePool& pool,
                               double /*bound*/, double* out) const {
  DistanceSoA(p, pool, out);
}

void Metric::DistanceSoATile(const Point* rows, size_t row_count,
                             const CoordinatePool& pool, size_t out_stride,
                             double* out) const {
  for (size_t r = 0; r < row_count; ++r) {
    DistanceSoA(rows[r], pool, out + r * out_stride);
  }
}

std::optional<DistanceError> Metric::RoundingError(size_t /*dim*/) const {
  return std::nullopt;
}

namespace {

/// The unit roundoff of double: fl(x op y) = (x op y)(1 + e), |e| <= kUnit,
/// for an op whose exact result is a normal double.
constexpr double kUnit = 0x1p-53;

/// Shared body of the built-in SoA overrides: dimension check plus one raw
/// kernel call per block of the pool, in `order`, each writing at its
/// block's offset in `out`. `cutoff` is empty for an exact kernel and the
/// scan's cutoff for a bounded one.
template <typename Kernel, typename... Cutoff>
inline void RunSoAKernel(Kernel kernel, const Point& p,
                         const CoordinatePool& pool, ScanOrder order,
                         double* out, Cutoff... cutoff) {
  if (pool.empty()) return;  // a never-filled pool has no dimension yet
  FKC_CHECK_EQ(p.coords.size(), pool.dim());
  pool.ForEachSpan(order, [&](const CoordinatePool::Span& span) {
    kernel(p.coords.data(), span.data, CoordinatePool::kRowStride, pool.dim(),
           span.count, cutoff..., out + span.first);
  });
}

/// Shared body of the built-in tile overrides: kMaxTileRows rows at a time,
/// one kernel call per block of the pool for all of them.
void RunTileKernel(simd::TileKernel kernel, const Point* rows,
                   size_t row_count, const CoordinatePool& pool,
                   size_t out_stride, double* out) {
  if (pool.empty()) return;  // a never-filled pool has no dimension yet
  const double* queries[simd::kMaxTileRows];
  for (size_t first = 0; first < row_count; first += simd::kMaxTileRows) {
    const size_t tile = std::min(simd::kMaxTileRows, row_count - first);
    for (size_t r = 0; r < tile; ++r) {
      FKC_CHECK_EQ(rows[first + r].coords.size(), pool.dim());
      queries[r] = rows[first + r].coords.data();
    }
    double* tile_out = out + first * out_stride;
    pool.ForEachSpan([&](const CoordinatePool::Span& span) {
      kernel(queries, tile, span.data, CoordinatePool::kRowStride, pool.dim(),
             span.count, out_stride, tile_out + span.first);
    });
  }
}

/// The cutoff of a bounded scan, computed once per scan. With dim <=
/// kBoundCheckDims no block is ever tested, so it is not computed.
double ScanCutoff(double (*cutoff)(double), double bound,
                  const CoordinatePool& pool) {
  return pool.dim() > simd::kBoundCheckDims ? cutoff(bound) : 0.0;
}

}  // namespace

void EuclideanMetric::DistanceSoA(const Point& p, const CoordinatePool& pool,
                                  double* out) const {
  RunSoAKernel(simd::ActiveKernels().euclidean, p, pool, ScanOrder::kForward,
               out);
}

void EuclideanMetric::DistanceSoAOrdered(const Point& p,
                                         const CoordinatePool& pool,
                                         ScanOrder order, double* out) const {
  RunSoAKernel(simd::ActiveKernels().euclidean, p, pool, order, out);
}

void EuclideanMetric::DistanceSoAWithin(const Point& p,
                                        const CoordinatePool& pool,
                                        double bound, double* out) const {
  RunSoAKernel(simd::ActiveKernels().euclidean_within, p, pool,
               ScanOrder::kForward, out,
               ScanCutoff(simd::SquaredDistanceCutoff, bound, pool));
}

void EuclideanMetric::DistanceSoATile(const Point* rows, size_t row_count,
                                      const CoordinatePool& pool,
                                      size_t out_stride, double* out) const {
  RunTileKernel(simd::ActiveKernels().euclidean_tile, rows, row_count, pool,
                out_stride, out);
}

void ManhattanMetric::DistanceSoA(const Point& p, const CoordinatePool& pool,
                                  double* out) const {
  RunSoAKernel(simd::ActiveKernels().manhattan, p, pool, ScanOrder::kForward,
               out);
}

void ManhattanMetric::DistanceSoAOrdered(const Point& p,
                                         const CoordinatePool& pool,
                                         ScanOrder order, double* out) const {
  RunSoAKernel(simd::ActiveKernels().manhattan, p, pool, order, out);
}

void ManhattanMetric::DistanceSoAWithin(const Point& p,
                                        const CoordinatePool& pool,
                                        double bound, double* out) const {
  RunSoAKernel(simd::ActiveKernels().manhattan_within, p, pool,
               ScanOrder::kForward, out,
               ScanCutoff(simd::DistanceCutoff, bound, pool));
}

void ManhattanMetric::DistanceSoATile(const Point* rows, size_t row_count,
                                      const CoordinatePool& pool,
                                      size_t out_stride, double* out) const {
  RunTileKernel(simd::ActiveKernels().manhattan_tile, rows, row_count, pool,
                out_stride, out);
}

void ChebyshevMetric::DistanceSoA(const Point& p, const CoordinatePool& pool,
                                  double* out) const {
  RunSoAKernel(simd::ActiveKernels().chebyshev, p, pool, ScanOrder::kForward,
               out);
}

void ChebyshevMetric::DistanceSoAOrdered(const Point& p,
                                         const CoordinatePool& pool,
                                         ScanOrder order, double* out) const {
  RunSoAKernel(simd::ActiveKernels().chebyshev, p, pool, order, out);
}

void ChebyshevMetric::DistanceSoAWithin(const Point& p,
                                        const CoordinatePool& pool,
                                        double bound, double* out) const {
  RunSoAKernel(simd::ActiveKernels().chebyshev_within, p, pool,
               ScanOrder::kForward, out,
               ScanCutoff(simd::DistanceCutoff, bound, pool));
}

void ChebyshevMetric::DistanceSoATile(const Point* rows, size_t row_count,
                                      const CoordinatePool& pool,
                                      size_t out_stride, double* out) const {
  RunTileKernel(simd::ActiveKernels().chebyshev_tile, rows, row_count, pool,
                out_stride, out);
}

// The rounding errors below follow the scalar loops of Distance, which the
// SoA kernels reproduce bit for bit. Coordinates are finite, and a finite
// result means no step overflowed. A difference fl(x - y) is
// (x - y)(1 + e): a difference in the subnormal range is exact, so no
// absolute error enters there, nor in a sum of non-negative terms. With
// (1 + kUnit)^m - 1 <= 2 m kUnit for m kUnit <= 1/2:
//   - Manhattan: every term and the sum carry n factors (1 + e), so the
//     relative error is at most 2 n kUnit;
//   - Chebyshev: the max is exact, so only the difference rounds: kUnit;
//   - Euclidean: a square fl(z * z) = z^2 (1 + e) + h with |h| <= 2^-1075
//     (underflow). The sum of squares is then S(1 + t) + H with
//     |t| <= 2 (n + 2) kUnit and |H| <= 2 n 2^-1075, and
//     |sqrt(a + b) - sqrt(a)| <= sqrt(|b|) gives, after the final sqrt,
//     a relative error of (n + 4) kUnit and an absolute one below
//     sqrt(n) 2^-536.
std::optional<DistanceError> EuclideanMetric::RoundingError(size_t dim) const {
  const double n = static_cast<double>(dim);
  return DistanceError{(n + 4.0) * kUnit, std::sqrt(n) * 0x1p-536};
}

std::optional<DistanceError> ManhattanMetric::RoundingError(size_t dim) const {
  return DistanceError{2.0 * static_cast<double>(dim) * kUnit, 0.0};
}

std::optional<DistanceError> ChebyshevMetric::RoundingError(
    size_t /*dim*/) const {
  return DistanceError{kUnit, 0.0};
}

double EuclideanMetric::Distance(const Point& a, const Point& b) const {
  FKC_CHECK_EQ(a.coords.size(), b.coords.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.coords.size(); ++i) {
    const double diff = a.coords[i] - b.coords[i];
    sum += diff * diff;
  }
  return std::sqrt(sum);
}

double ManhattanMetric::Distance(const Point& a, const Point& b) const {
  FKC_CHECK_EQ(a.coords.size(), b.coords.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.coords.size(); ++i) {
    sum += std::fabs(a.coords[i] - b.coords[i]);
  }
  return sum;
}

double ChebyshevMetric::Distance(const Point& a, const Point& b) const {
  FKC_CHECK_EQ(a.coords.size(), b.coords.size());
  double best = 0.0;
  for (size_t i = 0; i < a.coords.size(); ++i) {
    const double diff = std::fabs(a.coords[i] - b.coords[i]);
    if (diff > best) best = diff;
  }
  return best;
}

double DistanceToSet(const Metric& metric, const Point& p,
                     const std::vector<Point>& pool) {
  double best = std::numeric_limits<double>::infinity();
  for (const Point& q : pool) {
    const double d = metric.Distance(p, q);
    if (d < best) best = d;
  }
  return best;
}

const Metric& DefaultMetric() {
  static const EuclideanMetric* metric = new EuclideanMetric();
  return *metric;
}

}  // namespace fkc
