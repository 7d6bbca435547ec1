#include "metric/metric.h"

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

void Metric::DistanceSoAWithin(const Point& p, const CoordinatePool& pool,
                               double /*bound*/, double* out) const {
  DistanceSoA(p, pool, out);
}

namespace {

/// Shared prologue of the built-in SoA overrides: dimension check plus the
/// raw kernel call (row 0 is the base of the dim-major buffer; rows are
/// stride() apart and zero-padded to a lane multiple, so kernels may always
/// load full vectors). `bound` is empty for an exact kernel and the bound
/// for a bounded one.
template <typename Kernel, typename... Bound>
inline void RunSoAKernel(Kernel kernel, const Point& p,
                         const CoordinatePool& pool, double* out,
                         Bound... bound) {
  if (pool.empty()) return;  // a never-filled pool has no dimension yet
  FKC_CHECK_EQ(p.coords.size(), pool.dim());
  kernel(p.coords.data(), pool.Row(0), pool.stride(), pool.dim(), pool.size(),
         bound..., out);
}

}  // namespace

void EuclideanMetric::DistanceSoA(const Point& p, const CoordinatePool& pool,
                                  double* out) const {
  RunSoAKernel(simd::ActiveKernels().euclidean, p, pool, out);
}

void EuclideanMetric::DistanceSoAWithin(const Point& p,
                                        const CoordinatePool& pool,
                                        double bound, double* out) const {
  RunSoAKernel(simd::ActiveKernels().euclidean_within, p, pool, out, bound);
}

void ManhattanMetric::DistanceSoA(const Point& p, const CoordinatePool& pool,
                                  double* out) const {
  RunSoAKernel(simd::ActiveKernels().manhattan, p, pool, out);
}

void ManhattanMetric::DistanceSoAWithin(const Point& p,
                                        const CoordinatePool& pool,
                                        double bound, double* out) const {
  RunSoAKernel(simd::ActiveKernels().manhattan_within, p, pool, out, bound);
}

void ChebyshevMetric::DistanceSoA(const Point& p, const CoordinatePool& pool,
                                  double* out) const {
  RunSoAKernel(simd::ActiveKernels().chebyshev, p, pool, out);
}

void ChebyshevMetric::DistanceSoAWithin(const Point& p,
                                        const CoordinatePool& pool,
                                        double bound, double* out) const {
  RunSoAKernel(simd::ActiveKernels().chebyshev_within, p, pool, out, bound);
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

void EuclideanMetric::DistanceMany(const Point& p, const Point* const* points,
                                   size_t count, double* out) const {
  const size_t dim = p.coords.size();
  const double* a = p.coords.data();
  size_t i = 0;
  // Two pairs per iteration: independent accumulators break the dependency
  // chain without reordering any pair's own summation.
  for (; i + 2 <= count; i += 2) {
    const Point& q0 = *points[i];
    const Point& q1 = *points[i + 1];
    FKC_CHECK_EQ(dim, q0.coords.size());
    FKC_CHECK_EQ(dim, q1.coords.size());
    const double* b0 = q0.coords.data();
    const double* b1 = q1.coords.data();
    double s0 = 0.0, s1 = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const double diff0 = a[d] - b0[d];
      s0 += diff0 * diff0;
      const double diff1 = a[d] - b1[d];
      s1 += diff1 * diff1;
    }
    out[i] = std::sqrt(s0);
    out[i + 1] = std::sqrt(s1);
  }
  for (; i < count; ++i) {
    const Point& q = *points[i];
    FKC_CHECK_EQ(dim, q.coords.size());
    const double* b = q.coords.data();
    double sum = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const double diff = a[d] - b[d];
      sum += diff * diff;
    }
    out[i] = std::sqrt(sum);
  }
}

void ManhattanMetric::DistanceMany(const Point& p, const Point* const* points,
                                   size_t count, double* out) const {
  const size_t dim = p.coords.size();
  const double* a = p.coords.data();
  size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const Point& q0 = *points[i];
    const Point& q1 = *points[i + 1];
    FKC_CHECK_EQ(dim, q0.coords.size());
    FKC_CHECK_EQ(dim, q1.coords.size());
    const double* b0 = q0.coords.data();
    const double* b1 = q1.coords.data();
    double s0 = 0.0, s1 = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      s0 += std::fabs(a[d] - b0[d]);
      s1 += std::fabs(a[d] - b1[d]);
    }
    out[i] = s0;
    out[i + 1] = s1;
  }
  for (; i < count; ++i) {
    const Point& q = *points[i];
    FKC_CHECK_EQ(dim, q.coords.size());
    const double* b = q.coords.data();
    double sum = 0.0;
    for (size_t d = 0; d < dim; ++d) sum += std::fabs(a[d] - b[d]);
    out[i] = sum;
  }
}

void ChebyshevMetric::DistanceMany(const Point& p, const Point* const* points,
                                   size_t count, double* out) const {
  const size_t dim = p.coords.size();
  const double* a = p.coords.data();
  size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const Point& q0 = *points[i];
    const Point& q1 = *points[i + 1];
    FKC_CHECK_EQ(dim, q0.coords.size());
    FKC_CHECK_EQ(dim, q1.coords.size());
    const double* b0 = q0.coords.data();
    const double* b1 = q1.coords.data();
    double m0 = 0.0, m1 = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const double diff0 = std::fabs(a[d] - b0[d]);
      if (diff0 > m0) m0 = diff0;
      const double diff1 = std::fabs(a[d] - b1[d]);
      if (diff1 > m1) m1 = diff1;
    }
    out[i] = m0;
    out[i + 1] = m1;
  }
  for (; i < count; ++i) {
    const Point& q = *points[i];
    FKC_CHECK_EQ(dim, q.coords.size());
    const double* b = q.coords.data();
    double best = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const double diff = std::fabs(a[d] - b[d]);
      if (diff > best) best = diff;
    }
    out[i] = best;
  }
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
