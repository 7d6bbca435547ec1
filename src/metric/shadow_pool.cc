#include "metric/shadow_pool.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace fkc {
namespace {

// The bound on a shadow row's error. Notation: n = dim, u = 2^-53 and
// v = 2^-24 the unit roundoffs of double and float, N the metric's norm
// (L2, L1 or L-infinity), r the twins' reference column, x_i the
// coordinates in slot i, and t_i = x_i - r, exact, so that the exact
// distance is D(x_i, x_j) = N(t_j - t_i). A row's head is a slot too: its
// float query is its own twin column.
//
// 1. Centring. The twin stores c_i = fl_f(fl_d(x_i - r)) per coordinate. A
//    double difference is exact when subnormal and within u|y| of y =
//    x_id - r_d otherwise; a conversion to float is within v|z| + a of z,
//    a = 2^-150 (half the smallest subnormal float), since every |z| is
//    within float's range (step 4). So with w = v + 2u, each error e_id =
//    c_id - t_id has |e_id| <= w |t_id| + a, and as N is a monotone norm,
//    N(e_i) <= w N(t_i) + a N(1), N(1) = sqrt(n), n or 1.
// 2. The extent. Each twin keeps M_d >= |fl_d(x_id - r_d)| over every
//    column it has held (coordinate_pool.h), so |t_id| <= M_d / (1 - u),
//    and by monotonicity N(t_i) <= N(M) / (1 - u) for every slot, the
//    extents of a borrowing pool's two twins taken lane by lane. The
//    metric's Distance between the origin and M differs from N(M) only by
//    its own rounding (the differences 0 - M_d are exact), so with its
//    RoundingError (rho, alpha), N(t_i) <= T for
//    T = (Distance(0, M) + alpha) / (1 - rho) / (1 - u). So the distance
//    D_f = N(c_j - c_i) of the float coordinates is within
//    N(e_i) + N(e_j) <= 2 w T + 2 a N(1) of D <= 2T. (On the covtype
//    coreset T is ~1.4 times the largest distance to the reference.)
// 3. Float arithmetic. The shadow kernel computes D_f from the floats with
//    the metric's own loop in float; the derivation of the metric's
//    RoundingError (metric.cc) with v for u and 2^-150 for 2^-1075 bounds
//    that error by rho_f D_f + alpha_f: rho_f = (n + 4) v and alpha_f =
//    sqrt(n) 2^-73 (Euclidean), 2 n v and 0 (Manhattan), v and 0
//    (Chebyshev), where m v <= 1/2 (n <= kMaxDim) and nothing overflows
//    (step 4). Widening to double is exact.
// 4. Range. With T <= kMaxRadius = 2^60 every centred coordinate
//    (|c_id| <= M_d (1 + w) <= 2T), and every float partial (at most
//    (1 + rho_f) D_f^2 <= 2^124), stays well inside float's range (2^128).
// 5. The exact row. Distance itself is within rho D + alpha of D.
// Summing, with D_f <= 2 T (1 + w) + 2 a N(1) and D <= 2T:
//   |shadow - Distance| <= 2T (w + rho + rho_f (1 + w))
//                          + 2 a N(1) (1 + rho_f) + alpha_f + alpha.
// Every step of computing T and the bound rounds, each by at most u
// relative to a sum of non-negative terms, and 1 / (1 - u) is within 2u
// of 1; kRoundUp covers them all.
constexpr double kUnit = 0x1p-53;
constexpr double kFloatUnit = 0x1p-24;
constexpr double kFloatHalfTiny = 0x1p-150;
constexpr double kRoundUp = 1.0 + 0x1p-20;
constexpr double kMaxRadius = 0x1p60;
constexpr size_t kMaxDim = size_t{1} << 20;

constexpr double kInf = std::numeric_limits<double>::infinity();

// The float loop's error (step 3) and N(1) (step 1) for dimension n.
struct NormTerms {
  DistanceError float_error;
  double ones;
};

NormTerms TermsOf(simd::Norm norm, size_t dim) {
  const double n = static_cast<double>(dim);
  switch (norm) {
    case simd::Norm::kEuclidean:
      return {{(n + 4.0) * kFloatUnit, std::sqrt(n) * 0x1p-73},
              std::sqrt(n)};
    case simd::Norm::kManhattan:
      return {{2.0 * n * kFloatUnit, 0.0}, n};
    case simd::Norm::kChebyshev:
      break;
  }
  return {{kFloatUnit, 0.0}, 1.0};
}

}  // namespace

bool ShadowPool::Serves(const Metric& metric, const ColoredPool& pool) {
  const CoordinatePool* lent = pool.borrowed();
  const CoordinatePool& own = pool.owned();
  if (lent != nullptr && !lent->has_twin()) return false;
  // Beside a twinned borrowed pool, the Builder centres the copies' twin
  // on the same reference.
  if (!own.empty() && !own.has_twin()) return false;
  // Only the built-in metrics (NormMetric) have shadow kernels.
  return !pool.empty() && dynamic_cast<const NormMetric*>(&metric) != nullptr;
}

std::optional<ShadowPool> ShadowPool::Create(const Metric& metric,
                                             const ColoredPool& pool) {
  if (!Serves(metric, pool)) return std::nullopt;
  const simd::Norm norm = dynamic_cast<const NormMetric&>(metric).norm();
  const size_t dim = pool.dim();
  if (dim > kMaxDim) return std::nullopt;

  // M, lane by lane over the twins the pool scans, and T (step 2).
  Point extent;
  extent.coords.assign(dim, 0.0);
  for (const CoordinatePool* twin : {pool.borrowed(), &pool.owned()}) {
    if (twin == nullptr || twin->empty()) continue;
    for (size_t d = 0; d < dim; ++d) {
      extent.coords[d] = std::max(extent.coords[d], twin->twin_extent()[d]);
    }
  }
  const std::optional<DistanceError> exact = metric.RoundingError(dim);
  FKC_CHECK(exact.has_value()) << "a shadow metric states its rounding";
  Point origin;
  origin.coords.assign(dim, 0.0);
  const double t = (metric.Distance(origin, extent) + exact->absolute) /
                   (1.0 - exact->relative) * kRoundUp;
  if (!(t <= kMaxRadius)) return std::nullopt;

  const NormTerms terms = TermsOf(norm, dim);
  const double w = kFloatUnit + 2.0 * kUnit;
  const double rho_f = terms.float_error.relative;
  ShadowPool shadow(pool, simd::ActiveKernels().Of(norm).shadow);
  shadow.error_ = (2.0 * t * (w + exact->relative + rho_f * (1.0 + w)) +
                   2.0 * kFloatHalfTiny * terms.ones * (1.0 + rho_f) +
                   terms.float_error.absolute + exact->absolute) *
                  kRoundUp;
  // A bound no finer than a 64th of T separates too little to save a pass.
  if (!(shadow.error_ < t / 64.0)) return std::nullopt;
  return shadow;
}

void ShadowPool::Row(size_t slot, ScanOrder order, double* row) {
  // The head's float query: its own twin column.
  const size_t lent =
      pool_->borrowed() != nullptr ? pool_->borrowed()->size() : 0;
  const float* column = slot < lent
                            ? pool_->borrowed()->TwinColumn(slot)
                            : pool_->owned().TwinColumn(slot - lent);
  const size_t dim = query_.size();
  for (size_t d = 0; d < dim; ++d) {
    query_[d] = column[d * CoordinatePool::kTwinStride];
  }
  pool_->ForEachSpan(order, [&](const CoordinatePool::Span& span) {
    kernel_(query_.data(), span.twin, CoordinatePool::kTwinStride, dim,
            span.count, row + span.first);
  });
}

size_t ShadowPool::Candidates(const double* row, const double* nearest,
                              const int* color, const double* bound,
                              size_t count, double far_bound, size_t limit,
                              size_t* out) {
  size_t found = 0;
  for (size_t s = 0; s < count; ++s) {
    if (nearest[s] >= far_bound ||
        (color != nullptr && row[s] <= bound[color[s]])) {
      if (found == limit) return limit + 1;
      out[found++] = s;
    }
  }
  return found;
}

simd::Farthest ShadowPool::ResolveFarthest(const Metric& metric,
                                           const ColoredPool& pool,
                                           const std::vector<Point>& centers,
                                           const int* position,
                                           const size_t* candidates,
                                           size_t count, double* nearest,
                                           int64_t* pairs) {
  FKC_CHECK_LE(count, kMaxCandidates);
  Point point;
  point.coords.resize(pool.dim());
  simd::Farthest best = {0.0, -1};
  for (size_t c = 0; c < count; ++c) {
    const size_t s = candidates[c];
    pool.CopyCoordinates(static_cast<size_t>(position[s]),
                         point.coords.data());
    double exact = kInf;
    for (const Point& center : centers) {
      const double d = metric.Distance(center, point);
      exact = d < exact ? d : exact;
    }
    *pairs += static_cast<int64_t>(centers.size());
    nearest[s] = exact;
    simd::internal::KeepFarthest({exact, position[s]}, &best);
  }
  return best;
}

}  // namespace fkc
