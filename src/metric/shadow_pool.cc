#include "metric/shadow_pool.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace fkc {
namespace {

// The bound on a shadow row's error. Notation: n = dim, u = 2^-53 and
// v = 2^-24 the unit roundoffs of double and float, N the metric's norm
// (L2, L1 or L-infinity), h head 0, x_i the coordinates in slot i, and
// t_i = h - x_i, exact, so that the exact distance is
// D(x_i, x_j) = N(t_j - t_i).
//
// 1. Centring. The fill kernel stores c_i = fl_f(fl_d(h - x_i)) per
//    coordinate. A double difference is exact when subnormal and within
//    u|y| of y = h_d - x_id otherwise; a conversion to float is within
//    v|z| + a of z, a = 2^-150 (half the smallest subnormal float), since
//    every |z| is within float's range (step 4). So with w = v + 2u, each
//    error e_id = c_id - t_id has |e_id| <= w |t_id| + a, and as N is a
//    monotone norm, N(e_i) <= w N(t_i) + a N(1), N(1) = sqrt(n), n or 1.
// 2. The radius. N(t_i) is the exact distance of h and x_i, whose computed
//    value r_i is head 0's exact row: with the metric's RoundingError
//    (rho, alpha), N(t_i) <= (r_i + alpha) / (1 - rho) <= T for
//    T = (R + alpha) / (1 - rho), R the largest r_i. So the distance D_f =
//    N(c_j - c_i) of the float coordinates is within
//    N(e_i) + N(e_j) <= 2 w T + 2 a N(1) of D <= 2T.
// 3. Float arithmetic. The shadow kernel computes D_f from the floats with
//    the metric's own loop in float; the derivation of the metric's
//    RoundingError (metric.cc) with v for u and 2^-150 for 2^-1075 bounds
//    that error by rho_f D_f + alpha_f: rho_f = (n + 4) v and alpha_f =
//    sqrt(n) 2^-73 (Euclidean), 2 n v and 0 (Manhattan), v and 0
//    (Chebyshev), where m v <= 1/2 (n <= kMaxDim) and nothing overflows
//    (step 4). Widening to double is exact.
// 4. Range. With T <= kMaxRadius = 2^60 every centred coordinate, and every
//    float partial (at most (1 + rho_f) D_f^2 <= 2^124), stays well inside
//    float's range (2^128).
// 5. The exact row. Distance itself is within rho D + alpha of D.
// Summing, with D_f <= 2 T (1 + w) + 2 a N(1) and D <= 2T:
//   |shadow - Distance| <= 2T (w + rho + rho_f (1 + w))
//                          + 2 a N(1) (1 + rho_f) + alpha_f + alpha.
// Every step of computing T and the bound rounds, each by at most u
// relative to a sum of non-negative terms; kRoundUp covers them all.
constexpr double kUnit = 0x1p-53;
constexpr double kFloatUnit = 0x1p-24;
constexpr double kFloatHalfTiny = 0x1p-150;
constexpr double kRoundUp = 1.0 + 0x1p-20;
constexpr double kMaxRadius = 0x1p60;
constexpr size_t kMaxDim = size_t{1} << 20;

constexpr double kInf = std::numeric_limits<double>::infinity();

// The norm of a built-in metric, or none. Only the final built-in classes
// have shadow kernels, so a decorator or a custom metric answers kNone.
enum class Norm { kNone, kEuclidean, kManhattan, kChebyshev };

Norm NormOf(const Metric& metric) {
  if (dynamic_cast<const EuclideanMetric*>(&metric) != nullptr) {
    return Norm::kEuclidean;
  }
  if (dynamic_cast<const ManhattanMetric*>(&metric) != nullptr) {
    return Norm::kManhattan;
  }
  if (dynamic_cast<const ChebyshevMetric*>(&metric) != nullptr) {
    return Norm::kChebyshev;
  }
  return Norm::kNone;
}

struct ShadowKernels {
  simd::ShadowFillKernel fill;
  simd::ShadowKernel scan;
};

ShadowKernels KernelsOf(Norm norm) {
  const simd::KernelSet& set = simd::ActiveKernels();
  switch (norm) {
    case Norm::kEuclidean:
      return {set.euclidean_fill, set.euclidean_shadow};
    case Norm::kManhattan:
      return {set.manhattan_fill, set.manhattan_shadow};
    case Norm::kChebyshev:
      return {set.chebyshev_fill, set.chebyshev_shadow};
    case Norm::kNone:
      break;
  }
  FKC_CHECK(false) << "metric has no shadow kernels";
  return {nullptr, nullptr};
}

// The float loop's error (step 3) and N(1) (step 1) for dimension n.
struct NormTerms {
  DistanceError float_error;
  double ones;
};

NormTerms TermsOf(Norm norm, size_t dim) {
  const double n = static_cast<double>(dim);
  switch (norm) {
    case Norm::kEuclidean:
      return {{(n + 4.0) * kFloatUnit, std::sqrt(n) * 0x1p-73},
              std::sqrt(n)};
    case Norm::kManhattan:
      return {{2.0 * n * kFloatUnit, 0.0}, n};
    case Norm::kChebyshev:
    case Norm::kNone:
      break;
  }
  return {{kFloatUnit, 0.0}, 1.0};
}

}  // namespace

bool ShadowPool::Serves(const Metric& metric, const ColoredPool& pool) {
  return pool.slot_count() * pool.dim() * sizeof(double) > kMinBytes &&
         NormOf(metric) != Norm::kNone;
}

bool ShadowPool::Fill(const Metric& metric, const ColoredPool& pool,
                      const Point& head, double* row) {
  FKC_CHECK_EQ(head.coords.size(), pool.dim());
  const Norm norm = NormOf(metric);
  const ShadowKernels kernels = KernelsOf(norm);
  kernel_ = kernels.scan;
  dim_ = pool.dim();
  spans_.clear();
  pool.ForEachSpan(ScanOrder::kForward,
                   [&](const CoordinatePool::Span& span) {
                     spans_.push_back({span.first, span.count});
                   });
  const size_t floats = spans_.size() * dim_ * kRowStride;
  if (floats > capacity_) {
    data_.reset(static_cast<float*>(
        ::operator new[](floats * sizeof(float), std::align_val_t{64})));
    capacity_ = floats;
  }
  size_t k = 0;
  pool.ForEachSpan(ScanOrder::kForward, [&](const CoordinatePool::Span&
                                                span) {
    float* block = data_.get() + k++ * dim_ * kRowStride;
    kernels.fill(head.coords.data(), span.data, CoordinatePool::kRowStride,
                 dim_, span.count, block, kRowStride, row + span.first);
    // The lanes a shadow kernel reads past the span are zeroed, not left
    // to whatever the allocation held.
    const size_t end = simd::RoundUpToShadowLanes(span.count);
    for (size_t d = 0; d < dim_; ++d) {
      std::fill(block + d * kRowStride + span.count,
                block + d * kRowStride + end, 0.0f);
    }
  });

  // R, the row's largest entry (+inf when the row holds a NaN), and
  // whether it makes float32 unsafe.
  const std::optional<DistanceError> exact = metric.RoundingError(dim_);
  FKC_CHECK(exact.has_value()) << "a shadow metric states its rounding";
  double radius = 0.0;
  for (size_t s = 0; s < pool.slot_count(); ++s) {
    if (!(row[s] <= radius)) {
      radius = std::isnan(row[s]) ? kInf : row[s];
    }
  }
  const double t =
      (radius + exact->absolute) / (1.0 - exact->relative) * kRoundUp;
  if (!(t <= kMaxRadius) || dim_ > kMaxDim) return false;
  const NormTerms terms = TermsOf(norm, dim_);
  const double w = kFloatUnit + 2.0 * kUnit;
  const double rho_f = terms.float_error.relative;
  error_ = (2.0 * t * (w + exact->relative + rho_f * (1.0 + w)) +
            2.0 * kFloatHalfTiny * terms.ones * (1.0 + rho_f) +
            terms.float_error.absolute + exact->absolute) *
           kRoundUp;
  // A bound no finer than a 64th of the radius separates too little to
  // save a pass.
  return error_ < t / 64.0;
}

void ShadowPool::Row(size_t slot, ScanOrder order, double* row) {
  // The head's centred coordinates: its column in the block holding slot.
  const auto span = std::upper_bound(
      spans_.begin(), spans_.end(), slot,
      [](size_t s, const Span& sp) { return s < sp.first; }) - 1;
  const float* column =
      Block(static_cast<size_t>(span - spans_.begin())) + (slot - span->first);
  query_.resize(dim_);
  for (size_t d = 0; d < dim_; ++d) query_[d] = column[d * kRowStride];
  const auto scan = [&](size_t k) {
    kernel_(query_.data(), Block(k), kRowStride, dim_, spans_[k].count,
            row + spans_[k].first);
  };
  if (order == ScanOrder::kForward) {
    for (size_t k = 0; k < spans_.size(); ++k) scan(k);
  } else {
    for (size_t k = spans_.size(); k-- > 0;) scan(k);
  }
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
