#include "metric/aspect_ratio.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "metric/coordinate_pool.h"

namespace fkc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Rows one tile kernel call scores. Measured on the ~2,000-point samples
/// (AVX-512): at d = 54 a walk of 4- or 8-row tiles takes ~12.5 ms against
/// ~17.5 for single rows, and at d = 3 every height takes ~5 ms.
constexpr size_t kTileRows = 8;

// Two doubles, and the lane mask a comparison of them gives: the baseline
// vector width of x86-64 (SSE2) and AArch64, and plain scalar code
// elsewhere. Comparisons and selects on these need no branch.
typedef double Doubles __attribute__((vector_size(16)));
typedef int64_t Mask __attribute__((vector_size(16)));

/// The running extrema of a walk in kFoldVectors independent accumulators,
/// so consecutive pairs do not wait on each other's min and max.
constexpr size_t kFoldVectors = 4;
constexpr size_t kFoldPairs = 2 * kFoldVectors;

struct ExtremaFold {
  Doubles lo[kFoldVectors];
  Doubles hi[kFoldVectors];
  Mask zeros[kFoldVectors];  // minus the count: a true lane is -1

  ExtremaFold() {
    std::fill_n(lo, kFoldVectors, Doubles{kInf, kInf});
    std::fill_n(hi, kFoldVectors, Doubles{0.0, 0.0});
    std::fill_n(zeros, kFoldVectors, Mask{0, 0});
  }

  /// Folds two pairs as the pair loop does: a zero counts and stays out of
  /// the minimum, and a NaN fails every comparison.
  static void Step(const double* pairs, Doubles& lo, Doubles& hi,
                   Mask& zeros) {
    Doubles d;
    std::memcpy(&d, pairs, sizeof(d));
    const Mask zero = d == 0.0;
    zeros += zero;
    const Doubles nonzero = zero ? kInf : d;
    lo = nonzero < lo ? nonzero : lo;
    hi = d > hi ? d : hi;
  }

  /// Folds row[0, count). Works on local copies: the row could alias the
  /// members as far as the compiler knows. The last partial chunk is padded
  /// with NaN, which every comparison skips.
  void Add(const double* row, size_t count) {
    Doubles l[kFoldVectors], h[kFoldVectors];
    Mask z[kFoldVectors];
    std::copy_n(lo, kFoldVectors, l);
    std::copy_n(hi, kFoldVectors, h);
    std::copy_n(zeros, kFoldVectors, z);
    size_t j = 0;
    for (; j + kFoldPairs <= count; j += kFoldPairs) {
      for (size_t k = 0; k < kFoldVectors; ++k) {
        Step(row + j + 2 * k, l[k], h[k], z[k]);
      }
    }
    if (j < count) {
      double tail[kFoldPairs];
      std::fill_n(tail, kFoldPairs, std::numeric_limits<double>::quiet_NaN());
      std::copy(row + j, row + count, tail);
      for (size_t k = 0; k < kFoldVectors; ++k) {
        Step(tail + 2 * k, l[k], h[k], z[k]);
      }
    }
    std::copy_n(l, kFoldVectors, lo);
    std::copy_n(h, kFoldVectors, hi);
    std::copy_n(z, kFoldVectors, zeros);
  }

  DistanceExtrema Extrema() const {
    DistanceExtrema out;
    out.min_distance = kInf;
    out.max_distance = 0.0;
    for (size_t k = 0; k < kFoldVectors; ++k) {
      for (int lane = 0; lane < 2; ++lane) {
        out.min_distance = std::min(out.min_distance, lo[k][lane]);
        out.max_distance = std::max(out.max_distance, hi[k][lane]);
        out.zero_pairs -= zeros[k][lane];
      }
    }
    return out;
  }
};

}  // namespace

Result<DistanceExtrema> ComputeDistanceExtrema(
    const Metric& metric, const std::vector<Point>& points) {
  for (const Point& p : points) {
    if (p.dimension() != points[0].dimension()) {
      return Status::InvalidArgument("points of mixed dimension: " +
                                     p.ToString());
    }
  }
  ExtremaFold fold;
  if (points.size() < 2) return fold.Extrema();
  // The pool holds points [first, n): row r of a tile at `first` finds its
  // pair j = first + r + 1 + k at column r + 1 + k of its output row.
  CoordinatePool pool = CoordinatePool::FromPoints(points);
  std::vector<double> tile(kTileRows * points.size());
  for (size_t first = 0; first + 1 < points.size(); first += kTileRows) {
    const size_t rows = std::min(kTileRows, points.size() - first);
    const size_t stride = pool.size();
    metric.DistanceSoATile(points.data() + first, rows, pool, stride,
                           tile.data());
    for (size_t r = 0; r < rows; ++r) {
      fold.Add(tile.data() + r * stride + r + 1, stride - r - 1);
    }
    pool.DropFront(rows);
  }
  return fold.Extrema();
}

Result<double> AspectRatio(const Metric& metric,
                           const std::vector<Point>& points) {
  const Result<DistanceExtrema> extrema =
      ComputeDistanceExtrema(metric, points);
  if (!extrema.ok()) return extrema.status();
  if (extrema.value().max_distance <= 0.0 ||
      !std::isfinite(extrema.value().min_distance)) {
    return 1.0;
  }
  return extrema.value().max_distance / extrema.value().min_distance;
}

Result<double> Diameter(const Metric& metric,
                        const std::vector<Point>& points) {
  const Result<DistanceExtrema> extrema =
      ComputeDistanceExtrema(metric, points);
  if (!extrema.ok()) return extrema.status();
  return extrema.value().max_distance;
}

}  // namespace fkc
