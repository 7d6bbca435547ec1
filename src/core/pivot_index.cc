#include "core/pivot_index.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "metric/simd_kernels.h"

namespace fkc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Keys are clamped to [-kMaxKey, kMaxKey]. Wild rows share the bucket of
/// kWildKey, which sorts last and no key range reaches.
constexpr int64_t kMaxKey = int64_t{1} << 62;
constexpr int64_t kWildKey = std::numeric_limits<int64_t>::max();

bool AllFinite(const std::vector<double>& values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::fabs(v) <= DBL_MAX; });
}

/// Position of the first largest value.
size_t ArgMax(const std::vector<double>& values) {
  return static_cast<size_t>(std::max_element(values.begin(), values.end()) -
                             values.begin());
}

/// Erases a FIFO's consumed prefix once it is at least half the vector, so
/// pops stay amortized O(1) and the capacity is reused.
void CompactFront(std::vector<int64_t>* values, size_t* head) {
  if (*head >= 64 && 2 * *head >= values->size()) {
    values->erase(values->begin(), values->begin() + static_cast<long>(*head));
    *head = 0;
  }
}

}  // namespace

bool PivotIndex::Build(const Metric& metric, const CoordinatePool& pool,
                       double range) {
  Clear();
  const std::optional<DistanceError> error = metric.RoundingError(pool.dim());
  const double width = range / 2.0;
  if (!error || !(error->relative >= 0.0 && error->relative <= 0.25) ||
      !(error->absolute >= 0.0 && error->absolute <= DBL_MAX) ||
      !(width > 0.0 && width <= DBL_MAX) || pool.empty()) {
    return false;
  }
  const size_t n = pool.size();
  // Farthest-first: the first pivot is the column farthest from position
  // 0, each next one the column farthest from the pivots so far (first
  // position on ties). The distances to pivot j are row entry j.
  std::vector<double> table(kPivots * n);
  std::vector<double> nearest(n);
  std::vector<Point> pivots(kPivots);
  Point column;
  column.coords.resize(pool.dim());
  const auto gather = [&](size_t pos) {
    for (size_t d = 0; d < pool.dim(); ++d) column.coords[d] = pool.At(pos, d);
  };
  gather(0);
  metric.DistanceSoA(column, pool, nearest.data());
  size_t next = ArgMax(nearest);
  std::fill(nearest.begin(), nearest.end(), kInf);
  for (size_t j = 0; j < kPivots; ++j) {
    gather(next);
    pivots[j] = column;
    double* dist = table.data() + j * n;
    metric.DistanceSoA(column, pool, dist);
    for (size_t i = 0; i < n; ++i) nearest[i] = std::min(nearest[i], dist[i]);
    next = ArgMax(nearest);
  }

  metric_ = &metric;
  range_ = range;
  width_ = width;
  error_ = *error;
  pivots_ = CoordinatePool::FromPoints(pivots);
  row_.resize(kPivots);
  keys_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < kPivots; ++j) row_[j] = table[j * n + i];
    Append();
  }
  return true;
}

void PivotIndex::Clear() { *this = PivotIndex(); }

bool PivotIndex::Probe(const Point& p) {
  metric_->DistanceSoA(p, pivots_, row_.data());
  if (!AllFinite(row_)) return false;
  // b >= b* of the header, from the row's largest entry E.
  const double rho = error_.relative;
  const double sigma = error_.absolute;
  const double farthest = *std::max_element(row_.begin(), row_.end());
  margin_ = (range_ + 3.0 * sigma +
             3.0 * rho * (range_ + 2.0 * sigma + farthest)) *
            (1.0 + 0x1p-40);
  margin_ = std::nextafter(std::nextafter(margin_, kInf), kInf);
  return margin_ <= DBL_MAX;
}

const std::vector<size_t>& PivotIndex::Candidates() {
  candidates_.clear();
  const double e0 = row_[0];
  const int64_t last = Key(e0 + margin_);
  // The bound is the Chebyshev distance of the rows' first kPivots
  // coordinates: the built-in bounded Chebyshev kernel, run on those rows
  // of each block, is exact at or below the margin.
  const simd::BoundedDistanceKernel scan =
      simd::ActiveKernels().Of(simd::Norm::kChebyshev).within;
  const double cutoff = simd::DistanceCutoff(margin_);
  scratch_.resize(CoordinatePool::kBlockLanes);
  for (size_t b = LowerBound(Key(e0 - margin_));
       b < buckets_.size() && buckets_[b].key <= last; ++b) {
    const CoordinatePool& rows = buckets_[b].rows;
    rows.ForEachSpan([&](const CoordinatePool::Span& span) {
      scan(row_.data(), span.data, CoordinatePool::kRowStride, kPivots,
           span.count, cutoff, scratch_.data());
      const double* seqs = span.data + kPivots * CoordinatePool::kRowStride;
      for (size_t i = 0; i < span.count; ++i) {
        if (scratch_[i] <= margin_) {
          candidates_.push_back(
              static_cast<size_t>(static_cast<int64_t>(seqs[i]) - dropped_));
        }
      }
    });
  }
  if (!buckets_.empty() && buckets_.back().key == kWildKey) {
    const CoordinatePool& wild = buckets_.back().rows;
    for (size_t i = 0; i < wild.size(); ++i) {
      candidates_.push_back(
          static_cast<size_t>(static_cast<int64_t>(wild.At(i, kPivots)) -
                              dropped_));
    }
  }
  return candidates_;
}

void PivotIndex::Append() {
  double filed[kPivots + 1];
  std::copy(row_.begin(), row_.end(), filed);
  filed[kPivots] = static_cast<double>(dropped_ + static_cast<int64_t>(size()));
  const int64_t key = AllFinite(row_) ? Key(row_[0]) : kWildKey;
  keys_.push_back(key);
  BucketFor(key).rows.Append(filed);
}

void PivotIndex::DropFront(size_t n) {
  FKC_CHECK_LE(n, size());
  for (size_t k = 0; k < n; ++k) {
    const size_t b = LowerBound(keys_[keys_head_++]);
    CoordinatePool& rows = buckets_[b].rows;
    rows.DropFront(1);
    if (rows.empty()) buckets_.erase(buckets_.begin() + static_cast<long>(b));
  }
  dropped_ += static_cast<int64_t>(n);
  CompactFront(&keys_, &keys_head_);
}

int64_t PivotIndex::Key(double x) const {
  const double q = std::floor(x / width_);
  if (!(q < static_cast<double>(kMaxKey))) return kMaxKey;
  if (q < -static_cast<double>(kMaxKey)) return -kMaxKey;
  return static_cast<int64_t>(q);
}

PivotIndex::Bucket& PivotIndex::BucketFor(int64_t key) {
  const size_t b = LowerBound(key);
  if (b == buckets_.size() || buckets_[b].key != key) {
    buckets_.insert(buckets_.begin() + static_cast<long>(b),
                    Bucket{key, CoordinatePool(kPivots + 1)});
  }
  return buckets_[b];
}

size_t PivotIndex::LowerBound(int64_t key) const {
  return static_cast<size_t>(
      std::lower_bound(buckets_.begin(), buckets_.end(), key,
                       [](const Bucket& bucket, int64_t k) {
                         return bucket.key < k;
                       }) -
      buckets_.begin());
}

}  // namespace fkc
