#include "metric/coordinate_pool.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "metric/simd_kernels.h"

namespace fkc {

void CoordinatePool::ResetDim(size_t dim) {
  dim_ = dim;
  Clear();
  data_.clear();
  data_.shrink_to_fit();
  stride_ = 0;
}

void CoordinatePool::Clear() {
  size_ = 0;
  head_ = 0;
  std::fill(data_.begin(), data_.end(), 0.0);
}

void CoordinatePool::MakeRoom() {
  if (head_ > 0 && head_ >= size_) {
    // At least half of the used span was dropped: slide the live points
    // back to offset 0 and zero what they leave behind. Moves at most
    // head_ points per row, paid for by the head_ drops before it.
    for (size_t d = 0; d < dim_; ++d) {
      double* row = data_.data() + d * stride_;
      std::memmove(row, row + head_, size_ * sizeof(double));
      std::fill(row + size_, row + head_ + size_, 0.0);
    }
    head_ = 0;
    return;
  }
  Reallocate(stride_ == 0 ? 2 * kLaneAlign : 2 * stride_);
}

void CoordinatePool::Reallocate(size_t stride) {
  // Keep the row stride off 4 KiB multiples: with a 4 KiB-aliased stride
  // every row's element i lands in the same L1 set, and the dim-outer
  // kernel walk (one load per row at fixed i) thrashes that set at high
  // dimension. One extra lane of padding breaks the alignment.
  constexpr size_t kPageDoubles = 4096 / sizeof(double);
  if (stride % kPageDoubles == 0) stride += kLaneAlign;
  std::vector<double> grown(dim_ * stride, 0.0);
  if (size_ > 0) {  // first growth copies from an empty (null-data) buffer
    for (size_t d = 0; d < dim_; ++d) {
      std::memcpy(grown.data() + d * stride, Row(d), size_ * sizeof(double));
    }
  }
  data_ = std::move(grown);
  stride_ = stride;
  head_ = 0;
}

CoordinatePool CoordinatePool::FromPoints(const std::vector<Point>& points) {
  CoordinatePool pool;
  if (points.empty()) return pool;
  const size_t n = points.size();
  pool.dim_ = points[0].dimension();
  // Room for n points plus the row slack Capacity() reserves, so a later
  // Append still finds the invariants it expects.
  pool.Reallocate(simd::RoundUpToLanes(n + kLaneAlign - 1));
  // One lane block of points at a time: each row gets kLaneAlign contiguous
  // stores (one cache line) while the block's coordinates stay in L1.
  for (size_t block = 0; block < n; block += kLaneAlign) {
    const size_t end = std::min(n, block + kLaneAlign);
    for (size_t i = block; i < end; ++i) {
      FKC_CHECK_EQ(points[i].dimension(), pool.dim_)
          << "pool points must share one dimension";
    }
    for (size_t d = 0; d < pool.dim_; ++d) {
      double* row = pool.data_.data() + d * pool.stride_;
      for (size_t i = block; i < end; ++i) row[i] = points[i].coords[d];
    }
  }
  pool.size_ = n;
  return pool;
}

void CoordinatePool::Append(const double* coords) {
  FKC_CHECK_GT(dim_, 0u) << "ResetDim before Append";
  if (head_ + size_ == Capacity()) MakeRoom();
  double* tail = data_.data() + head_ + size_;
  for (size_t d = 0; d < dim_; ++d) tail[d * stride_] = coords[d];
  ++size_;
}

void CoordinatePool::Append(const Point& p) {
  FKC_CHECK_EQ(p.coords.size(), dim_);
  Append(p.coords.data());
}

void CoordinatePool::DropFront(size_t n) {
  FKC_CHECK_LE(n, size_);
  head_ += n;
  size_ -= n;
}

void CoordinatePool::CheckInvariants() const {
  FKC_CHECK_EQ(stride_ % kLaneAlign, 0u);
  FKC_CHECK_EQ(data_.size(), dim_ * stride_);
  FKC_CHECK_LE(head_ + size_, Capacity());
  for (size_t d = 0; d < dim_; ++d) {
    const double* row = data_.data() + d * stride_;
    for (size_t i = head_ + size_; i < stride_; ++i) {
      FKC_CHECK_EQ(row[i], 0.0) << "padding must stay zeroed";
    }
  }
}

}  // namespace fkc
