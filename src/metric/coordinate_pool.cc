#include "metric/coordinate_pool.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

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
  size_t new_stride = stride_ == 0 ? 2 * kLaneAlign : 2 * stride_;
  // Keep the row stride off 4 KiB multiples: with a 4 KiB-aliased stride
  // every row's element i lands in the same L1 set, and the dim-outer
  // kernel walk (one load per row at fixed i) thrashes that set at high
  // dimension. One extra lane of padding breaks the alignment.
  constexpr size_t kPageDoubles = 4096 / sizeof(double);
  if (new_stride % kPageDoubles == 0) new_stride += kLaneAlign;
  std::vector<double> grown(dim_ * new_stride, 0.0);
  if (size_ > 0) {  // first growth copies from an empty (null-data) buffer
    for (size_t d = 0; d < dim_; ++d) {
      std::memcpy(grown.data() + d * new_stride, Row(d),
                  size_ * sizeof(double));
    }
  }
  data_ = std::move(grown);
  stride_ = new_stride;
  head_ = 0;
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
