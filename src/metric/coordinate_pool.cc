#include "metric/coordinate_pool.h"

#include <algorithm>

#include "common/logging.h"

namespace fkc {

void CoordinatePool::ResetDim(size_t dim) {
  dim_ = dim;
  size_ = 0;
  head_ = 0;
  front_.reset();
  rest_.clear();
  spare_.reset();
}

void CoordinatePool::LinkBlock(size_t filled) {
  std::unique_ptr<double[]> block;
  if (spare_ != nullptr) {
    block = std::move(spare_);
  } else {
    block.reset(new double[dim_ * kRowStride]);
  }
  if (filled == 0) {
    std::fill_n(block.get(), dim_ * kRowStride, 0.0);
  } else {
    for (size_t d = 0; d < dim_; ++d) {
      std::fill(block.get() + d * kRowStride + filled,
                block.get() + (d + 1) * kRowStride, 0.0);
    }
  }
  if (front_ == nullptr) {
    front_ = std::move(block);
  } else {
    // The list keeps its capacity through DropFront; starting it at four
    // entries spares a pool that grows a few blocks two reallocations.
    if (rest_.capacity() == 0) rest_.reserve(4);
    rest_.push_back(std::move(block));
  }
}

void CoordinatePool::WriteColumns(const std::vector<ColumnRef>& columns) {
  const size_t n = columns.size();
  for (size_t first = 0; first < n; first += kLaneAlign) {
    if (first % kBlockLanes == 0 && first / kBlockLanes == BlockCount()) {
      LinkBlock(std::min(kBlockLanes, n - first));
    }
    const size_t width = std::min(n - first, kLaneAlign);
    const ColumnRef* tile = columns.data() + first;
    double* lane = Block(first / kBlockLanes) + first % kBlockLanes;
    for (size_t d = 0; d < dim_; ++d) {
      double* row = lane + d * kRowStride;
      for (size_t i = 0; i < width; ++i) {
        row[i] = tile[i].data[d * tile[i].stride];
      }
    }
  }
  size_ = n;
}

CoordinatePool CoordinatePool::FromColumns(
    size_t dim, const std::vector<ColumnRef>& columns) {
  CoordinatePool pool(dim);
  const size_t blocks = (columns.size() + kBlockLanes - 1) / kBlockLanes;
  if (blocks > 1) pool.rest_.reserve(blocks - 1);
  pool.WriteColumns(columns);
  return pool;
}

void CoordinatePool::Assign(const std::vector<ColumnRef>& columns) {
  FKC_CHECK_GT(dim_, 0u) << "ResetDim before Assign";
  // Unlink the blocks past the ones the new points fill, tail first.
  const size_t blocks = (columns.size() + kBlockLanes - 1) / kBlockLanes;
  while (BlockCount() > blocks) {
    std::unique_ptr<double[]> last;
    if (rest_.empty()) {
      last = std::move(front_);
    } else {
      last = std::move(rest_.back());
      rest_.pop_back();
    }
    if (spare_ == nullptr) spare_ = std::move(last);
  }
  head_ = 0;
  size_ = 0;
  WriteColumns(columns);
}

CoordinatePool CoordinatePool::FromPoints(const std::vector<Point>& points) {
  if (points.empty()) return CoordinatePool();
  const size_t dim = points[0].dimension();
  std::vector<ColumnRef> columns;
  columns.reserve(points.size());
  for (const Point& p : points) {
    FKC_CHECK_EQ(p.dimension(), dim) << "pool points must share one dimension";
    columns.push_back({p.coords.data(), 1});
  }
  return FromColumns(dim, columns);
}

void CoordinatePool::Append(const double* coords) {
  FKC_CHECK_GT(dim_, 0u) << "ResetDim before Append";
  const size_t slot = head_ + size_;
  if (slot == BlockCount() * kBlockLanes) LinkBlock(0);
  double* column = Block(slot / kBlockLanes) + slot % kBlockLanes;
  for (size_t d = 0; d < dim_; ++d) column[d * kRowStride] = coords[d];
  ++size_;
}

void CoordinatePool::Append(const Point& p) {
  FKC_CHECK_EQ(p.coords.size(), dim_) << "pool points must share one dimension";
  Append(p.coords.data());
}

void CoordinatePool::DropFront(size_t n) {
  FKC_CHECK_LE(n, size_);
  head_ += n;
  size_ -= n;
  const size_t freed = head_ / kBlockLanes;
  if (freed == 0) return;
  head_ -= freed * kBlockLanes;
  // Block `freed` becomes the front; block freed - 1 becomes the spare and
  // the blocks before it are freed.
  spare_ = freed == 1 ? std::move(front_) : std::move(rest_[freed - 2]);
  front_ = freed <= rest_.size() ? std::move(rest_[freed - 1]) : nullptr;
  rest_.erase(rest_.begin(),
              rest_.begin() + static_cast<long>(std::min(freed, rest_.size())));
}

void CoordinatePool::CheckInvariants() const {
  FKC_CHECK_LT(head_, kBlockLanes);
  FKC_CHECK_EQ(BlockCount(), (head_ + size_ + kBlockLanes - 1) / kBlockLanes);
  for (size_t b = 0; b < BlockCount(); ++b) FKC_CHECK(Block(b) != nullptr);
}

}  // namespace fkc
