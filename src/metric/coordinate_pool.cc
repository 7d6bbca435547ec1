#include "metric/coordinate_pool.h"

#include <algorithm>
#include <new>

#include "common/logging.h"
#include "metric/simd_kernels.h"

namespace fkc {
namespace {

// A block of `count` T, freed by CoordinatePool::AlignedDelete<T>.
template <typename T>
T* NewBlock(size_t count) {
  return static_cast<T*>(::operator new[](
      count * sizeof(T), std::align_val_t{CoordinatePool::kBlockAlign}));
}

}  // namespace

void CoordinatePool::ResetDim(size_t dim) {
  dim_ = dim;
  size_ = 0;
  head_ = 0;
  front_ = Storage();
  rest_.clear();
  spare_ = Storage();
  DropTwin();
}

void CoordinatePool::LinkBlock(size_t filled) {
  Storage block;
  if (spare_.coords != nullptr) {
    block = std::move(spare_);
  } else {
    block.coords.reset(NewBlock<double>(dim_ * kRowStride));
  }
  if (filled == 0) {
    std::fill_n(block.coords.get(), dim_ * kRowStride, 0.0);
  } else {
    for (size_t d = 0; d < dim_; ++d) {
      std::fill(block.coords.get() + d * kRowStride + filled,
                block.coords.get() + (d + 1) * kRowStride, 0.0);
    }
  }
  if (has_twin()) {
    if (block.twin == nullptr) {
      block.twin.reset(NewBlock<float>(dim_ * kTwinStride));
    }
    std::fill_n(block.twin.get(), dim_ * kTwinStride, 0.0f);
  }
  if (front_.coords == nullptr) {
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
    size_t dim, const std::vector<ColumnRef>& columns,
    const CoordinatePool* twin_of) {
  CoordinatePool pool(dim);
  const size_t blocks = (columns.size() + kBlockLanes - 1) / kBlockLanes;
  if (blocks > 1) pool.rest_.reserve(blocks - 1);
  pool.WriteColumns(columns);
  if (twin_of != nullptr && twin_of->has_twin()) {
    FKC_CHECK_EQ(twin_of->dim(), dim);
    pool.MakeTwin(twin_of->twin_reference_);
  } else {
    pool.MaybeMakeTwin();
  }
  return pool;
}

void CoordinatePool::Assign(const std::vector<ColumnRef>& columns) {
  FKC_CHECK_GT(dim_, 0u) << "ResetDim before Assign";
  DropTwin();
  // Unlink the blocks past the ones the new points fill, tail first.
  const size_t blocks = (columns.size() + kBlockLanes - 1) / kBlockLanes;
  while (BlockCount() > blocks) {
    Storage last;
    if (rest_.empty()) {
      last = std::move(front_);
    } else {
      last = std::move(rest_.back());
      rest_.pop_back();
    }
    if (spare_.coords == nullptr) spare_ = std::move(last);
  }
  head_ = 0;
  size_ = 0;
  WriteColumns(columns);
  MaybeMakeTwin();
}

void CoordinatePool::MaybeMakeTwin() {
  if (has_twin() || size_ * dim_ * sizeof(double) <= kTwinMinBytes) return;
  std::vector<double> reference(dim_);
  for (size_t d = 0; d < dim_; ++d) reference[d] = At(0, d);
  MakeTwin(reference);
}

void CoordinatePool::MakeTwin(const std::vector<double>& reference) {
  twin_reference_ = reference;
  twin_extent_.assign(dim_, 0.0);
  const simd::TwinRowKernel twin_row = simd::ActiveKernels().twin_row;
  const size_t end = head_ + size_;  // one past the last live slot
  for (size_t b = 0; b < BlockCount(); ++b) {
    Storage& block = b == 0 ? front_ : rest_[b - 1];
    if (block.twin == nullptr) {
      block.twin.reset(NewBlock<float>(dim_ * kTwinStride));
    }
    // The live lanes [lo, hi) of the block; every other float is 0.
    const size_t lo = b == 0 ? head_ : 0;
    const size_t hi = std::min(kBlockLanes, end - b * kBlockLanes);
    for (size_t d = 0; d < dim_; ++d) {
      float* twin = block.twin.get() + d * kTwinStride;
      std::fill(twin, twin + lo, 0.0f);
      twin_extent_[d] =
          twin_row(block.coords.get() + d * kRowStride + lo, reference[d],
                   hi - lo, twin + lo, twin_extent_[d]);
      std::fill(twin + hi, twin + kTwinStride, 0.0f);
    }
  }
}

void CoordinatePool::DropTwin() {
  twin_reference_.clear();
  twin_extent_.clear();
  for (size_t b = 0; b < BlockCount(); ++b) {
    (b == 0 ? front_ : rest_[b - 1]).twin.reset();
  }
  spare_.twin.reset();
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
  if (!has_twin()) {
    MaybeMakeTwin();
    return;
  }
  float* twin = TwinBlock(slot / kBlockLanes) + slot % kBlockLanes;
  const simd::TwinRowKernel twin_row = simd::ScalarKernels().twin_row;
  for (size_t d = 0; d < dim_; ++d) {
    twin_extent_[d] = twin_row(coords + d, twin_reference_[d], 1,
                               twin + d * kTwinStride, twin_extent_[d]);
  }
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
  front_ = freed <= rest_.size() ? std::move(rest_[freed - 1]) : Storage();
  rest_.erase(rest_.begin(),
              rest_.begin() + static_cast<long>(std::min(freed, rest_.size())));
}

void CoordinatePool::CheckInvariants() const {
  FKC_CHECK_LT(head_, kBlockLanes);
  FKC_CHECK_EQ(BlockCount(), (head_ + size_ + kBlockLanes - 1) / kBlockLanes);
  for (size_t b = 0; b < BlockCount(); ++b) {
    FKC_CHECK(Block(b) != nullptr);
    FKC_CHECK_EQ(TwinBlock(b) != nullptr, has_twin());
  }
  FKC_CHECK_EQ(twin_extent_.size(), twin_reference_.size());
  FKC_CHECK(!has_twin() || twin_reference_.size() == dim_);
}

}  // namespace fkc
