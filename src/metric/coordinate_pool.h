// Structure-of-arrays coordinate storage for the distance hot path.
//
// The streaming update loop scans one arriving point against a stored
// attractor set. With points stored as individual heap vectors (AoS), that
// scan chases one pointer per pair; the SIMD kernels in simd_kernels.h
// instead want the j-th coordinate of *every* stored point contiguous in
// memory. A CoordinatePool provides exactly that, in a chain of fixed-size
// blocks.
//
// Layout:   a block is dim() rows of kRowStride doubles; row d holds
//           coordinate d of kBlockLanes consecutive points, followed by one
//           lane width of slack. A kernel scan that starts anywhere in a
//           block and covers at most the rest of it therefore over-reads
//           only into its own row (a block is zeroed when linked, apart
//           from the lanes a bulk build is about to write, and Assign
//           leaves the pool's own earlier values past its new points:
//           readable doubles either way).
//           kRowStride is an odd number of cache lines, so consecutive rows
//           never sit a 4 KiB multiple apart.
//
// Identity: a point is known only by its position, which counts from the
//           oldest stored point: Append stores at position size(), and
//           DropFront(n) removes positions [0, n), shifting every later
//           position down by n. That mirrors an owner that appends in
//           arrival order and only ever removes its oldest elements, so
//           position i always tracks the owner's element i. Append fills the
//           tail block or links a new one; DropFront advances a head inside
//           the front block and frees the blocks it empties, except the
//           last, which it keeps as a spare for the next link: a pool that
//           appends and drops at one pace stops allocating. A stored
//           coordinate never moves.
#ifndef FKC_METRIC_COORDINATE_POOL_H_
#define FKC_METRIC_COORDINATE_POOL_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "metric/point.h"

namespace fkc {

/// The order in which a scan visits a pool's blocks (Metric::
/// DistanceSoAOrdered). Every distance is the same either way; the order
/// decides only which blocks a scan reads first, so two scans of a pool
/// larger than L2 in opposite orders let the second start on the blocks the
/// first left in cache.
enum class ScanOrder { kForward, kBackward };

class CoordinatePool {
 public:
  /// Kernels load this many doubles per vector (AVX-512 width); the row
  /// slack is one such vector, so every narrower kernel is covered too.
  static constexpr size_t kLaneAlign = 8;
  /// Points per block. Measured, not derived: a fleet pool (d = 3) holds
  /// tens of points, and longer blocks spread its rows over more pages; a
  /// covtype pool (d = 54) holds thousands, and shorter blocks make a cold
  /// scan restart the prefetchers more often. 128 costs the least on both.
  static constexpr size_t kBlockLanes = 128;
  /// Distance between consecutive rows of a block.
  static constexpr size_t kRowStride = kBlockLanes + kLaneAlign;

  /// The live positions of one block: column i of `data` (rows kRowStride
  /// doubles apart, each readable up to RoundUpToLanes(count) doubles) is
  /// position first + i, for i in [0, count).
  struct Span {
    const double* data;
    size_t first;
    size_t count;
  };

  /// Where a pool build reads one point's coordinates: coordinate d is
  /// data[d * stride]. A Point's coordinates are {coords.data(), 1}; a
  /// stored position of another pool is that pool's Column(pos).
  struct ColumnRef {
    const double* data;
    size_t stride;
  };

  /// An empty pool of dimension 0; ResetDim before the first Append.
  CoordinatePool() = default;
  explicit CoordinatePool(size_t dim) : dim_(dim) {}

  /// A pool of dimension `dim` holding the point `columns[i]` refers to at
  /// position i. The bulk builder: it writes one lane width of positions
  /// at a time, so each row gets one cache line of contiguous stores while
  /// those points' coordinates stay in L1, where one Append per point
  /// would store a single double into every row. Each block it links is
  /// zeroed only past the lanes it fills (the last block's tail and every
  /// row's slack), not written twice.
  static CoordinatePool FromColumns(size_t dim,
                                    const std::vector<ColumnRef>& columns);

  /// Replaces the pool's points with the ones `columns` refers to, at
  /// positions [0, columns.size()), in the pool's own dimension: FromColumns
  /// into the blocks the pool already holds, so a scratch pool refilled
  /// every call allocates only when it grows. Keeps the spare block.
  void Assign(const std::vector<ColumnRef>& columns);

  /// FromColumns over `points` at positions [0, points.size()). All points
  /// must share one dimension (FKC_CHECK); an empty vector gives an empty
  /// pool of dimension 0.
  static CoordinatePool FromPoints(const std::vector<Point>& points);

  /// Drops all points and re-dimensions the pool.
  void ResetDim(size_t dim);

  /// Stores `coords` (dim() doubles) at position size(). O(dim), plus one
  /// block allocation every kBlockLanes appends.
  void Append(const double* coords);
  void Append(const Point& p);

  /// Removes positions [0, n); position n becomes position 0. O(1) unless
  /// it empties blocks: it keeps the last one as the spare and frees the
  /// others.
  void DropFront(size_t n);

  void Clear() { ResetDim(dim_); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t dim() const { return dim_; }

  /// Coordinate d of the point at position pos.
  double At(size_t pos, size_t d) const {
    const size_t slot = head_ + pos;
    return Block(slot / kBlockLanes)[d * kRowStride + slot % kBlockLanes];
  }

  /// The coordinates of position pos as a build source for FromColumns,
  /// valid until the pool drops pos or is destroyed.
  ColumnRef Column(size_t pos) const {
    const size_t slot = head_ + pos;
    return {Block(slot / kBlockLanes) + slot % kBlockLanes, kRowStride};
  }

  /// Calls f(Span) for every block holding live positions, oldest first.
  template <typename F>
  void ForEachSpan(F&& f) const {
    size_t first = 0;
    size_t offset = head_;
    for (size_t b = 0; first < size_; ++b, offset = 0) {
      const size_t count = std::min(kBlockLanes - offset, size_ - first);
      f(Span{Block(b) + offset, first, count});
      first += count;
    }
  }

  /// ForEachSpan in `order`: kBackward visits the same spans newest first.
  template <typename F>
  void ForEachSpan(ScanOrder order, F&& f) const {
    if (order == ScanOrder::kForward) return ForEachSpan(f);
    // Chain slots [head_, head_ + size_), block by block from the last.
    for (size_t end = head_ + size_; end > head_;) {
      const size_t b = (end - 1) / kBlockLanes;
      const size_t begin = std::max(b * kBlockLanes, head_);
      f(Span{Block(b) + (begin - b * kBlockLanes), begin - head_,
             end - begin});
      end = begin;
    }
  }

  /// Fails (FKC_CHECK) unless the head and block-count invariants hold.
  /// Test / debug hook.
  void CheckInvariants() const;

 private:
  /// Block b of the chain, b < BlockCount().
  double* Block(size_t b) const {
    return b == 0 ? front_.get() : rest_[b - 1].get();
  }
  size_t BlockCount() const { return front_ ? rest_.size() + 1 : 0; }

  /// Links a tail block (the spare if there is one, else a new one) whose
  /// first `filled` lanes the caller is about to write in every row: the
  /// rest of each row, its slack included, is zeroed.
  void LinkBlock(size_t filled);

  /// Writes the points `columns` refers to at positions [0, n) of an empty
  /// pool, linking blocks past the ones it holds (FromColumns, Assign).
  void WriteColumns(const std::vector<ColumnRef>& columns);

  size_t dim_ = 0;
  size_t size_ = 0;  // live points
  size_t head_ = 0;  // slot of position 0 in the front block
  // Each block is dim_ * kRowStride doubles; slot s of the chain is lane
  // s % kBlockLanes of block s / kBlockLanes. Block 0 is held apart from
  // the others, so a one-block pool costs one allocation and a scan of it
  // follows one pointer.
  std::unique_ptr<double[]> front_;
  std::vector<std::unique_ptr<double[]>> rest_;  // blocks 1, 2, ...
  // The last block DropFront emptied, unlinked; LinkBlock reuses it.
  std::unique_ptr<double[]> spare_;
};

}  // namespace fkc

#endif  // FKC_METRIC_COORDINATE_POOL_H_
