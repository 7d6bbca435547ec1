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
//
// Twin:     once a pool holds more than kTwinMinBytes of coordinates, it
//           keeps a float32 twin of its columns for the shadow rows of
//           metric/shadow_pool.h. The pool decides from its size alone.
//           Twin coordinate d of a column x is float(x_d - r_d), centred on
//           a reference column r that is copied when the twin is made
//           (position 0's, or the reference of the pool a ColoredPool
//           borrows; see FromColumns), or 0 when that difference is NaN or
//           outside float's range. Its blocks mirror the double blocks:
//           dim() rows of kTwinStride floats, kBlockLanes lanes followed by
//           one float vector of slack, so a span that starts mid-block is
//           readable too (the float kernels read RoundUpToShadowLanes(count)
//           floats). Append writes one float column; DropFront and the
//           spare block move each twin block with its double block. The
//           twin also keeps twin_extent(): per dimension, the largest
//           |x_d - r_d| (as a double; +inf for NaN) of every column it has
//           held, dropped ones included, which bounds the live columns'
//           distance to r. The twin is derived state: it is never
//           serialized, and a restore rebuilds it with the pool. A pool
//           that shrinks keeps its twin; Assign and ResetDim decide anew.
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
  /// Float kernels load this many floats per vector (AVX-512 width): the
  /// twin's row slack.
  static constexpr size_t kTwinLanes = 16;
  /// Distance between consecutive rows of a twin block: nine cache lines.
  static constexpr size_t kTwinStride = kBlockLanes + kTwinLanes;
  /// A pool makes its twin once its coordinates take more than this many
  /// bytes. On covtype coresets a nine-head traversal on float rows breaks
  /// even with exact rows between 250 and 2,000 points (0.1-0.9 MB) at
  /// every kernel width (measured on a 4-vCPU AVX-512 VM).
  static constexpr size_t kTwinMinBytes = size_t{1} << 20;

  /// The live positions of one block: column i of `data` (rows kRowStride
  /// doubles apart, each readable up to RoundUpToLanes(count) doubles) is
  /// position first + i, for i in [0, count). `twin` is the same columns
  /// of the twin (rows kTwinStride floats apart), or nullptr.
  struct Span {
    const double* data;
    size_t first;
    size_t count;
    const float* twin;
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
  /// row's slack), not written twice. When `twin_of` keeps a twin, the
  /// pool's twin is centred on its reference whatever the pool's size, so
  /// the two twins read as one (a ColoredPool's copied columns beside the
  /// pool it borrows).
  static CoordinatePool FromColumns(size_t dim,
                                    const std::vector<ColumnRef>& columns,
                                    const CoordinatePool* twin_of = nullptr);

  /// Replaces the pool's points with the ones `columns` refers to, at
  /// positions [0, columns.size()), in the pool's own dimension: FromColumns
  /// into the blocks the pool already holds, so a scratch pool refilled
  /// every call allocates only when it grows. Keeps the spare block. The
  /// twin is made anew, from the new size.
  void Assign(const std::vector<ColumnRef>& columns);

  /// FromColumns over `points` at positions [0, points.size()). All points
  /// must share one dimension (FKC_CHECK); an empty vector gives an empty
  /// pool of dimension 0.
  static CoordinatePool FromPoints(const std::vector<Point>& points);

  /// Drops all points and re-dimensions the pool.
  void ResetDim(size_t dim);

  /// Stores `coords` (dim() doubles) at position size(), and its float
  /// column in the twin, which the append that takes the pool past
  /// kTwinMinBytes makes. O(dim), plus one block allocation every
  /// kBlockLanes appends.
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

  /// Whether the pool keeps a twin (see the file comment).
  bool has_twin() const { return !twin_reference_.empty(); }
  /// The twin's reference column and extent, dim() doubles each; empty
  /// without a twin.
  const std::vector<double>& twin_reference() const { return twin_reference_; }
  const std::vector<double>& twin_extent() const { return twin_extent_; }
  /// Position pos of the twin: its float d is at [d * kTwinStride]. Only
  /// with a twin.
  const float* TwinColumn(size_t pos) const {
    const size_t slot = head_ + pos;
    return TwinBlock(slot / kBlockLanes) + slot % kBlockLanes;
  }

  /// Calls f(Span) for every block holding live positions, oldest first.
  template <typename F>
  void ForEachSpan(F&& f) const {
    size_t first = 0;
    size_t offset = head_;
    for (size_t b = 0; first < size_; ++b, offset = 0) {
      const size_t count = std::min(kBlockLanes - offset, size_ - first);
      f(Span{Block(b) + offset, first, count, TwinSpan(b, offset)});
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
             end - begin, TwinSpan(b, begin - b * kBlockLanes)});
      end = begin;
    }
  }

  /// Fails (FKC_CHECK) unless the head and block-count invariants hold.
  /// Test / debug hook.
  void CheckInvariants() const;

 private:
  /// One block of the chain: its doubles, and its twin block while the
  /// pool keeps a twin (dim_ * kTwinStride floats).
  struct FreeFloats {
    void operator()(float* p) const;
  };
  struct Storage {
    std::unique_ptr<double[]> coords;
    // 64-byte aligned, so every twin row (nine cache lines) starts on a
    // line and a 16-float load splits no line.
    std::unique_ptr<float[], FreeFloats> twin;
  };

  /// Block b of the chain, b < BlockCount().
  const Storage& StorageOf(size_t b) const {
    return b == 0 ? front_ : rest_[b - 1];
  }
  double* Block(size_t b) const { return StorageOf(b).coords.get(); }
  float* TwinBlock(size_t b) const { return StorageOf(b).twin.get(); }
  const float* TwinSpan(size_t b, size_t offset) const {
    return has_twin() ? TwinBlock(b) + offset : nullptr;
  }
  size_t BlockCount() const { return front_.coords ? rest_.size() + 1 : 0; }

  /// Links a tail block (the spare if there is one, else a new one) whose
  /// first `filled` lanes the caller is about to write in every row: the
  /// rest of each row, its slack included, is zeroed. With a twin, the
  /// whole twin block is zeroed.
  void LinkBlock(size_t filled);

  /// Makes the twin when the pool is past kTwinMinBytes and has none,
  /// centred on position 0.
  void MaybeMakeTwin();
  /// Replaces the twin with one centred on `reference` (dim_ doubles),
  /// written from the live columns.
  void MakeTwin(const std::vector<double>& reference);
  /// Drops the twin and its blocks.
  void DropTwin();

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
  Storage front_;
  std::vector<Storage> rest_;  // blocks 1, 2, ...
  // The last block DropFront emptied, unlinked; LinkBlock reuses it.
  Storage spare_;
  // The twin's reference and extent; both empty without a twin.
  std::vector<double> twin_reference_;
  std::vector<double> twin_extent_;
};

}  // namespace fkc

#endif  // FKC_METRIC_COORDINATE_POOL_H_
