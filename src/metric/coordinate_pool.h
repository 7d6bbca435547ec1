// Structure-of-arrays coordinate storage for the distance hot path.
//
// The streaming update loop scans one arriving point against a stored
// attractor set. With points stored as individual heap vectors (AoS), that
// scan chases one pointer per pair; the SIMD kernels in simd_kernels.h
// instead want the j-th coordinate of *every* stored point contiguous in
// memory. A CoordinatePool provides exactly that: one dim-major buffer
// where row d holds coordinate d of all stored points, padded to a SIMD
// lane multiple so kernels may always load full vectors.
//
// Layout:   Row(d)[i] == coordinate d of the point at position i, rows are
//           stride() doubles apart, stride() % kLaneAlign == 0, and
//           Row(d)[size()..RoundUpToLanes(size())) is zero (safe over-read).
//
// Identity: a point is known only by its position, which counts from the
//           oldest stored point: Append stores at position size(), and
//           DropFront(n) removes positions [0, n), shifting every later
//           position down by n. That mirrors an owner that appends in
//           arrival order and only ever removes its oldest elements, so
//           position i always tracks the owner's element i. DropFront is
//           O(1): it advances a head offset into each row. The rows move
//           back to offset 0 only when an Append finds no room past the
//           tail and at least half of the used span has been dropped, so
//           each dropped point costs O(dim) amortised.
#ifndef FKC_METRIC_COORDINATE_POOL_H_
#define FKC_METRIC_COORDINATE_POOL_H_

#include <cstddef>
#include <vector>

#include "metric/point.h"

namespace fkc {

class CoordinatePool {
 public:
  /// Kernels load this many doubles per vector (AVX-512 width); stride and
  /// padding are aligned to it so every narrower kernel is covered too.
  static constexpr size_t kLaneAlign = 8;

  /// An empty pool of dimension 0; ResetDim before the first Append.
  CoordinatePool() = default;
  explicit CoordinatePool(size_t dim) : dim_(dim) {}

  /// A pool holding `points` at positions [0, points.size()), built in one
  /// pass: the stride is sized once and the rows are filled one lane block
  /// of points at a time. All points must share one dimension (FKC_CHECK);
  /// an empty vector gives an empty pool of dimension 0.
  static CoordinatePool FromPoints(const std::vector<Point>& points);

  /// Drops all points and re-dimensions the pool.
  void ResetDim(size_t dim);

  /// Stores `coords` (dim() doubles) at position size(). Amortized O(dim):
  /// one strided write per row, doubling growth.
  void Append(const double* coords);
  void Append(const Point& p);

  /// Removes positions [0, n); position n becomes position 0. O(1).
  void DropFront(size_t n);

  void Clear();

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t dim() const { return dim_; }
  /// Distance between consecutive rows, a multiple of kLaneAlign (0 while
  /// nothing was ever appended).
  size_t stride() const { return stride_; }

  /// Row d: coordinate d of points at positions [0, size()); entries
  /// [size(), RoundUpToLanes(size())) are zero so kernels may over-read to
  /// a lane boundary.
  const double* Row(size_t d) const {
    return data_.data() + d * stride_ + head_;
  }
  double At(size_t pos, size_t d) const { return Row(d)[pos]; }

  /// Fails (FKC_CHECK) unless the offset, padding, and zero-fill
  /// invariants all hold. Test / debug hook.
  void CheckInvariants() const;

 private:
  /// Points a row can hold from offset 0 while keeping the lane over-read
  /// of its last point inside the row.
  size_t Capacity() const {
    return stride_ == 0 ? 0 : stride_ - (kLaneAlign - 1);
  }

  /// Makes room for one more point past the tail: moves the rows back to
  /// offset 0 when the dropped head is at least the live size, grows them
  /// otherwise.
  void MakeRoom();

  /// Replaces the rows with zeroed rows of `stride` doubles (bumped off
  /// 4 KiB multiples), keeping the first size_ points at offset 0.
  void Reallocate(size_t stride);

  size_t dim_ = 0;
  size_t size_ = 0;    // live points
  size_t head_ = 0;    // offset of position 0 in every row
  size_t stride_ = 0;
  // dim_ rows of stride_ doubles; [head_ + size_, stride_) of every row is
  // zero. [0, head_) holds dropped points and is never read.
  std::vector<double> data_;
};

}  // namespace fkc

#endif  // FKC_METRIC_COORDINATE_POOL_H_
