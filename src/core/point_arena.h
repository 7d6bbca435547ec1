// One window's stored arrivals, each held once: the rows the guess
// structures reference by 32-bit slot.
//
// The guesses of a window store overlapping subsets of the same arrivals:
// every guess keeps each recent point in some role, and a c-attractor is
// usually its own representative. A PointArena holds each distinct arrival
// once, with its coordinates contiguous in one row-major array and its
// color, arrival and id in parallel columns. The guesses hold slots, which
// are row indexes, so moving a representative, orphaning it or dropping it
// moves four bytes.
//
// Slots are issued in Add order. The window adds each arrival once, when it
// stamps it, so ascending slots mean ascending arrivals and ids. Rows are
// never freed one at a time: at a Sweep the owner marks the slots it still
// references and Compact keeps exactly those rows, renumbered densely in
// the same order.
#ifndef FKC_CORE_POINT_ARENA_H_
#define FKC_CORE_POINT_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "metric/colored_pool.h"
#include "metric/point.h"

namespace fkc {

class PointArena {
 public:
  using Slot = uint32_t;
  /// "No row": an unmarked row in Compact's input, a dropped row in its
  /// output, and the last point of an empty window.
  static constexpr Slot kNoSlot = std::numeric_limits<Slot>::max();

  /// Appends a row and returns its slot. The first row of an empty arena
  /// fixes dim(); every later row must have that many coordinates
  /// (FKC_CHECK).
  Slot Add(const Point& p);
  Slot Add(const double* coords, size_t dim, int color, int64_t arrival,
           uint64_t id);

  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  size_t dim() const { return dim_; }

  const double* coords(Slot s) const { return coords_.data() + s * dim_; }
  int color(Slot s) const { return colors_[s]; }
  int64_t arrival(Slot s) const { return arrivals_[s]; }
  uint64_t id(Slot s) const { return ids_[s]; }
  /// The arrival and id columns, indexed by slot; valid until the next Add,
  /// Compact or Reset.
  ColoredPool::FieldColumns fields() const {
    return {arrivals_.data(), ids_.data()};
  }

  /// IsActive (metric/point.h) for row s.
  bool IsActive(Slot s, int64_t now, int64_t window_size) const {
    return fkc::IsActive(arrivals_[s], now, window_size);
  }

  /// Row s as a Point.
  Point ToPoint(Slot s) const;
  /// Overwrites `*out` with row s, reusing its coordinate buffer.
  void CopyTo(Slot s, Point* out) const;

  /// Keeps the rows whose entry in `marks` (one per row) is not kNoSlot and
  /// drops the others. Kept rows keep their order. On return, marks[s] is
  /// the new slot of old row s, or kNoSlot if it was dropped. Capacity is
  /// kept, so rows added after a compaction reuse the freed space.
  void Compact(std::vector<Slot>* marks);

  /// The owner's mark-and-sweep, the one rule by which rows are reclaimed.
  /// It is due once the arena holds twice the rows its last sweep kept, and
  /// never below kMinSweepRows, so rows stay within a constant factor of the
  /// referenced ones and a nearly empty arena does not sweep at every Add.
  /// When due, `for_each_ref(mark)` must call mark(s) for every slot its
  /// owner still holds; the unmarked rows are dropped, and `remap(map)` must
  /// then rewrite every held slot s as map[s]. Returns whether it swept.
  template <typename ForEachRef, typename Remap>
  bool Sweep(ForEachRef&& for_each_ref, Remap&& remap) {
    if (size() < std::max(2 * kept_, kMinSweepRows)) return false;
    std::vector<Slot> map(size(), kNoSlot);
    for_each_ref([&map](Slot s) { map[s] = s; });
    Compact(&map);
    remap(map);
    return true;
  }
  static constexpr size_t kMinSweepRows = 64;

  /// Drops every row and makes room for `rows` rows of `dim` coordinates.
  /// The next sweep is due once the arena holds twice `rows`, as if a sweep
  /// had kept that many.
  void Reset(size_t dim, size_t rows);

 private:
  size_t dim_ = 0;
  std::vector<double> coords_;  // row s at [s * dim_, (s + 1) * dim_)
  std::vector<int> colors_;
  std::vector<int64_t> arrivals_;
  std::vector<uint64_t> ids_;
  size_t kept_ = 0;  // rows the last Compact kept, or Reset's `rows`
};

}  // namespace fkc

#endif  // FKC_CORE_POINT_ARENA_H_
