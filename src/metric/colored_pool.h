// A colored point set in structure-of-arrays form: the input of the
// sequential fair-center solvers.
//
// The head <-> color matching of Jones et al. reads a point set's
// coordinates (through distance rows), its colors and its indices; only the
// final centers need whole Points. A ColoredPool holds exactly that: color
// and slot columns, position i of each describing point i, the coordinates
// of every position in some CoordinatePool column, and for each position a
// row of the field columns that hold its arrival and id. Those are the
// pool's own for a pool built from Points; a window query's pool reads the
// window's PointArena columns instead, and only for the points it
// materializes (At, ToPoints), so gathering a coreset reads no arrival or
// id at all.
//
// Slots: the coordinates live in slots. A pool either owns them all (slot i
// is position i), or borrows another structure's CoordinatePool and owns
// only the positions that are not among its columns. A borrowing pool's
// slots are the borrowed columns first, then its own; a borrowed column
// need not be a point of the set. A window query borrows the chosen
// guess's dense c-attractor pool this way (GuessStructure::CoresetPool),
// so the solver reads the coreset's self-represented attractors where the
// guess stores them. A pool may borrow a second pool, its tail, whose
// slots follow the first's: a guess whose attractor pool keeps a float32
// twin keeps copies of its other points across queries and lends them as
// the tail, so its coreset's pool borrows every slot and owns none.
//
// Solvers read a pool through DistanceRow, which fills one distance per
// slot, in either scan order: point i's distance is row[slot(i)]. They
// break ties by position (a pass in slot order compares positions), so
// ties break as they would on a copy of the points, and a slot that is no
// point of the set never wins. A caller with all its rows known up front
// (the final radius, a distance matrix) reads them through DistanceRows,
// which reads each pool once for a tile of rows rather than once per row.
#ifndef FKC_METRIC_COLORED_POOL_H_
#define FKC_METRIC_COLORED_POOL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "metric/coordinate_pool.h"
#include "metric/metric.h"
#include "metric/point.h"

namespace fkc {

class ColoredPool {
 public:
  class Builder;

  /// Columns a pool reads its points' arrivals and ids from, indexed by a
  /// row each position is added with (a PointArena's columns, indexed by
  /// slot). The solvers never read these fields: only At and ToPoints do,
  /// for the points they return.
  struct FieldColumns {
    const int64_t* arrivals = nullptr;
    const uint64_t* ids = nullptr;
  };

  /// `points` at positions [0, points.size()), copied; slot i is position
  /// i. All points must share one dimension (FKC_CHECK).
  static ColoredPool FromPoints(const std::vector<Point>& points);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t dim() const {
    return borrowed_ != nullptr ? borrowed_->dim() : own_.dim();
  }

  int color(size_t i) const { return colors_[i]; }

  /// Point i, materialized.
  Point At(size_t i) const;
  /// Writes point i's dim() coordinates to `out`.
  void CopyCoordinates(size_t i, double* out) const;

  /// Every point in position order; bit-identical to the points the pool
  /// was built from.
  std::vector<Point> ToPoints() const;

  /// The length of a distance row: slot_count() >= size().
  size_t slot_count() const {
    return lent() + (tail_ != nullptr ? tail_->size() : 0) + own_.size();
  }
  /// The slot of position i.
  size_t slot(size_t i) const { return slots_[i]; }

  /// row[s] = metric distance from `q` to the coordinates in slot s, for
  /// every s in [0, slot_count()): one DistanceSoAOrdered over each pool
  /// the pool scans (ForEachPool), so a CountingMetric counts every slot,
  /// including borrowed columns that are no point of the set. kForward reads
  /// the slots first to last (borrowed pool first), kBackward last to first
  /// (owned pool first, each pool's blocks newest first); the row is the
  /// same, bit for bit.
  void DistanceRow(const Metric& metric, const Point& q, double* row,
                   ScanOrder order = ScanOrder::kForward) const;

  /// DistanceRow for every center at once: row c, at out + c *
  /// slot_count(), is DistanceRow(metric, centers[c]) bit for bit. One
  /// DistanceSoATile over each pool the pool scans, so the pool's blocks
  /// are read once per tile of centers, not once per center.
  void DistanceRows(const Metric& metric, const std::vector<Point>& centers,
                    double* out) const;

  /// Calls f(pool, first) for every non-empty CoordinatePool the pool
  /// scans, with `first` the slot of its position 0: the borrowed pool,
  /// the tail and the owned pool, in slot order for kForward and in the
  /// reverse order for kBackward.
  template <typename F>
  void ForEachPool(ScanOrder order, F&& f) const {
    const size_t tail_first = lent();
    const size_t own_first =
        tail_first + (tail_ != nullptr ? tail_->size() : 0);
    const auto visit = [&](const CoordinatePool* pool, size_t first) {
      if (pool != nullptr && !pool->empty()) f(*pool, first);
    };
    if (order == ScanOrder::kForward) {
      visit(borrowed_, 0);
      visit(tail_, tail_first);
      visit(&own_, own_first);
    } else {
      visit(&own_, own_first);
      visit(tail_, tail_first);
      visit(borrowed_, 0);
    }
  }

  /// Calls f(span) for every block of coordinates the pool scans, with
  /// span.first its first column's slot, in the order DistanceRow reads
  /// them.
  template <typename F>
  void ForEachSpan(ScanOrder order, F&& f) const {
    ForEachPool(order, [&](const CoordinatePool& pool, size_t first) {
      pool.ForEachSpan(order, [&](CoordinatePool::Span span) {
        span.first += first;
        f(span);
      });
    });
  }

  /// The pool holding slot s and the slot's position in it.
  struct Location {
    const CoordinatePool* pool;
    size_t position;
  };
  Location Locate(size_t s) const;

  /// The borrowed pool, or nullptr when the pool owns all its slots.
  const CoordinatePool* borrowed() const { return borrowed_; }
  /// The second borrowed pool, whose slots follow the first's, or nullptr.
  const CoordinatePool* tail() const { return tail_; }
  /// The pool's own slots, after the borrowed ones.
  const CoordinatePool& owned() const { return own_; }
  /// Positions whose coordinates the pool copied into its own slots.
  size_t copied() const { return own_.size(); }

 private:
  size_t lent() const { return borrowed_ != nullptr ? borrowed_->size() : 0; }

  const CoordinatePool* borrowed_ = nullptr;  // slots [0, lent())
  const CoordinatePool* tail_ = nullptr;      // the slots after them
  CoordinatePool own_;                        // the slots after those
  // Per position, size_ of each (the Builder may have allocated more).
  size_t size_ = 0;
  std::unique_ptr<int[]> colors_;
  std::unique_ptr<uint32_t[]> slots_;       // position -> slot
  std::unique_ptr<uint32_t[]> field_rows_;  // position -> row of fields_
  // The caller's field columns, or own_arrivals_ and own_ids_.
  FieldColumns fields_;
  std::vector<int64_t> own_arrivals_;
  std::vector<uint64_t> own_ids_;
};

/// Collects the points of a ColoredPool in position order, then lays out
/// their coordinates at Build. A position's color, slot and field row go
/// straight into the pool's arrays, sized for `reserve` positions up front
/// (and doubled when a caller adds more): one capacity test and three
/// stores per position. A column or tail position costs its column and
/// those only; a copied position also keeps where its coordinates are, and
/// takes the next own slot after the `columns` pool's. Only the copied
/// coordinates are written at Build, unless it copies every position.
class ColoredPool::Builder {
 public:
  /// `reserve`: the expected point count. `columns`, when given, is the
  /// pool AddColumn refers to, and `tail` the one AddTail refers to; both
  /// must outlive Build, and a pool that borrows them must not outlive the
  /// next change to them. A builder given a tail takes `columns` too, and
  /// column and tail positions only. `fields`, when given, are the columns
  /// the row-taking Add, AddColumn and AddTail refer to; the pool reads
  /// them when it materializes a point, so it must not outlive the next
  /// change to them either. A builder takes either Points or field rows,
  /// not both.
  explicit Builder(size_t reserve, const CoordinatePool* columns = nullptr,
                   FieldColumns fields = {},
                   const CoordinatePool* tail = nullptr);

  /// Positions added so far: the next one's index.
  size_t size() const { return pool_.size_; }

  /// Appends `p` at the next position; its coordinates are copied at
  /// Build, so `p` must stay valid until then, and its arrival and id now.
  void Add(const Point& p);
  /// Appends the point whose `dim` coordinates start at `coords` (read at
  /// Build), of color `color`, whose arrival and id are row `field_row` of
  /// the `fields` columns.
  void Add(const double* coords, size_t dim, int color, uint32_t field_row);
  /// Appends `p`, whose coordinates are column `column` of the `columns`
  /// pool, at the next position.
  void AddColumn(const Point& p, size_t column);
  /// AddColumn for a point given by its color and field row: no
  /// coordinates are read, and the dimension is the `columns` pool's.
  /// `column` must be below columns->size() and `fields` given; unlike the
  /// Point overload, this one does not check.
  void AddColumn(size_t column, int color, uint32_t field_row) {
    Push(static_cast<uint32_t>(column), color, field_row);
  }
  /// Appends the point whose coordinates are column `column` of the tail,
  /// given by its color and field row. Like AddColumn, it does not check:
  /// the column must be below the tail's size at Build, and `fields` given.
  void AddTail(size_t column, int color, uint32_t field_row) {
    Push(static_cast<uint32_t>(lent_ + column), color, field_row);
  }
  /// Makes tail position `position`'s column `column`, for a tail that
  /// changed after the position was added.
  void SetTailColumn(size_t position, size_t column) {
    pool_.slots_[position] = static_cast<uint32_t>(lent_ + column);
  }

  /// With a tail, borrows both pools whatever their share of the
  /// positions. Otherwise borrows `columns` when column positions make up
  /// at least half of the pool, and copies every position otherwise: a
  /// borrowing pool costs a second kernel call per row and scans the
  /// columns that are no point of the set, which only pays when most
  /// positions need no copy. The copied coordinates land in fresh blocks
  /// that are zero-filled only where no coordinate lands: every row's
  /// slack, and the last block's lanes past its points (the tail lane
  /// group the kernels over-read, and the rest of that row). Nothing else
  /// of a block is written twice. Beside a borrowed pool that keeps a
  /// float32 twin, the copies get a twin on its reference too
  /// (coordinate_pool.h), so shadow rows (shadow_pool.h) cover every slot.
  ColoredPool Build() &&;

 private:
  void Push(uint32_t slot, int color, uint32_t field_row) {
    if (pool_.size_ == capacity_) Allocate(capacity_ < 8 ? 16 : 2 * capacity_);
    const size_t i = pool_.size_++;
    pool_.colors_[i] = color;
    pool_.slots_[i] = slot;
    pool_.field_rows_[i] = field_row;
  }
  /// The field row of a Point's arrival and id, appended to the pool's own
  /// columns.
  uint32_t OwnFieldRow(const Point& p);
  /// Moves the fields to arrays of `capacity` positions.
  void Allocate(size_t capacity);

  ColoredPool pool_;  // slots_: a column's column, a copy's own slot
  size_t capacity_ = 0;  // positions the pool's arrays hold
  const CoordinatePool* columns_;
  const CoordinatePool* tail_;
  size_t lent_;      // columns_->size(), or 0: the first tail or own slot
  size_t dim_ = 0;   // of the copied positions
  // The copied positions' coordinates, in position (and own slot) order.
  std::vector<CoordinatePool::ColumnRef> sources_;
};

}  // namespace fkc

#endif  // FKC_METRIC_COLORED_POOL_H_
