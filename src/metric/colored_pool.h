// A colored point set in structure-of-arrays form: the input of the
// sequential fair-center solvers.
//
// The head <-> color matching of Jones et al. reads a point set's
// coordinates (through distance rows), its colors and its indices; only the
// final centers need whole Points. A ColoredPool holds exactly that: color,
// arrival and id columns, position i of each describing point i, and the
// coordinates of every position in some CoordinatePool column.
//
// Slots: the coordinates live in slots. A pool either owns them all (slot i
// is position i), or borrows another structure's CoordinatePool and owns
// only the positions that are not among its columns. A borrowing pool's
// slots are the borrowed columns first, then its own; a borrowed column
// need not be a point of the set. A window query borrows the chosen
// guess's dense c-attractor pool this way (GuessStructure::CoresetPool),
// so the solver reads the coreset's self-represented attractors where the
// guess stores them.
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
#include <vector>

#include "metric/coordinate_pool.h"
#include "metric/metric.h"
#include "metric/point.h"

namespace fkc {

class ColoredPool {
 public:
  class Builder;

  /// `points` at positions [0, points.size()), copied; slot i is position
  /// i. All points must share one dimension (FKC_CHECK).
  static ColoredPool FromPoints(const std::vector<Point>& points);

  size_t size() const { return colors_.size(); }
  bool empty() const { return colors_.empty(); }
  size_t dim() const {
    return borrowed_ != nullptr ? borrowed_->dim() : own_.dim();
  }

  int color(size_t i) const { return colors_[i]; }

  /// Point i, materialized.
  Point At(size_t i) const;

  /// Every point in position order; bit-identical to the points the pool
  /// was built from.
  std::vector<Point> ToPoints() const;

  /// The length of a distance row: slot_count() >= size().
  size_t slot_count() const {
    return (borrowed_ != nullptr ? borrowed_->size() : 0) + own_.size();
  }
  /// The slot of position i.
  size_t slot(size_t i) const { return slots_[i]; }

  /// row[s] = metric distance from `q` to the coordinates in slot s, for
  /// every s in [0, slot_count()): one DistanceSoAOrdered over the borrowed
  /// pool and one over the owned one, so a CountingMetric counts every slot,
  /// including borrowed columns that are no point of the set. kForward reads
  /// the slots first to last (borrowed pool first), kBackward last to first
  /// (owned pool first, each pool's blocks newest first); the row is the
  /// same, bit for bit.
  void DistanceRow(const Metric& metric, const Point& q, double* row,
                   ScanOrder order = ScanOrder::kForward) const;

  /// DistanceRow for every center at once: row c, at out + c *
  /// slot_count(), is DistanceRow(metric, centers[c]) bit for bit. One
  /// DistanceSoATile over the borrowed pool and one over the owned one, so
  /// the pool's blocks are read once per tile of centers, not once per
  /// center.
  void DistanceRows(const Metric& metric, const std::vector<Point>& centers,
                    double* out) const;

  /// The borrowed pool, or nullptr when the pool owns all its slots.
  const CoordinatePool* borrowed() const { return borrowed_; }
  /// Positions whose coordinates the pool copied into its own slots.
  size_t copied() const { return own_.size(); }

 private:
  const CoordinatePool* borrowed_ = nullptr;  // slots [0, borrowed_->size())
  CoordinatePool own_;                        // the slots after them
  std::vector<int> colors_;
  std::vector<int64_t> arrivals_;
  std::vector<uint64_t> ids_;
  std::vector<uint32_t> slots_;  // position -> slot
};

/// Collects the points of a ColoredPool in position order, then lays out
/// their coordinates at Build. A column position costs its column and
/// fields only; a copied position also keeps where its coordinates are,
/// and takes the next own slot after the `columns` pool's. Only the copied
/// coordinates are written at Build, unless it copies every position.
class ColoredPool::Builder {
 public:
  /// `reserve`: the expected point count. `columns`, when given, is the
  /// pool AddColumn refers to; it must outlive Build, and a pool that
  /// borrows it must not outlive the next change to it.
  explicit Builder(size_t reserve, const CoordinatePool* columns = nullptr);

  /// Appends `p` at the next position; its coordinates are copied at
  /// Build, so `p` must stay valid until then.
  void Add(const Point& p);
  /// Appends the point whose `dim` coordinates start at `coords` (read at
  /// Build) and whose fields are the rest.
  void Add(const double* coords, size_t dim, int color, int64_t arrival,
           uint64_t id);
  /// Appends `p`, whose coordinates are column `column` of the `columns`
  /// pool, at the next position.
  void AddColumn(const Point& p, size_t column);
  /// AddColumn for a point given by its fields: no coordinates are read,
  /// and the dimension is the `columns` pool's.
  void AddColumn(size_t column, int color, int64_t arrival, uint64_t id);

  /// Borrows `columns` when column positions make up at least half of the
  /// pool, and copies every position otherwise: a borrowing pool costs a
  /// second kernel call per row and scans the columns that are no point
  /// of the set, which only pays when most positions need no copy.
  ColoredPool Build() &&;

 private:
  void Push(uint32_t slot, int color, int64_t arrival, uint64_t id);

  ColoredPool pool_;  // slots_: a column's column, a copy's own slot
  const CoordinatePool* columns_;
  size_t lent_;      // columns_->size(), or 0: the first own slot
  size_t dim_ = 0;   // of the copied positions
  // The copied positions' coordinates, in position (and own slot) order.
  std::vector<CoordinatePool::ColumnRef> sources_;
};

}  // namespace fkc

#endif  // FKC_METRIC_COLORED_POOL_H_
