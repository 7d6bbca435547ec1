// A colored point set in structure-of-arrays form: the input of the
// sequential fair-center solvers.
//
// The head <-> color matching of Jones et al. reads a point set's
// coordinates (through Metric::DistanceSoA), its colors and its indices;
// only the final centers need whole Points. A ColoredPool holds exactly
// that: a CoordinatePool plus color, arrival and id columns, position i of
// each describing point i. A window query gathers one straight from the
// chosen guess (GuessStructure::CoresetPool), with no Point copied on the
// way.
#ifndef FKC_METRIC_COLORED_POOL_H_
#define FKC_METRIC_COLORED_POOL_H_

#include <cstdint>
#include <vector>

#include "metric/coordinate_pool.h"
#include "metric/point.h"

namespace fkc {

/// Point i of the set is coordinates column i of `coords` with colors[i],
/// arrivals[i] and ids[i]; all four have size() positions.
struct ColoredPool {
  class Builder;

  CoordinatePool coords;
  std::vector<int> colors;
  std::vector<int64_t> arrivals;
  std::vector<uint64_t> ids;

  size_t size() const { return colors.size(); }
  bool empty() const { return colors.empty(); }

  /// Point i, materialized.
  Point At(size_t i) const;

  /// Every point in position order; bit-identical to the vector the pool
  /// was built from.
  std::vector<Point> ToPoints() const;

  /// `points` at positions [0, points.size()). All points must share one
  /// dimension (FKC_CHECK).
  static ColoredPool FromPoints(const std::vector<Point>& points);
};

/// Collects the points of a ColoredPool in position order, then writes all
/// their coordinates with one CoordinatePool::FromColumns pass.
class ColoredPool::Builder {
 public:
  /// `reserve`: the expected point count.
  explicit Builder(size_t reserve);

  /// Appends `p` at the next position. Its coordinates are read from
  /// `source` at Build time, so `source` must hold exactly p's coordinates
  /// and stay valid until then; the default is p's own.
  void Add(const Point& p, CoordinatePool::ColumnRef source);
  void Add(const Point& p) { Add(p, {p.coords.data(), 1}); }

  ColoredPool Build() &&;

 private:
  ColoredPool pool_;
  size_t dim_ = 0;
  std::vector<CoordinatePool::ColumnRef> sources_;
};

}  // namespace fkc

#endif  // FKC_METRIC_COLORED_POOL_H_
