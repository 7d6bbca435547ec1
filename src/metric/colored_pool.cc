#include "metric/colored_pool.h"

#include "common/logging.h"

namespace fkc {

Point ColoredPool::At(size_t i) const {
  const CoordinatePool::ColumnRef column = coords.Column(i);
  Coordinates c(coords.dim());
  for (size_t d = 0; d < c.size(); ++d) c[d] = column.data[d * column.stride];
  return Point(std::move(c), colors[i], arrivals[i], ids[i]);
}

std::vector<Point> ColoredPool::ToPoints() const {
  std::vector<Point> points;
  points.reserve(size());
  for (size_t i = 0; i < size(); ++i) points.push_back(At(i));
  return points;
}

ColoredPool ColoredPool::FromPoints(const std::vector<Point>& points) {
  Builder builder(points.size());
  for (const Point& p : points) builder.Add(p);
  return std::move(builder).Build();
}

ColoredPool::Builder::Builder(size_t reserve) {
  pool_.colors.reserve(reserve);
  pool_.arrivals.reserve(reserve);
  pool_.ids.reserve(reserve);
  sources_.reserve(reserve);
}

void ColoredPool::Builder::Add(const Point& p,
                               CoordinatePool::ColumnRef source) {
  if (sources_.empty()) {
    dim_ = p.dimension();
  } else {
    FKC_CHECK_EQ(p.dimension(), dim_)
        << "pool points must share one dimension";
  }
  pool_.colors.push_back(p.color);
  pool_.arrivals.push_back(p.arrival);
  pool_.ids.push_back(p.id);
  sources_.push_back(source);
}

ColoredPool ColoredPool::Builder::Build() && {
  if (!sources_.empty()) {
    pool_.coords = CoordinatePool::FromColumns(dim_, sources_);
  }
  return std::move(pool_);
}

}  // namespace fkc
