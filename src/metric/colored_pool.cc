#include "metric/colored_pool.h"

#include "common/logging.h"

namespace fkc {

Point ColoredPool::At(size_t i) const {
  const size_t s = slot(i);
  const size_t lent = borrowed_ != nullptr ? borrowed_->size() : 0;
  const CoordinatePool::ColumnRef column =
      s < lent ? borrowed_->Column(s) : own_.Column(s - lent);
  Coordinates c(dim());
  for (size_t d = 0; d < c.size(); ++d) c[d] = column.data[d * column.stride];
  return Point(std::move(c), colors_[i], arrivals_[i], ids_[i]);
}

std::vector<Point> ColoredPool::ToPoints() const {
  std::vector<Point> points;
  points.reserve(size());
  for (size_t i = 0; i < size(); ++i) points.push_back(At(i));
  return points;
}

void ColoredPool::DistanceRow(const Metric& metric, const Point& q,
                              double* row) const {
  size_t lent = 0;
  if (borrowed_ != nullptr) {
    metric.DistanceSoA(q, *borrowed_, row);
    lent = borrowed_->size();
  }
  if (!own_.empty()) metric.DistanceSoA(q, own_, row + lent);
}

void ColoredPool::DistanceRows(const Metric& metric,
                               const std::vector<Point>& centers,
                               double* out) const {
  const size_t stride = slot_count();
  size_t lent = 0;
  if (borrowed_ != nullptr) {
    metric.DistanceSoATile(centers.data(), centers.size(), *borrowed_, stride,
                           out);
    lent = borrowed_->size();
  }
  if (!own_.empty()) {
    metric.DistanceSoATile(centers.data(), centers.size(), own_, stride,
                           out + lent);
  }
}

ColoredPool ColoredPool::FromPoints(const std::vector<Point>& points) {
  Builder builder(points.size());
  for (const Point& p : points) builder.Add(p);
  return std::move(builder).Build();
}

ColoredPool::Builder::Builder(size_t reserve, const CoordinatePool* columns)
    : columns_(columns) {
  pool_.colors_.reserve(reserve);
  pool_.arrivals_.reserve(reserve);
  pool_.ids_.reserve(reserve);
  pool_.slots_.reserve(reserve);
  sources_.reserve(reserve);
}

void ColoredPool::Builder::Add(const Point& p) {
  Add(p.coords.data(), p.dimension(), p.color, p.arrival, p.id);
}

void ColoredPool::Builder::Add(const double* coords, size_t dim, int color,
                               int64_t arrival, uint64_t id) {
  if (sources_.empty()) {
    dim_ = dim;
  } else {
    FKC_CHECK_EQ(dim, dim_) << "pool points must share one dimension";
  }
  pool_.colors_.push_back(color);
  pool_.arrivals_.push_back(arrival);
  pool_.ids_.push_back(id);
  pool_.slots_.push_back(kCopied);
  sources_.push_back({coords, 1});
}

void ColoredPool::Builder::AddColumn(const Point& p, size_t column) {
  FKC_CHECK(columns_ != nullptr);
  FKC_CHECK_EQ(p.dimension(), columns_->dim());
  AddColumn(column, p.color, p.arrival, p.id);
}

void ColoredPool::Builder::AddColumn(size_t column, int color,
                                     int64_t arrival, uint64_t id) {
  FKC_CHECK(columns_ != nullptr);
  FKC_CHECK_LT(column, columns_->size());
  const CoordinatePool::ColumnRef source = columns_->Column(column);
  Add(source.data, columns_->dim(), color, arrival, id);
  pool_.slots_.back() = static_cast<uint32_t>(column);
  sources_.back() = source;
  ++column_count_;
}

ColoredPool ColoredPool::Builder::Build() && {
  const size_t n = sources_.size();
  std::vector<uint32_t>& slots = pool_.slots_;
  if (column_count_ == 0 || 2 * column_count_ < n) {
    for (size_t i = 0; i < n; ++i) slots[i] = static_cast<uint32_t>(i);
  } else {
    // Borrow: the copied positions' sources move to the front of sources_,
    // in position order, and take the slots after the borrowed columns.
    pool_.borrowed_ = columns_;
    size_t copied = 0;
    for (size_t i = 0; i < n; ++i) {
      if (slots[i] != kCopied) continue;
      slots[i] = static_cast<uint32_t>(columns_->size() + copied);
      sources_[copied++] = sources_[i];
    }
    sources_.resize(copied);
  }
  if (!sources_.empty()) {
    pool_.own_ = CoordinatePool::FromColumns(dim_, sources_);
  }
  return std::move(pool_);
}

}  // namespace fkc
