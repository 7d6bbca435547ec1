#include "metric/colored_pool.h"

#include <algorithm>
#include <type_traits>

#include "common/logging.h"

namespace fkc {

ColoredPool::Location ColoredPool::Locate(size_t s) const {
  if (s < lent()) return {borrowed_, s};
  s -= lent();
  const size_t tail = tail_ != nullptr ? tail_->size() : 0;
  if (s < tail) return {tail_, s};
  return {&own_, s - tail};
}

void ColoredPool::CopyCoordinates(size_t i, double* out) const {
  const Location at = Locate(slot(i));
  const CoordinatePool::ColumnRef column = at.pool->Column(at.position);
  for (size_t d = 0, n = dim(); d < n; ++d) {
    out[d] = column.data[d * column.stride];
  }
}

Point ColoredPool::At(size_t i) const {
  Coordinates c(dim());
  CopyCoordinates(i, c.data());
  return Point(std::move(c), colors_[i], fields_.arrivals[field_rows_[i]],
               fields_.ids[field_rows_[i]]);
}

std::vector<Point> ColoredPool::ToPoints() const {
  std::vector<Point> points;
  points.reserve(size());
  for (size_t i = 0; i < size(); ++i) points.push_back(At(i));
  return points;
}

void ColoredPool::DistanceRow(const Metric& metric, const Point& q,
                              double* row, ScanOrder order) const {
  ForEachPool(order, [&](const CoordinatePool& pool, size_t first) {
    metric.DistanceSoAOrdered(q, pool, order, row + first);
  });
}

void ColoredPool::DistanceRows(const Metric& metric,
                               const std::vector<Point>& centers,
                               double* out) const {
  const size_t stride = slot_count();
  ForEachPool(ScanOrder::kForward,
              [&](const CoordinatePool& pool, size_t first) {
                metric.DistanceSoATile(centers.data(), centers.size(), pool,
                                       stride, out + first);
              });
}

ColoredPool ColoredPool::FromPoints(const std::vector<Point>& points) {
  Builder builder(points.size());
  for (const Point& p : points) builder.Add(p);
  return std::move(builder).Build();
}

ColoredPool::Builder::Builder(size_t reserve, const CoordinatePool* columns,
                              FieldColumns fields, const CoordinatePool* tail)
    : columns_(columns),
      tail_(tail),
      lent_(columns != nullptr ? columns->size() : 0) {
  FKC_CHECK(tail == nullptr || columns != nullptr)
      << "a builder given a tail takes columns too";
  pool_.fields_ = fields;
  if (reserve != 0) Allocate(reserve);
  if (tail == nullptr) sources_.reserve(reserve);
}

void ColoredPool::Builder::Allocate(size_t capacity) {
  // Default-initialized: every position up to size_ is written by Push.
  const size_t n = pool_.size_;
  const auto move_to = [n, capacity](auto& array) {
    using T = typename std::remove_reference_t<decltype(array)>::element_type;
    std::unique_ptr<T[]> grown(new T[capacity]);
    if (n != 0) std::copy(array.get(), array.get() + n, grown.get());
    array = std::move(grown);
  };
  move_to(pool_.colors_);
  move_to(pool_.slots_);
  move_to(pool_.field_rows_);
  capacity_ = capacity;
}

uint32_t ColoredPool::Builder::OwnFieldRow(const Point& p) {
  FKC_CHECK(pool_.fields_.arrivals == nullptr)
      << "a builder given field columns takes field rows, not Points";
  pool_.own_arrivals_.push_back(p.arrival);
  pool_.own_ids_.push_back(p.id);
  return static_cast<uint32_t>(pool_.own_ids_.size() - 1);
}

void ColoredPool::Builder::Add(const Point& p) {
  Add(p.coords.data(), p.dimension(), p.color, OwnFieldRow(p));
}

void ColoredPool::Builder::Add(const double* coords, size_t dim, int color,
                               uint32_t field_row) {
  if (sources_.empty()) {
    dim_ = dim;
  } else {
    FKC_CHECK_EQ(dim, dim_) << "pool points must share one dimension";
  }
  Push(static_cast<uint32_t>(lent_ + sources_.size()), color, field_row);
  sources_.push_back({coords, 1});
}

void ColoredPool::Builder::AddColumn(const Point& p, size_t column) {
  FKC_CHECK(columns_ != nullptr);
  FKC_CHECK_EQ(p.dimension(), columns_->dim());
  FKC_CHECK_LT(column, lent_);
  AddColumn(column, p.color, OwnFieldRow(p));
}

ColoredPool ColoredPool::Builder::Build() && {
  const size_t n = pool_.size_;
  const size_t column_count = n - sources_.size();
  if (tail_ != nullptr) {
    FKC_CHECK(sources_.empty()) << "a builder given a tail copies nothing";
    FKC_CHECK_EQ(tail_->dim(), columns_->dim());
    pool_.borrowed_ = columns_;
    pool_.tail_ = tail_;
  } else if (column_count == 0) {
    // Nothing to borrow: the own slots start at 0.
    if (lent_ != 0) {
      for (size_t i = 0; i < n; ++i) {
        pool_.slots_[i] -= static_cast<uint32_t>(lent_);
      }
    }
  } else {
    if (!sources_.empty()) {
      FKC_CHECK_EQ(dim_, columns_->dim()) << "pool points must share one "
                                             "dimension";
    }
    dim_ = columns_->dim();
    if (2 * column_count >= n) {
      // Borrow: every slot is in place, and sources_ holds the copied
      // positions' coordinates in slot order.
      pool_.borrowed_ = columns_;
    } else {
      // Copy every position: slot i becomes position i. Spread sources_
      // in place, last position first: the copy a position reads sits at
      // its index or below, where no later write reaches.
      sources_.resize(n);
      for (size_t i = n; i-- > 0;) {
        const uint32_t slot = pool_.slots_[i];
        sources_[i] =
            slot < lent_ ? columns_->Column(slot) : sources_[slot - lent_];
        pool_.slots_[i] = static_cast<uint32_t>(i);
      }
    }
  }
  if (!sources_.empty()) {
    // Copies beside a borrowed pool's twin get its reference.
    pool_.own_ = CoordinatePool::FromColumns(dim_, sources_, pool_.borrowed_);
  }
  if (pool_.fields_.arrivals == nullptr) {
    FKC_CHECK_EQ(pool_.own_ids_.size(), n)
        << "a builder without field columns takes Points only";
    pool_.fields_ = {pool_.own_arrivals_.data(), pool_.own_ids_.data()};
  }
  return std::move(pool_);
}

}  // namespace fkc
