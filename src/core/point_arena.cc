#include "core/point_arena.h"

#include "common/logging.h"

namespace fkc {

PointArena::Slot PointArena::Add(const Point& p) {
  return Add(p.coords.data(), p.dimension(), p.color, p.arrival, p.id);
}

PointArena::Slot PointArena::Add(const double* coords, size_t dim, int color,
                                 int64_t arrival, uint64_t id) {
  if (empty()) dim_ = dim;
  FKC_CHECK_EQ(dim, dim_) << "arena rows must share one dimension";
  FKC_CHECK_LT(size(), static_cast<size_t>(kNoSlot));
  coords_.insert(coords_.end(), coords, coords + dim);
  colors_.push_back(color);
  arrivals_.push_back(arrival);
  ids_.push_back(id);
  return static_cast<Slot>(ids_.size() - 1);
}

Point PointArena::ToPoint(Slot s) const {
  Point p;
  CopyTo(s, &p);
  return p;
}

void PointArena::CopyTo(Slot s, Point* out) const {
  out->coords.assign(coords(s), coords(s) + dim_);
  out->color = colors_[s];
  out->arrival = arrivals_[s];
  out->id = ids_[s];
}

void PointArena::Compact(std::vector<Slot>* marks) {
  FKC_CHECK_EQ(marks->size(), size());
  Slot kept = 0;
  for (size_t s = 0; s < marks->size(); ++s) {
    if ((*marks)[s] == kNoSlot) continue;
    if (kept != s) {
      std::copy(coords(static_cast<Slot>(s)),
                coords(static_cast<Slot>(s)) + dim_,
                coords_.begin() + kept * dim_);
      colors_[kept] = colors_[s];
      arrivals_[kept] = arrivals_[s];
      ids_[kept] = ids_[s];
    }
    (*marks)[s] = kept++;
  }
  coords_.resize(kept * dim_);
  colors_.resize(kept);
  arrivals_.resize(kept);
  ids_.resize(kept);
  kept_ = kept;
}

void PointArena::Reset(size_t dim, size_t rows) {
  dim_ = dim;
  kept_ = rows;
  coords_.clear();
  colors_.clear();
  arrivals_.clear();
  ids_.clear();
  coords_.reserve(rows * dim);
  colors_.reserve(rows);
  arrivals_.reserve(rows);
  ids_.reserve(rows);
}

}  // namespace fkc
