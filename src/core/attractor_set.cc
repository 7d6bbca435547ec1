#include "core/attractor_set.h"

#include <algorithm>

#include "common/logging.h"

namespace fkc {

uint32_t AttractorList::NewCell(Slot slot) {
  if (free_ != kNoCell) {
    const uint32_t c = free_;
    free_ = cells_[c].next;
    cells_[c] = {slot, kNoCell};
    return c;
  }
  FKC_CHECK_LT(cells_.size(), static_cast<size_t>(kNoCell));
  cells_.push_back({slot, kNoCell});
  return static_cast<uint32_t>(cells_.size() - 1);
}

void AttractorList::FreeCell(uint32_t c) {
  cells_[c].next = free_;
  free_ = c;
}

void AttractorList::ReclaimHead() {
  if (head_ == entries_.size()) {
    entries_.clear();
    head_ = 0;
  } else if (2 * head_ >= entries_.size()) {
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void AttractorList::Push(Slot attractor) {
  entries_.push_back({attractor, kNoCell, kNoCell, 0});
}

void AttractorList::AppendRep(size_t e, Slot slot) {
  const uint32_t c = NewCell(slot);
  AttractorEntry& entry = entries_[head_ + e];
  if (entry.first == kNoCell) {
    entry.first = c;
  } else {
    cells_[entry.last].next = c;
  }
  entry.last = c;
  ++entry.count;
  ++total_reps_;
}

void AttractorList::ReplaceReps(size_t e, Slot slot) {
  AttractorEntry& entry = entries_[head_ + e];
  if (entry.count == 1) {
    cells_[entry.first].slot = slot;
    return;
  }
  for (uint32_t c = entry.first; c != kNoCell;) {
    const uint32_t next = cells_[c].next;
    FreeCell(c);
    c = next;
  }
  total_reps_ -= entry.count;
  entry.first = entry.last = kNoCell;
  entry.count = 0;
  AppendRep(e, slot);
}

void AttractorList::RemoveRep(size_t e, Slot slot) {
  AttractorEntry& entry = entries_[head_ + e];
  uint32_t prev = kNoCell;
  for (uint32_t c = entry.first; c != kNoCell; prev = c, c = cells_[c].next) {
    if (cells_[c].slot != slot) continue;
    const uint32_t next = cells_[c].next;
    if (prev == kNoCell) {
      entry.first = next;
    } else {
      cells_[prev].next = next;
    }
    if (entry.last == c) entry.last = prev;
    FreeCell(c);
    --entry.count;
    --total_reps_;
    return;
  }
}

void AttractorList::RemapSlots(const std::vector<Slot>& map) {
  for (size_t e = head_; e < entries_.size(); ++e) {
    AttractorEntry& entry = entries_[e];
    entry.attractor = map[entry.attractor];
    for (uint32_t c = entry.first; c != kNoCell; c = cells_[c].next) {
      cells_[c].slot = map[cells_[c].slot];
    }
  }
}

int CountColor(const AttractorList& entries, size_t e, int color,
               const PointArena& arena) {
  int count = 0;
  entries.ForEachRep(e, [&](Slot s) { count += arena.color(s) == color; });
  return count;
}

void AddRepresentativeWithCap(AttractorList* entries, size_t e, Slot slot,
                              int cap, const PointArena& arena) {
  FKC_CHECK_GE(cap, 1) << "the paper requires positive per-color caps";
  entries->AppendRep(e, slot);
  // Count the color and find its minimum-TTL (oldest-arrival)
  // representative in one pass.
  const int color = arena.color(slot);
  int count = 0;
  Slot victim = PointArena::kNoSlot;
  int64_t oldest = INT64_MAX;
  entries->ForEachRep(e, [&](Slot s) {
    if (arena.color(s) != color) return;
    ++count;
    if (arena.arrival(s) < oldest) {
      oldest = arena.arrival(s);
      victim = s;
    }
  });
  if (count > cap) entries->RemoveRep(e, victim);
}

namespace {

/// Pops the leading entries whose attractor `leaves` selects, moving each
/// one's representatives that `keep` accepts into `orphans`; returns the
/// count.
template <typename Leaves, typename Keep>
size_t PopPrefix(AttractorList* entries, std::vector<Slot>* orphans,
                 Leaves leaves, Keep keep) {
  size_t popped = 0;
  while (!entries->empty() && leaves(entries->attractor(0))) {
    entries->PopFront([&](Slot rep) {
      if (keep(rep)) orphans->push_back(rep);
    });
    ++popped;
  }
  return popped;
}

}  // namespace

size_t ExpireEntries(AttractorList* entries, std::vector<Slot>* orphans,
                     int64_t now, int64_t window_size,
                     const PointArena& arena) {
  const auto active = [&](Slot s) {
    return arena.IsActive(s, now, window_size);
  };
  // The attractor leaves; its live representatives become orphans.
  return PopPrefix(
      entries, orphans, [&](Slot s) { return !active(s); }, active);
}

void ExpirePoints(std::vector<Slot>* points, int64_t now, int64_t window_size,
                  const PointArena& arena) {
  points->erase(std::remove_if(points->begin(), points->end(),
                               [&](Slot s) {
                                 return !arena.IsActive(s, now, window_size);
                               }),
                points->end());
}

size_t DropEntriesOlderThan(AttractorList* entries, std::vector<Slot>* orphans,
                            int64_t threshold, const PointArena& arena) {
  return PopPrefix(
      entries, orphans,
      [&](Slot s) { return arena.arrival(s) < threshold; },
      [&](Slot s) { return arena.arrival(s) >= threshold; });
}

void DropPointsOlderThan(std::vector<Slot>* points, int64_t threshold,
                         const PointArena& arena) {
  points->erase(std::remove_if(points->begin(), points->end(),
                               [&](Slot s) {
                                 return arena.arrival(s) < threshold;
                               }),
                points->end());
}

}  // namespace fkc
