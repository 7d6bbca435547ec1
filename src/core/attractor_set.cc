#include "core/attractor_set.h"

#include <algorithm>

#include "common/logging.h"

namespace fkc {

int CountColor(const AttractorEntry& entry, int color) {
  int count = 0;
  for (const Point& p : entry.representatives) {
    if (p.color == color) ++count;
  }
  return count;
}

void AddRepresentativeWithCap(AttractorEntry* entry, const Point& p, int cap) {
  FKC_CHECK_GE(cap, 1) << "the paper requires positive per-color caps";
  entry->representatives.push_back(p);
  if (CountColor(*entry, p.color) > cap) {
    // Evict the minimum-TTL (oldest-arrival) representative of this color.
    int victim = -1;
    int64_t oldest = INT64_MAX;
    for (size_t i = 0; i < entry->representatives.size(); ++i) {
      const Point& q = entry->representatives[i];
      if (q.color == p.color && q.arrival < oldest) {
        oldest = q.arrival;
        victim = static_cast<int>(i);
      }
    }
    FKC_CHECK_GE(victim, 0);
    entry->representatives.erase(entry->representatives.begin() + victim);
  }
}

namespace {

/// Pops the leading entries `leaves` selects, moving each one's
/// representatives that `keep` accepts into `orphans`; returns the count.
template <typename Leaves, typename Keep>
size_t PopPrefix(AttractorList* entries, std::vector<Point>* orphans,
                 Leaves leaves, Keep keep) {
  size_t popped = 0;
  while (!entries->empty() && leaves(entries->front().attractor)) {
    for (Point& rep : entries->front().representatives) {
      if (keep(rep)) orphans->push_back(std::move(rep));
    }
    entries->pop_front();
    ++popped;
  }
  return popped;
}

}  // namespace

size_t ExpireEntries(AttractorList* entries, std::vector<Point>* orphans,
                     int64_t now, int64_t window_size) {
  const auto active = [&](const Point& p) {
    return IsActive(p, now, window_size);
  };
  // The attractor leaves; its live representatives become orphans.
  return PopPrefix(
      entries, orphans, [&](const Point& p) { return !active(p); }, active);
}

void ExpirePoints(std::vector<Point>* points, int64_t now,
                  int64_t window_size) {
  points->erase(std::remove_if(points->begin(), points->end(),
                               [&](const Point& p) {
                                 return !IsActive(p, now, window_size);
                               }),
                points->end());
}

size_t DropEntriesOlderThan(AttractorList* entries,
                            std::vector<Point>* orphans, int64_t threshold) {
  return PopPrefix(
      entries, orphans,
      [&](const Point& p) { return p.arrival < threshold; },
      [&](const Point& p) { return p.arrival >= threshold; });
}

void DropPointsOlderThan(std::vector<Point>* points, int64_t threshold) {
  points->erase(std::remove_if(points->begin(), points->end(),
                               [&](const Point& p) {
                                 return p.arrival < threshold;
                               }),
                points->end());
}

int64_t CountRepresentatives(const AttractorList& entries) {
  int64_t total = 0;
  for (const AttractorEntry& entry : entries) {
    total += static_cast<int64_t>(entry.representatives.size());
  }
  return total;
}

}  // namespace fkc
