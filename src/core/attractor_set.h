// Building blocks for the per-guess structures: attractor entries (an
// attractor point plus its representative set) and the expiry / threshold
// filters shared by validation and coreset bookkeeping.
//
// TTL conventions (Section 3 of the paper): a point q arriving at t(q) is
// active while TTL(q) = n - (now - t(q)) > 0, i.e. while t(q) > now - n. The
// Cleanup threshold rule "drop q with TTL(q) < t_min(AV)" translates to
// "drop q with t(q) < oldest attractor arrival".
#ifndef FKC_CORE_ATTRACTOR_SET_H_
#define FKC_CORE_ATTRACTOR_SET_H_

#include <deque>
#include <vector>

#include "metric/point.h"
#include "sequential/color_constraint.h"

namespace fkc {

/// An attractor and the representatives currently charged to it. For
/// v-attractors in the full algorithm the rep set holds exactly one point
/// (the most recent attracted one); for c-attractors — and for v-attractors
/// in the Corollary-2 variant — it holds a maximal independent set (at most
/// k_i points of color i, most recent first to arrive last).
struct AttractorEntry {
  Point attractor;
  std::vector<Point> representatives;
};

/// The entries of one attractor family. Writers append in arrival order and
/// remove only the oldest (expiry, Cleanup), so entries ascend strictly by
/// attractor arrival and every removal pops a prefix — O(1) per entry.
using AttractorList = std::deque<AttractorEntry>;

/// Number of representatives of `color` in the entry.
int CountColor(const AttractorEntry& entry, int color);

/// Adds `p` to the entry's representative set, evicting the oldest point of
/// the same color when the per-color cap would be exceeded (Algorithm 1,
/// lines 17-20). A zero cap is rejected: the paper requires positive k_i.
void AddRepresentativeWithCap(AttractorEntry* entry, const Point& p, int cap);

/// Removes expired attractors from `entries` (arrival <= now - window_size),
/// moving their still-active representatives into `orphans`, and returns how
/// many left. Entries ascend by attractor arrival, so the expired ones are a
/// prefix: the scan stops at the first live attractor. Representatives of
/// surviving attractors never expire first (they arrive later), so they are
/// left untouched.
size_t ExpireEntries(AttractorList* entries, std::vector<Point>* orphans,
                     int64_t now, int64_t window_size);

/// Drops expired points from a flat orphan list.
void ExpirePoints(std::vector<Point>* points, int64_t now,
                  int64_t window_size);

/// Cleanup threshold filter: evicts entries whose attractor arrived before
/// `threshold`, keeping representatives with arrival >= threshold as orphans
/// (Algorithm 2, line 5), and returns how many left — a prefix, as in
/// ExpireEntries.
size_t DropEntriesOlderThan(AttractorList* entries,
                            std::vector<Point>* orphans, int64_t threshold);

/// Drops points with arrival < threshold from a flat list.
void DropPointsOlderThan(std::vector<Point>* points, int64_t threshold);

/// Total number of representative slots across entries.
int64_t CountRepresentatives(const AttractorList& entries);

}  // namespace fkc

#endif  // FKC_CORE_ATTRACTOR_SET_H_
