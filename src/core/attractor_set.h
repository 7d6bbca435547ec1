// Building blocks for the per-guess structures: attractor lists (each
// attractor with its representative set) and the expiry / threshold filters
// shared by validation and coreset bookkeeping.
//
// Every point is a slot of the window's PointArena (core/point_arena.h):
// entries, representative sets and orphan lists hold 32-bit slots, and the
// filters read arrivals and colors from the arena they are handed. Moving a
// point between roles, or dropping it, moves four bytes.
//
// TTL conventions (Section 3 of the paper): a point q arriving at t(q) is
// active while TTL(q) = n - (now - t(q)) > 0, i.e. while t(q) > now - n. The
// Cleanup threshold rule "drop q with TTL(q) < t_min(AV)" translates to
// "drop q with t(q) < oldest attractor arrival".
#ifndef FKC_CORE_ATTRACTOR_SET_H_
#define FKC_CORE_ATTRACTOR_SET_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "core/point_arena.h"

namespace fkc {

using Slot = PointArena::Slot;

/// An attractor and the representatives currently charged to it. For
/// v-attractors in the full algorithm the rep set holds exactly one point
/// (the most recent attracted one); for c-attractors — and for v-attractors
/// in the Corollary-2 variant — it holds a maximal independent set (at most
/// k_i points of color i, so at most k = sum k_i points, most recent first
/// to arrive last). The set is a chain of cells in its list's cell store.
struct AttractorEntry {
  Slot attractor;
  uint32_t first;  ///< first cell of the representative chain
  uint32_t last;   ///< last cell, where the next representative is linked
  uint32_t count;  ///< representatives in the chain
};

/// The entries of one attractor family. Writers append in arrival order and
/// remove only the oldest (expiry, Cleanup), so entries ascend strictly by
/// attractor arrival and every removal pops a prefix — O(1) per entry.
///
/// Storage is per list and does not allocate per entry: the entries sit in
/// one vector whose popped prefix is reclaimed once it outgrows the live
/// part, and the representative sets are chains in one cell vector whose
/// freed cells are reused. In steady state neither vector grows.
class AttractorList {
 public:
  size_t size() const { return entries_.size() - head_; }
  bool empty() const { return size() == 0; }

  Slot attractor(size_t e) const { return entries_[head_ + e].attractor; }
  uint32_t rep_count(size_t e) const { return entries_[head_ + e].count; }
  /// Representatives across all entries.
  int64_t total_reps() const { return total_reps_; }

  /// Calls f(slot) on entry e's representatives, in set order.
  template <typename F>
  void ForEachRep(size_t e, F&& f) const {
    for (uint32_t c = entries_[head_ + e].first; c != kNoCell;
         c = cells_[c].next) {
      f(cells_[c].slot);
    }
  }

  /// Appends an entry for `attractor` with an empty representative set.
  void Push(Slot attractor);
  /// Appends `slot` to entry e's representative set.
  void AppendRep(size_t e, Slot slot);
  /// Makes `slot` entry e's only representative (the full algorithm's
  /// v-representative swap).
  void ReplaceReps(size_t e, Slot slot);
  /// Unlinks the first occurrence of `slot` from entry e's set.
  void RemoveRep(size_t e, Slot slot);

  /// Removes the oldest entry, first calling f(slot) on each of its
  /// representatives in set order.
  template <typename F>
  void PopFront(F&& f) {
    AttractorEntry& front = entries_[head_];
    for (uint32_t c = front.first; c != kNoCell;) {
      const uint32_t next = cells_[c].next;
      f(cells_[c].slot);
      FreeCell(c);
      c = next;
    }
    total_reps_ -= front.count;
    ++head_;
    ReclaimHead();
  }

  /// Calls f(slot) on every attractor and representative.
  template <typename F>
  void ForEachSlot(F&& f) const {
    for (size_t e = 0; e < size(); ++e) {
      f(attractor(e));
      ForEachRep(e, f);
    }
  }

  /// Rewrites every slot s as map[s] (after PointArena::Compact).
  void RemapSlots(const std::vector<Slot>& map);

 private:
  static constexpr uint32_t kNoCell = std::numeric_limits<uint32_t>::max();

  struct Cell {
    Slot slot;
    uint32_t next;
  };

  uint32_t NewCell(Slot slot);
  void FreeCell(uint32_t c);
  /// Drops the popped prefix of entries_ once it is at least as long as
  /// the live part: amortized O(1) per pop, with no allocation.
  void ReclaimHead();

  std::vector<AttractorEntry> entries_;  // live from head_
  size_t head_ = 0;
  std::vector<Cell> cells_;
  uint32_t free_ = kNoCell;  // head of the free-cell chain
  int64_t total_reps_ = 0;
};

/// Number of representatives of `color` in entry e.
int CountColor(const AttractorList& entries, size_t e, int color,
               const PointArena& arena);

/// Adds `slot` to entry e's representative set, evicting the oldest point of
/// the same color when the per-color cap would be exceeded (Algorithm 1,
/// lines 17-20). A zero cap is rejected: the paper requires positive k_i.
void AddRepresentativeWithCap(AttractorList* entries, size_t e, Slot slot,
                              int cap, const PointArena& arena);

/// Removes expired attractors from `entries` (arrival <= now - window_size),
/// moving their still-active representatives into `orphans`, and returns how
/// many left. Entries ascend by attractor arrival, so the expired ones are a
/// prefix: the scan stops at the first live attractor. Representatives of
/// surviving attractors never expire first (they arrive later), so they are
/// left untouched.
size_t ExpireEntries(AttractorList* entries, std::vector<Slot>* orphans,
                     int64_t now, int64_t window_size,
                     const PointArena& arena);

/// Drops expired points from a flat orphan list.
void ExpirePoints(std::vector<Slot>* points, int64_t now, int64_t window_size,
                  const PointArena& arena);

/// Cleanup threshold filter: evicts entries whose attractor arrived before
/// `threshold`, keeping representatives with arrival >= threshold as orphans
/// (Algorithm 2, line 5), and returns how many left — a prefix, as in
/// ExpireEntries.
size_t DropEntriesOlderThan(AttractorList* entries, std::vector<Slot>* orphans,
                            int64_t threshold, const PointArena& arena);

/// Drops points with arrival < threshold from a flat list.
void DropPointsOlderThan(std::vector<Slot>* points, int64_t threshold,
                         const PointArena& arena);

}  // namespace fkc

#endif  // FKC_CORE_ATTRACTOR_SET_H_
