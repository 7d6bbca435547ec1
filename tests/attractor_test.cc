// Tests for the attractor building blocks: per-color capped representative
// sets, expiry semantics, and the Cleanup threshold filters, over slots of a
// point arena.
#include <gtest/gtest.h>

#include <vector>

#include "core/attractor_set.h"

namespace fkc {
namespace {

// An arena whose rows are created on demand: At(x, color, arrival) adds a
// one-dimensional point with id = arrival and returns its slot.
class AttractorTest : public ::testing::Test {
 protected:
  Slot At(double x, int color, int64_t arrival) {
    return arena_.Add(Point({x}, color, arrival,
                            static_cast<uint64_t>(arrival)));
  }

  // Appends an entry for `attractor` holding `reps`, verbatim.
  void PushEntry(AttractorList* entries, Slot attractor,
                 const std::vector<Slot>& reps) {
    entries->Push(attractor);
    for (Slot rep : reps) entries->AppendRep(entries->size() - 1, rep);
  }

  std::vector<Slot> Reps(const AttractorList& entries, size_t e) {
    std::vector<Slot> reps;
    entries.ForEachRep(e, [&](Slot s) { reps.push_back(s); });
    return reps;
  }

  int64_t Arrival(Slot s) const { return arena_.arrival(s); }

  PointArena arena_;
};

using AttractorEntryTest = AttractorTest;
using AddRepresentativeTest = AttractorTest;
using ExpireEntriesTest = AttractorTest;
using ExpirePointsTest = AttractorTest;
using DropEntriesOlderThanTest = AttractorTest;
using DropPointsOlderThanTest = AttractorTest;
using CountRepresentativesTest = AttractorTest;
using AttractorListTest = AttractorTest;

TEST_F(AttractorEntryTest, CountColor) {
  AttractorList entries;
  PushEntry(&entries, At(0, 0, 1), {At(1, 0, 2), At(2, 1, 3), At(3, 0, 4)});
  EXPECT_EQ(CountColor(entries, 0, 0, arena_), 2);
  EXPECT_EQ(CountColor(entries, 0, 1, arena_), 1);
  EXPECT_EQ(CountColor(entries, 0, 2, arena_), 0);
}

TEST_F(AddRepresentativeTest, UnderCapJustAppends) {
  AttractorList entries;
  PushEntry(&entries, At(0, 0, 1), {});
  AddRepresentativeWithCap(&entries, 0, At(1, 0, 2), 2, arena_);
  AddRepresentativeWithCap(&entries, 0, At(2, 0, 3), 2, arena_);
  EXPECT_EQ(entries.rep_count(0), 2u);
}

TEST_F(AddRepresentativeTest, OverCapEvictsOldestOfSameColor) {
  AttractorList entries;
  PushEntry(&entries, At(0, 0, 1), {});
  AddRepresentativeWithCap(&entries, 0, At(1, 0, 2), 2, arena_);
  // Other color untouched.
  AddRepresentativeWithCap(&entries, 0, At(2, 1, 3), 2, arena_);
  AddRepresentativeWithCap(&entries, 0, At(3, 0, 4), 2, arena_);
  // Evicts arrival 2.
  AddRepresentativeWithCap(&entries, 0, At(4, 0, 5), 2, arena_);
  ASSERT_EQ(entries.rep_count(0), 3u);
  for (Slot rep : Reps(entries, 0)) {
    EXPECT_NE(Arrival(rep), 2);
  }
  EXPECT_EQ(CountColor(entries, 0, 0, arena_), 2);
  EXPECT_EQ(CountColor(entries, 0, 1, arena_), 1);
}

TEST_F(AddRepresentativeTest, CapOneKeepsMostRecent) {
  AttractorList entries;
  PushEntry(&entries, At(0, 0, 1), {});
  for (int64_t t = 2; t <= 10; ++t) {
    AddRepresentativeWithCap(&entries, 0, At(static_cast<double>(t), 0, t), 1,
                             arena_);
  }
  ASSERT_EQ(entries.rep_count(0), 1u);
  EXPECT_EQ(Arrival(Reps(entries, 0)[0]), 10);
}

TEST_F(ExpireEntriesTest, ExpiredAttractorOrphansLiveReps) {
  AttractorList entries;
  // Attractor arrived at t=1, reps at 5 and 6. Window n=10, now=11:
  // attractor TTL = 10-(11-1) = 0 -> expired; reps still active.
  PushEntry(&entries, At(0, 0, 1), {At(1, 0, 5), At(2, 0, 6)});
  // Attractor at t=8 survives.
  PushEntry(&entries, At(9, 0, 8), {At(10, 0, 9)});
  std::vector<Slot> orphans;
  ExpireEntries(&entries, &orphans, /*now=*/11, /*window_size=*/10, arena_);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(Arrival(entries.attractor(0)), 8);
  ASSERT_EQ(orphans.size(), 2u);
}

TEST_F(ExpireEntriesTest, ExpiredRepsAreDroppedNotOrphaned) {
  AttractorList entries;
  // Attractor and its only rep both expired: one point in both roles.
  const Slot point = At(0, 0, 1);
  PushEntry(&entries, point, {point});
  std::vector<Slot> orphans;
  ExpireEntries(&entries, &orphans, /*now=*/11, /*window_size=*/10, arena_);
  EXPECT_TRUE(entries.empty());
  EXPECT_TRUE(orphans.empty());
}

TEST_F(ExpirePointsTest, DropsExactlyExpired) {
  // n=5, now=10: active iff arrival > 5.
  std::vector<Slot> points = {At(0, 0, 4), At(1, 0, 5), At(2, 0, 6),
                              At(3, 0, 10)};
  ExpirePoints(&points, /*now=*/10, /*window_size=*/5, arena_);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(Arrival(points[0]), 6);
  EXPECT_EQ(Arrival(points[1]), 10);
}

TEST_F(DropEntriesOlderThanTest, KeepsNewRepsOfDroppedAttractor) {
  AttractorList entries;
  // Attractor at t=3 (below threshold 5); reps at 4 (dropped) and 7 (kept).
  PushEntry(&entries, At(0, 0, 3), {At(1, 0, 4), At(2, 0, 7)});
  PushEntry(&entries, At(9, 0, 6), {At(10, 0, 8)});
  std::vector<Slot> orphans;
  DropEntriesOlderThan(&entries, &orphans, /*threshold=*/5, arena_);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(Arrival(entries.attractor(0)), 6);
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_EQ(Arrival(orphans[0]), 7);
}

TEST_F(DropPointsOlderThanTest, StrictThreshold) {
  std::vector<Slot> points = {At(0, 0, 4), At(1, 0, 5), At(2, 0, 6)};
  DropPointsOlderThan(&points, /*threshold=*/5, arena_);
  // arrival < 5 dropped; arrival == 5 kept (TTL(q) < t_min is strict).
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(Arrival(points[0]), 5);
}

TEST_F(CountRepresentativesTest, SumsAcrossEntries) {
  AttractorList entries;
  PushEntry(&entries, At(0, 0, 1), {At(1, 0, 2)});
  PushEntry(&entries, At(2, 0, 3), {At(3, 0, 4), At(4, 0, 5)});
  EXPECT_EQ(entries.total_reps(), 3);
}

TEST_F(AddRepresentativeTest, ZeroCapIsAProgrammingError) {
  AttractorList entries;
  PushEntry(&entries, At(0, 0, 1), {});
  const Slot rep = At(1, 0, 2);
  EXPECT_DEATH(AddRepresentativeWithCap(&entries, 0, rep, 0, arena_),
               "positive per-color caps");
}

TEST_F(AttractorListTest, SwapAndEvictionKeepSetOrderAndReuseCells) {
  // The set keeps arrival order through evictions in its middle, and
  // popping and replacing sets recycles their cells rather than growing
  // the store: a long stream through a short list leaves the totals right.
  // Braced lists evaluate in order, so p[i] is slot i.
  const std::vector<Slot> p = {At(0, 0, 1), At(1, 0, 2), At(2, 1, 3),
                               At(3, 0, 4)};
  AttractorList entries;
  PushEntry(&entries, p[0], {p[1], p[2], p[3]});
  entries.RemoveRep(0, p[2]);  // the color-1 point in the middle
  ASSERT_EQ(Reps(entries, 0), (std::vector<Slot>{p[1], p[3]}));
  entries.ReplaceReps(0, p[0]);
  ASSERT_EQ(Reps(entries, 0), (std::vector<Slot>{p[0]}));
  EXPECT_EQ(entries.total_reps(), 1);
  for (int64_t t = 5; t < 500; t += 2) {
    PushEntry(&entries, At(0, 0, t), {At(1, 0, t + 1)});
    std::vector<Slot> orphans;
    DropEntriesOlderThan(&entries, &orphans, t, arena_);
    ASSERT_EQ(entries.size(), 1u);
    ASSERT_EQ(Arrival(entries.attractor(0)), t);
    ASSERT_EQ(entries.total_reps(), 1);
  }
}

TEST_F(AttractorListTest, RemapRewritesEverySlot) {
  const std::vector<Slot> p = {At(0, 0, 1), At(1, 0, 2), At(2, 0, 3),
                               At(3, 0, 4)};
  AttractorList entries;
  PushEntry(&entries, p[0], {p[1]});
  PushEntry(&entries, p[2], {p[2], p[3]});
  // Slot s becomes 10 + s.
  std::vector<Slot> map(arena_.size());
  for (Slot s = 0; s < map.size(); ++s) map[s] = 10 + s;
  entries.RemapSlots(map);
  std::vector<Slot> seen;
  entries.ForEachSlot([&](Slot s) { seen.push_back(s); });
  EXPECT_EQ(seen, (std::vector<Slot>{10, 11, 12, 12, 13}));
}

}  // namespace
}  // namespace fkc
