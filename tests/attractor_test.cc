// Tests for the attractor building blocks: per-color capped representative
// sets, expiry semantics, and the Cleanup threshold filters.
#include <gtest/gtest.h>

#include "core/attractor_set.h"

namespace fkc {
namespace {

Point At(double x, int color, int64_t arrival) {
  Point p({x}, color);
  p.arrival = arrival;
  p.id = static_cast<uint64_t>(arrival);
  return p;
}

TEST(AttractorEntryTest, CountColor) {
  AttractorEntry entry{At(0, 0, 1), {At(1, 0, 2), At(2, 1, 3), At(3, 0, 4)}};
  EXPECT_EQ(CountColor(entry, 0), 2);
  EXPECT_EQ(CountColor(entry, 1), 1);
  EXPECT_EQ(CountColor(entry, 2), 0);
}

TEST(AddRepresentativeTest, UnderCapJustAppends) {
  AttractorEntry entry{At(0, 0, 1), {}};
  AddRepresentativeWithCap(&entry, At(1, 0, 2), 2);
  AddRepresentativeWithCap(&entry, At(2, 0, 3), 2);
  EXPECT_EQ(entry.representatives.size(), 2u);
}

TEST(AddRepresentativeTest, OverCapEvictsOldestOfSameColor) {
  AttractorEntry entry{At(0, 0, 1), {}};
  AddRepresentativeWithCap(&entry, At(1, 0, 2), 2);
  AddRepresentativeWithCap(&entry, At(2, 1, 3), 2);  // other color untouched
  AddRepresentativeWithCap(&entry, At(3, 0, 4), 2);
  AddRepresentativeWithCap(&entry, At(4, 0, 5), 2);  // evicts arrival 2
  ASSERT_EQ(entry.representatives.size(), 3u);
  for (const Point& rep : entry.representatives) {
    EXPECT_NE(rep.arrival, 2);
  }
  EXPECT_EQ(CountColor(entry, 0), 2);
  EXPECT_EQ(CountColor(entry, 1), 1);
}

TEST(AddRepresentativeTest, CapOneKeepsMostRecent) {
  AttractorEntry entry{At(0, 0, 1), {}};
  for (int64_t t = 2; t <= 10; ++t) {
    AddRepresentativeWithCap(&entry, At(t, 0, t), 1);
  }
  ASSERT_EQ(entry.representatives.size(), 1u);
  EXPECT_EQ(entry.representatives[0].arrival, 10);
}

TEST(ExpireEntriesTest, ExpiredAttractorOrphansLiveReps) {
  AttractorList entries;
  // Attractor arrived at t=1, reps at 5 and 6. Window n=10, now=11:
  // attractor TTL = 10-(11-1) = 0 -> expired; reps still active.
  entries.push_back({At(0, 0, 1), {At(1, 0, 5), At(2, 0, 6)}});
  // Attractor at t=8 survives.
  entries.push_back({At(9, 0, 8), {At(10, 0, 9)}});
  std::vector<Point> orphans;
  ExpireEntries(&entries, &orphans, /*now=*/11, /*window_size=*/10);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].attractor.arrival, 8);
  ASSERT_EQ(orphans.size(), 2u);
}

TEST(ExpireEntriesTest, ExpiredRepsAreDroppedNotOrphaned) {
  AttractorList entries;
  // Attractor and its only rep both expired.
  entries.push_back({At(0, 0, 1), {At(0, 0, 1)}});
  std::vector<Point> orphans;
  ExpireEntries(&entries, &orphans, /*now=*/11, /*window_size=*/10);
  EXPECT_TRUE(entries.empty());
  EXPECT_TRUE(orphans.empty());
}

TEST(ExpirePointsTest, DropsExactlyExpired) {
  // n=5, now=10: active iff arrival > 5.
  std::vector<Point> points = {At(0, 0, 4), At(1, 0, 5), At(2, 0, 6),
                               At(3, 0, 10)};
  ExpirePoints(&points, /*now=*/10, /*window_size=*/5);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].arrival, 6);
  EXPECT_EQ(points[1].arrival, 10);
}

TEST(DropEntriesOlderThanTest, KeepsNewRepsOfDroppedAttractor) {
  AttractorList entries;
  // Attractor at t=3 (below threshold 5); reps at 4 (dropped) and 7 (kept).
  entries.push_back({At(0, 0, 3), {At(1, 0, 4), At(2, 0, 7)}});
  entries.push_back({At(9, 0, 6), {At(10, 0, 8)}});
  std::vector<Point> orphans;
  DropEntriesOlderThan(&entries, &orphans, /*threshold=*/5);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].attractor.arrival, 6);
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_EQ(orphans[0].arrival, 7);
}

TEST(DropPointsOlderThanTest, StrictThreshold) {
  std::vector<Point> points = {At(0, 0, 4), At(1, 0, 5), At(2, 0, 6)};
  DropPointsOlderThan(&points, /*threshold=*/5);
  // arrival < 5 dropped; arrival == 5 kept (TTL(q) < t_min is strict).
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].arrival, 5);
}

TEST(CountRepresentativesTest, SumsAcrossEntries) {
  AttractorList entries;
  entries.push_back({At(0, 0, 1), {At(1, 0, 2)}});
  entries.push_back({At(2, 0, 3), {At(3, 0, 4), At(4, 0, 5)}});
  EXPECT_EQ(CountRepresentatives(entries), 3);
}

TEST(AddRepresentativeTest, ZeroCapIsAProgrammingError) {
  AttractorEntry entry{At(0, 0, 1), {}};
  EXPECT_DEATH(AddRepresentativeWithCap(&entry, At(1, 0, 2), 0),
               "positive per-color caps");
}

}  // namespace
}  // namespace fkc
