// Tests for a window's point arena: the mark-and-sweep keeps exactly the
// rows the guesses reference, its size does not grow with the window
// length, slot numbers do not depend on the thread count, and the
// checkpoint (a dump of the referenced rows) round-trips byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/fair_center_sliding_window.h"
#include "core/point_arena.h"
#include "metric/metric.h"
#include "sequential/jones_fair_center.h"

namespace fkc {
namespace {

const EuclideanMetric kMetric;
const JonesFairCenter kJones;

std::vector<uint64_t> RowIds(const PointArena& arena) {
  std::vector<uint64_t> ids;
  for (Slot s = 0; s < arena.size(); ++s) ids.push_back(arena.id(s));
  return ids;
}

// Two colors in the square [0, scale)^2.
Point SquarePoint(Rng* rng, double scale) {
  return Point({rng->NextUniform(0, scale), rng->NextUniform(0, scale)},
               static_cast<int>(rng->NextBounded(2)));
}

SlidingWindowOptions AdaptiveOptions(int64_t window) {
  SlidingWindowOptions options;
  options.window_size = window;
  options.delta = 1.0;
  options.adaptive_range = true;
  return options;
}

TEST(PointArenaTest, CompactKeepsMarkedRowsInOrder) {
  PointArena arena;
  for (int i = 0; i < 6; ++i) {
    arena.Add(Point({1.0 * i, -1.0 * i}, i % 2, 10 + i,
                    static_cast<uint64_t>(100 + i)));
  }
  std::vector<Slot> marks(arena.size(), PointArena::kNoSlot);
  marks[1] = marks[4] = marks[5] = 0;
  arena.Compact(&marks);
  EXPECT_EQ(marks, (std::vector<Slot>{PointArena::kNoSlot, 0,
                                      PointArena::kNoSlot,
                                      PointArena::kNoSlot, 1, 2}));
  ASSERT_EQ(arena.size(), 3u);
  EXPECT_EQ(RowIds(arena), (std::vector<uint64_t>{101, 104, 105}));
  const Point p = arena.ToPoint(1);
  EXPECT_EQ(p.coords, (Coordinates{4.0, -4.0}));
  EXPECT_EQ(p.color, 0);
  EXPECT_EQ(p.arrival, 14);
  // A row added after the compaction takes the next slot.
  EXPECT_EQ(arena.Add(Point({9.0, 9.0}, 1, 20, 200)), 3u);
}

TEST(PointArenaTest, SweepIsDueAtTwiceTheRowsLastKept) {
  // Keeps every third row: the owner's references.
  PointArena arena;
  std::vector<Slot> held;
  const auto add = [&](int i) {
    const Slot s = arena.Add(Point({1.0 * i}, 0, i, static_cast<uint64_t>(i)));
    if (i % 3 == 0) held.push_back(s);
  };
  const auto sweep = [&] {
    return arena.Sweep(
        [&](const auto& mark) {
          for (Slot s : held) mark(s);
        },
        [&](const std::vector<Slot>& map) {
          for (Slot& s : held) s = map[s];
        });
  };
  int i = 0;
  // Never below kMinSweepRows rows.
  while (arena.size() + 1 < PointArena::kMinSweepRows) {
    add(i++);
    ASSERT_FALSE(sweep());
  }
  add(i++);
  ASSERT_TRUE(sweep());
  const size_t kept = arena.size();
  EXPECT_EQ(kept, held.size());
  for (Slot s = 0; s < held.size(); ++s) {
    EXPECT_EQ(held[s], s);
    EXPECT_EQ(arena.id(s) % 3, 0u);
  }
  // Then once the arena holds twice what that sweep kept.
  while (arena.size() + 1 < std::max(2 * kept, PointArena::kMinSweepRows)) {
    add(i++);
    ASSERT_FALSE(sweep());
  }
  add(i++);
  EXPECT_TRUE(sweep());
  EXPECT_EQ(arena.size(), held.size());
}

TEST(PointArenaTest, SweepKeepsExactlyTheReferencedRows) {
  // The checkpoint table holds the rows the last point and the guesses
  // reference, so a restored window's arena is exactly that set. Right
  // after a sweep the live arena must equal it, row for row.
  for (const bool adaptive : {true, false}) {
    SlidingWindowOptions options = AdaptiveOptions(300);
    if (!adaptive) {
      options.adaptive_range = false;
      options.d_min = 0.05;
      options.d_max = 300.0;
    }
    FairCenterSlidingWindow window(options, ColorConstraint({2, 2}),
                                   &kMetric, &kJones);
    Rng rng(5);
    int sweeps = 0;
    for (int t = 1; t <= 3000; ++t) {
      const size_t before = window.arena().size();
      ASSERT_TRUE(window.Update(SquarePoint(&rng, 100.0)).ok());
      const PointArena& arena = window.arena();
      if (arena.size() > before) continue;  // no sweep this arrival
      ++sweeps;
      auto restored = FairCenterSlidingWindow::DeserializeState(
          window.SerializeState(), &kMetric, &kJones);
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      ASSERT_EQ(RowIds(arena), RowIds(restored.value().arena()))
          << "adaptive=" << adaptive << " t=" << t;
      for (Slot s = 1; s < arena.size(); ++s) {
        ASSERT_LT(arena.arrival(s - 1), arena.arrival(s));
      }
    }
    EXPECT_GE(sweeps, 3) << "adaptive=" << adaptive;
  }
}

TEST(PointArenaTest, PeakRowsDoNotGrowWithTheWindow) {
  // The arena holds each stored point once plus the rows added since the
  // last sweep, at most as many again (and at least 64 before a sweep), so
  // its peak follows the stored points, which do not grow with W. A
  // 200-point window is smaller than the coreset the data needs, so its
  // peak sits lower; 10x and 100x longer windows stay within a constant
  // factor of it.
  const auto peak_rows = [](int64_t window) {
    SlidingWindowOptions options;
    options.window_size = window;
    options.delta = 1.0;
    options.d_min = 0.05;
    options.d_max = 300.0;
    FairCenterSlidingWindow algo(options, ColorConstraint({2, 2}), &kMetric,
                                 &kJones);
    Rng rng(29);
    size_t peak = 0;
    int64_t peak_stored = 0;
    for (int64_t t = 0; t < 3 * window; ++t) {
      EXPECT_TRUE(algo.Update(SquarePoint(&rng, 100.0)).ok());
      peak = std::max(peak, algo.arena().size());
      peak_stored = std::max(peak_stored, algo.Memory().TotalPoints());
    }
    EXPECT_LE(peak, static_cast<size_t>(2 * peak_stored + 64))
        << "W=" << window;
    return peak;
  };
  const size_t small = peak_rows(200);
  const size_t medium = peak_rows(2000);
  const size_t large = peak_rows(20000);
  EXPECT_LT(medium, 3 * small) << small << " " << medium << " " << large;
  EXPECT_LT(large, 3 * small) << small << " " << medium << " " << large;
  EXPECT_LE(large, medium + medium / 4)
      << small << " " << medium << " " << large;
}

TEST(PointArenaTest, BatchesGiveEqualCheckpointsAndSlotsAtAnyThreadCount) {
  for (const bool adaptive : {true, false}) {
    SlidingWindowOptions options = AdaptiveOptions(250);
    if (!adaptive) {
      options.adaptive_range = false;
      options.d_min = 0.05;
      options.d_max = 300.0;
    }
    SlidingWindowOptions threaded = options;
    threaded.num_threads = 4;
    const ColorConstraint constraint({2, 1});
    FairCenterSlidingWindow one(options, constraint, &kMetric, &kJones);
    FairCenterSlidingWindow four(threaded, constraint, &kMetric, &kJones);
    Rng rng(41);
    Rng sizes(43);
    for (int b = 0; b < 60; ++b) {
      std::vector<Point> batch(1 + sizes.NextBounded(40));
      // Drift the scale so the adaptive ladder retires and adds guesses.
      const double scale = 1.0 + static_cast<double>((b * 7) % 100);
      for (Point& p : batch) p = SquarePoint(&rng, scale);
      ASSERT_TRUE(one.UpdateBatch(batch).ok());
      ASSERT_TRUE(four.UpdateBatch(batch).ok());
      ASSERT_EQ(one.SerializeState(), four.SerializeState())
          << "adaptive=" << adaptive << " batch " << b;
      // The sweeps ran at the same points: the slots agree too.
      ASSERT_EQ(RowIds(one.arena()), RowIds(four.arena()))
          << "adaptive=" << adaptive << " batch " << b;
    }
  }
}

TEST(PointArenaTest, RestoreThenSerializeIsByteEqual) {
  // Through guess retirement and warm starts: the scale jumps between
  // decades, so the adaptive ladder retires guesses and seeds new ones by
  // replay. At every step a restored window serializes to the same bytes,
  // and a window restored earlier and fed the same arrivals (its arena
  // numbered differently) still does.
  FairCenterSlidingWindow window(AdaptiveOptions(120), ColorConstraint({2, 2}),
                                 &kMetric, &kJones);
  Rng rng(53);
  std::vector<FairCenterSlidingWindow> followers;
  int64_t retired = 0;
  int64_t added = 0;
  int64_t guesses = 0;
  for (int t = 1; t <= 900; ++t) {
    const double scale = std::pow(10.0, static_cast<double>((t / 150) % 3));
    const Point p = SquarePoint(&rng, scale);
    ASSERT_TRUE(window.Update(p).ok());
    for (FairCenterSlidingWindow& follower : followers) {
      ASSERT_TRUE(follower.Update(p).ok());
    }
    const int64_t now_guesses = window.Memory().guesses;
    retired += std::max<int64_t>(0, guesses - now_guesses);
    added += std::max<int64_t>(0, now_guesses - guesses);
    guesses = now_guesses;

    const std::string bytes = window.SerializeState();
    auto restored =
        FairCenterSlidingWindow::DeserializeState(bytes, &kMetric, &kJones);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ASSERT_EQ(restored.value().SerializeState(), bytes) << "t=" << t;
    for (const FairCenterSlidingWindow& follower : followers) {
      ASSERT_EQ(follower.SerializeState(), bytes) << "t=" << t;
    }
    if (t % 100 == 0) followers.push_back(std::move(restored).value());
  }
  EXPECT_GT(retired, 0);
  EXPECT_GT(added, 0);
}

}  // namespace
}  // namespace fkc
