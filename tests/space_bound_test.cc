// Quantitative space-bound tests for Theorem 2: per-guess structure sizes
// against their analytical envelopes, and end-to-end scaling behaviour of
// the stored-point count in k, delta, and the guess count.
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/fair_center_sliding_window.h"
#include "core/guess_structure.h"
#include "metric/metric.h"
#include "sequential/jones_fair_center.h"

namespace fkc {
namespace {

const EuclideanMetric kMetric;
const JonesFairCenter kJones;

// Feeds `steps` uniform 2-d points into a single guess structure.
MemoryStats DriveGuess(double gamma, double delta, int64_t window, int ell,
                       int cap, int64_t steps, uint64_t seed) {
  const ColorConstraint constraint(std::vector<int>(ell, cap));
  GuessStructure guess(gamma, delta, window, constraint,
                       CoreVariant::kFull);
  PointArena arena;
  Rng rng(seed);
  MemoryStats peak;
  for (int64_t t = 1; t <= steps; ++t) {
    Point p({rng.NextUniform(0, 100), rng.NextUniform(0, 100)},
            static_cast<int>(rng.NextBounded(ell)));
    p.arrival = t;
    p.id = static_cast<uint64_t>(t);
    guess.Update(arena.Add(p), p, t, arena, kMetric, nullptr);
    const MemoryStats now = guess.Memory();
    if (now.TotalPoints() > peak.TotalPoints()) peak = now;
  }
  return peak;
}

TEST(SpaceBoundTest, ValidationFamilyWithinFactOneEnvelope) {
  // Fact 1 of Theorem 2's proof: |AV| <= k+1 and |RV| <= 2(k+1).
  for (double gamma : {5.0, 20.0, 80.0}) {
    const int k = 3 * 2;  // ell = 3, cap = 2
    const MemoryStats peak = DriveGuess(gamma, 1.0, 50, 3, 2, 500, 7);
    EXPECT_LE(peak.v_attractors, k + 1) << "gamma=" << gamma;
    EXPECT_LE(peak.v_representatives, 2 * (k + 1)) << "gamma=" << gamma;
  }
}

TEST(SpaceBoundTest, CoresetAttractorsShrinkWithDelta) {
  // Fact 2: |A| <= 2(k+1)(32/delta)^D — in particular monotone in 1/delta.
  const MemoryStats fine = DriveGuess(20.0, 0.5, 200, 2, 2, 1000, 9);
  const MemoryStats coarse = DriveGuess(20.0, 4.0, 200, 2, 2, 1000, 9);
  EXPECT_GT(fine.c_attractors, coarse.c_attractors);
  // And per-attractor representative load is capped by k = sum k_i.
  EXPECT_LE(coarse.c_representatives,
            (coarse.c_attractors + 1) * 2 * (4 + 1));
}

TEST(SpaceBoundTest, InvalidGuessesStayTiny) {
  // A guess far below the data scale is permanently invalid; Cleanup must
  // keep only the young suffix, so the structure stays O(k) regardless of
  // the stream length.
  const MemoryStats peak = DriveGuess(0.001, 0.5, 10000, 2, 2, 5000, 11);
  EXPECT_LE(peak.TotalPoints(), 200);
}

TEST(SpaceBoundTest, TotalMemoryScalesWithLadderNotWindow) {
  // Driving the full algorithm with two window sizes and two ladder widths:
  // memory responds to the ladder (aspect ratio), not the window.
  auto run = [&](int64_t window, double d_max) {
    SlidingWindowOptions options;
    options.window_size = window;
    options.delta = 1.0;
    options.d_min = 0.5;
    options.d_max = d_max;
    const ColorConstraint constraint({2, 2});
    FairCenterSlidingWindow algo(options, constraint, &kMetric, &kJones);
    Rng rng(13);
    for (int t = 0; t < 3000; ++t) {
      algo.Update({rng.NextUniform(0, 100), rng.NextUniform(0, 100)},
                  static_cast<int>(rng.NextBounded(2)));
    }
    return algo.Memory();
  };

  const MemoryStats small_window = run(300, 200.0);
  const MemoryStats large_window = run(3000, 200.0);
  // 10x window: memory within 2x (same ladder, same data scale).
  EXPECT_LT(large_window.TotalPoints(), 2 * small_window.TotalPoints() + 100);

  const MemoryStats wide_ladder = run(300, 2.0e6);
  // 10^4 x wider range: strictly more guesses...
  EXPECT_GT(wide_ladder.guesses, small_window.guesses);
  // ...but the extra guesses are cheap (all invalid or trivially valid).
  EXPECT_LT(wide_ladder.TotalPoints(), 4 * small_window.TotalPoints() + 100);
}

TEST(SpaceBoundTest, MemoryGrowsWithK) {
  auto run = [&](int cap) {
    SlidingWindowOptions options;
    options.window_size = 500;
    options.delta = 1.0;
    options.adaptive_range = true;
    const ColorConstraint constraint(std::vector<int>(2, cap));
    FairCenterSlidingWindow algo(options, constraint, &kMetric, &kJones);
    Rng rng(15);
    for (int t = 0; t < 1500; ++t) {
      algo.Update({rng.NextUniform(0, 100), rng.NextUniform(0, 100)},
                  static_cast<int>(rng.NextBounded(2)));
    }
    return algo.Memory().TotalPoints();
  };
  // Theorem 2 is O(k^2 ...): doubling k should increase memory noticeably
  // but far less than quadratically at this scale.
  const int64_t k2 = run(1);
  const int64_t k8 = run(4);
  EXPECT_GT(k8, k2);
  EXPECT_LT(k8, 16 * k2);
}

}  // namespace
}  // namespace fkc
