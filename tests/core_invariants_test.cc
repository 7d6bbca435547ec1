// Property tests for the per-guess structures against a mirrored naive
// window: the structural invariants of Section 3 and the coverage guarantees
// of Lemma 1, checked exhaustively at every time step of randomized streams.
#include <gtest/gtest.h>

#include <deque>
#include <limits>

#include "common/random.h"
#include "core/fair_center_sliding_window.h"
#include "core/guess_structure.h"
#include "metric/metric.h"
#include "sequential/color_constraint.h"
#include "sequential/jones_fair_center.h"

namespace fkc {
namespace {

const EuclideanMetric kMetric;

struct InvariantCase {
  uint64_t seed;
  double gamma;
  double delta;
  int64_t window_size;
  int colors;
  CoreVariant variant;
};

class GuessStructureInvariantsTest
    : public ::testing::TestWithParam<InvariantCase> {};

// Minimum arrival among v-attractors (the Cleanup threshold).
int64_t OldestVAttractor(const GuessStructure& guess,
                         const PointArena& arena) {
  int64_t oldest = std::numeric_limits<int64_t>::max();
  const AttractorList& entries = guess.v_entries();
  for (size_t e = 0; e < entries.size(); ++e) {
    oldest = std::min(oldest, arena.arrival(entries.attractor(e)));
  }
  return oldest;
}

// The representatives of entry e as Points.
std::vector<Point> RepPoints(const AttractorList& entries, size_t e,
                             const PointArena& arena) {
  std::vector<Point> reps;
  entries.ForEachRep(e, [&](Slot s) { reps.push_back(arena.ToPoint(s)); });
  return reps;
}

// The coordinate pools expire by dropping their front, which mirrors the
// entries only while they ascend strictly by attractor arrival, and the
// expiry watermark reads only the front attractor, which is exact only while
// no representative arrives before its attractor: checks both orders, and
// that pool position i holds entries[i]'s attractor.
::testing::AssertionResult EntriesOrderedAndMirrored(
    const GuessStructure& guess, const PointArena& arena) {
  const auto check = [&arena](const char* family,
                              const AttractorList& entries,
                              const CoordinatePool& pool)
      -> ::testing::AssertionResult {
    if (pool.size() != entries.size()) {
      return ::testing::AssertionFailure()
             << family << " pool holds " << pool.size() << " points for "
             << entries.size() << " entries";
    }
    for (size_t i = 0; i < entries.size(); ++i) {
      const Point attractor = arena.ToPoint(entries.attractor(i));
      if (i > 0 &&
          attractor.arrival <= arena.arrival(entries.attractor(i - 1))) {
        return ::testing::AssertionFailure()
               << family << " entries out of arrival order at " << i;
      }
      for (const Point& rep : RepPoints(entries, i, arena)) {
        if (rep.arrival < attractor.arrival) {
          return ::testing::AssertionFailure()
                 << family << " entry " << i << " holds a representative ("
                 << rep.arrival << ") older than its attractor ("
                 << attractor.arrival << ")";
        }
      }
      for (size_t d = 0; d < pool.dim(); ++d) {
        if (pool.At(i, d) != attractor.coords[d]) {
          return ::testing::AssertionFailure()
                 << family << " pool position " << i << " is not entry " << i;
        }
      }
    }
    return ::testing::AssertionSuccess();
  };
  ::testing::AssertionResult v = check("v", guess.v_entries(), guess.v_pool());
  if (!v) return v;
  return check("c", guess.c_entries(), guess.c_pool());
}

TEST_P(GuessStructureInvariantsTest, HoldAtEveryStep) {
  const InvariantCase c = GetParam();
  const ColorConstraint constraint(std::vector<int>(c.colors, 2));
  const int k = constraint.TotalK();
  GuessStructure guess(c.gamma, c.delta, c.window_size, constraint,
                       c.variant);
  PointArena arena;

  std::deque<Point> window;
  Rng rng(c.seed);
  for (int64_t t = 1; t <= 6 * c.window_size; ++t) {
    Point p({rng.NextUniform(0, 50), rng.NextUniform(0, 50)},
            static_cast<int>(rng.NextBounded(c.colors)));
    p.arrival = t;
    p.id = static_cast<uint64_t>(t);
    window.push_back(p);
    if (static_cast<int64_t>(window.size()) > c.window_size) {
      window.pop_front();
    }
    guess.Update(arena.Add(p), p, t, arena, kMetric, nullptr);

    // --- Structural invariants. ---
    ASSERT_TRUE(EntriesOrderedAndMirrored(guess, arena)) << "t=" << t;
    // |AV| <= k + 1 after every update.
    ASSERT_LE(guess.v_attractor_count(), k + 1);
    // v-attractors pairwise > 2*gamma.
    const AttractorList& v = guess.v_entries();
    for (size_t i = 0; i < v.size(); ++i) {
      for (size_t j = i + 1; j < v.size(); ++j) {
        ASSERT_GT(kMetric.Distance(arena.ToPoint(v.attractor(i)),
                                   arena.ToPoint(v.attractor(j))),
                  2.0 * c.gamma);
      }
    }
    // c-attractors pairwise > delta*gamma/2.
    const AttractorList& ca = guess.c_entries();
    for (size_t i = 0; i < ca.size(); ++i) {
      for (size_t j = i + 1; j < ca.size(); ++j) {
        ASSERT_GT(kMetric.Distance(arena.ToPoint(ca.attractor(i)),
                                   arena.ToPoint(ca.attractor(j))),
                  c.delta * c.gamma / 2.0);
      }
    }
    // Every stored point is active; representatives sit within attraction
    // radius of their attractor; per-color caps are respected.
    for (size_t e = 0; e < v.size(); ++e) {
      const Point attractor = arena.ToPoint(v.attractor(e));
      ASSERT_TRUE(IsActive(attractor, t, c.window_size));
      for (const Point& rep : RepPoints(v, e, arena)) {
        ASSERT_TRUE(IsActive(rep, t, c.window_size));
        ASSERT_LE(kMetric.Distance(rep, attractor), 2.0 * c.gamma + 1e-12);
      }
      for (int color = 0; color < c.colors; ++color) {
        ASSERT_LE(CountColor(v, e, color, arena),
                  c.variant == CoreVariant::kFull ? 1 : constraint.cap(color));
      }
    }
    for (size_t e = 0; e < ca.size(); ++e) {
      const Point attractor = arena.ToPoint(ca.attractor(e));
      ASSERT_TRUE(IsActive(attractor, t, c.window_size));
      for (const Point& rep : RepPoints(ca, e, arena)) {
        ASSERT_TRUE(IsActive(rep, t, c.window_size));
        ASSERT_LE(kMetric.Distance(rep, attractor),
                  c.delta * c.gamma / 2.0 + 1e-12);
      }
      for (int color = 0; color < c.colors; ++color) {
        ASSERT_LE(CountColor(ca, e, color, arena), constraint.cap(color));
      }
    }
    for (Slot orphan : guess.v_orphans()) {
      ASSERT_TRUE(arena.IsActive(orphan, t, c.window_size));
    }
    for (Slot orphan : guess.c_orphans()) {
      ASSERT_TRUE(arena.IsActive(orphan, t, c.window_size));
    }

    // --- Lemma 1 coverage. ---
    // Relevant points: the whole window when the guess is valid, otherwise
    // the suffix younger than the oldest v-attractor.
    const bool valid = guess.IsValid();
    const int64_t threshold = valid ? 0 : OldestVAttractor(guess, arena);
    const std::vector<Point> rv = guess.ValidationPool(arena).ToPoints();
    const std::vector<Point> r = guess.CoresetPool(arena).ToPoints();
    for (const Point& q : window) {
      if (!valid && q.arrival < threshold) continue;
      ASSERT_LE(DistanceToSet(kMetric, q, rv), 4.0 * c.gamma + 1e-9)
          << "RV coverage broken at t=" << t << " for " << q.ToString();
      if (c.variant == CoreVariant::kFull) {
        ASSERT_LE(DistanceToSet(kMetric, q, r), c.delta * c.gamma + 1e-9)
            << "R coverage broken at t=" << t << " for " << q.ToString();
      }
    }

    // Memory accounting is consistent with the exposed containers.
    const MemoryStats memory = guess.Memory();
    ASSERT_EQ(memory.v_attractors, static_cast<int64_t>(v.size()));
    ASSERT_EQ(memory.v_representatives,
              v.total_reps() +
                  static_cast<int64_t>(guess.v_orphans().size()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GuessStructureInvariantsTest,
    ::testing::Values(
        // gamma large enough that the guess stays valid.
        InvariantCase{1, 40.0, 0.5, 30, 2, CoreVariant::kFull},
        // gamma small: the guess is mostly invalid, exercising Cleanup.
        InvariantCase{2, 1.0, 0.5, 30, 2, CoreVariant::kFull},
        // Intermediate scale, more colors, different deltas.
        InvariantCase{3, 8.0, 1.0, 25, 3, CoreVariant::kFull},
        InvariantCase{4, 8.0, 4.0, 25, 3, CoreVariant::kFull},
        InvariantCase{5, 15.0, 2.0, 40, 1, CoreVariant::kFull},
        // Corollary-2 variant at several scales.
        InvariantCase{6, 40.0, 4.0, 30, 2, CoreVariant::kValidationOnly},
        InvariantCase{7, 8.0, 4.0, 25, 3, CoreVariant::kValidationOnly},
        InvariantCase{8, 2.0, 4.0, 20, 2, CoreVariant::kValidationOnly}),
    [](const auto& info) {
      return "case" + std::to_string(info.param.seed);
    });

TEST(GuessStructureTest, ZeroCapArrivalNeverReachesAGuess) {
  // The window checks each arrival once, before any guess sees it, and a
  // guess does not check the cap again: a zero-cap color is rejected with
  // a Status and leaves the state as it was.
  const ColorConstraint constraint({1, 0});
  SlidingWindowOptions options;
  options.window_size = 10;
  options.d_min = 0.5;
  options.d_max = 10.0;
  const JonesFairCenter jones;
  FairCenterSlidingWindow window(options, constraint, &kMetric, &jones);
  ASSERT_TRUE(window.Update({0.0}, 0).ok());
  const std::string before = window.SerializeState();
  EXPECT_EQ(window.Update({1.0}, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(window.SerializeState(), before);
}

TEST(GuessStructureTest, ValidityFlipsWithScale) {
  // Points on a line spaced 10 apart, k = 1: a guess with gamma = 1 must
  // become invalid (two attractors > 2 apart), gamma = 100 stays valid.
  const ColorConstraint constraint({1});
  GuessStructure small(1.0, 0.5, 100, constraint, CoreVariant::kFull);
  GuessStructure large(100.0, 0.5, 100, constraint, CoreVariant::kFull);
  PointArena arena;
  for (int64_t t = 1; t <= 5; ++t) {
    const Slot p = arena.Add(Point({10.0 * static_cast<double>(t)}, 0, t,
                                   static_cast<uint64_t>(t)));
    small.Update(p, arena.ToPoint(p), t, arena, kMetric, nullptr);
    large.Update(p, arena.ToPoint(p), t, arena, kMetric, nullptr);
  }
  EXPECT_FALSE(small.IsValid());
  EXPECT_TRUE(large.IsValid());
}

TEST(GuessStructureTest, ValidityRecoversAfterExpiry) {
  // k = 1, window 4: two far points make the guess invalid; once the first
  // expires, validity returns.
  const ColorConstraint constraint({1});
  GuessStructure guess(1.0, 0.5, 4, constraint, CoreVariant::kFull);
  PointArena arena;
  int64_t t = 0;
  auto feed = [&](double x) {
    ++t;
    const Slot p = arena.Add(Point({x}, 0, t, static_cast<uint64_t>(t)));
    guess.Update(p, arena.ToPoint(p), t, arena, kMetric, nullptr);
  };
  feed(0.0);
  feed(100.0);
  EXPECT_FALSE(guess.IsValid());
  feed(100.1);
  feed(100.2);
  feed(100.3);  // t=5: the point at 0.0 (arrival 1) has expired
  EXPECT_TRUE(guess.IsValid());
}

TEST(GuessStructureTest, ReplayReproducesCoverage) {
  // Replaying a structure's stored points into a fresh structure of the same
  // gamma must preserve the RV coverage property for the replayed points.
  const ColorConstraint constraint({2, 2});
  GuessStructure source(5.0, 1.0, 50, constraint, CoreVariant::kFull);
  PointArena arena;
  Rng rng(7);
  int64_t t = 0;
  for (; t < 40;) {
    ++t;
    Point p({rng.NextUniform(0, 30)}, static_cast<int>(rng.NextBounded(2)));
    p.arrival = t;
    p.id = static_cast<uint64_t>(t);
    source.Update(arena.Add(p), p, t, arena, kMetric, nullptr);
  }
  GuessStructure copy(5.0, 1.0, 50, constraint, CoreVariant::kFull);
  source.ReplayInto(&copy, t, arena, kMetric);
  // Every point stored in the source is 4*gamma-covered in the copy's RV.
  const std::vector<Point> rv = copy.ValidationPool(arena).ToPoints();
  for (const Point& q : source.ValidationPool(arena).ToPoints()) {
    EXPECT_LE(DistanceToSet(kMetric, q, rv), 4.0 * 5.0 + 1e-9);
  }
}

TEST(GuessStructureTest, WarmStartedGuessesKeepPoolsInArrivalOrder) {
  // The adaptive range warm-starts a new guess by replaying a neighbour's
  // stored points (ReplayInto). Replay feeds old arrivals, so the copy's
  // entries and pools must still come out ascending, and stay so while
  // both keep streaming. Both variants, warm starts at several ages.
  for (CoreVariant variant :
       {CoreVariant::kFull, CoreVariant::kValidationOnly}) {
    const ColorConstraint constraint({2, 2});
    const int64_t window = 40;
    GuessStructure source(4.0, 1.0, window, constraint, variant);
    PointArena arena;
    std::vector<GuessStructure> copies;
    Rng rng(17);
    for (int64_t t = 1; t <= 5 * window; ++t) {
      if (t % 37 == 0) {
        // A neighbouring rung of a beta = 2 ladder, below and above.
        const double gamma = copies.size() % 2 == 0 ? 4.0 / 3.0 : 12.0;
        copies.emplace_back(gamma, 1.0, window, constraint, variant);
        source.ReplayInto(&copies.back(), t - 1, arena, kMetric);
        ASSERT_TRUE(EntriesOrderedAndMirrored(copies.back(), arena))
            << "replay at " << t;
      }
      Point p({rng.NextUniform(0, 40), rng.NextUniform(0, 40)},
              static_cast<int>(rng.NextBounded(2)));
      p.arrival = t;
      p.id = static_cast<uint64_t>(t);
      const Slot slot = arena.Add(p);
      source.Update(slot, p, t, arena, kMetric, nullptr);
      ASSERT_TRUE(EntriesOrderedAndMirrored(source, arena)) << "t=" << t;
      for (GuessStructure& copy : copies) {
        copy.Update(slot, p, t, arena, kMetric, nullptr);
        ASSERT_TRUE(EntriesOrderedAndMirrored(copy, arena))
            << "gamma=" << copy.gamma() << " t=" << t;
      }
    }
  }
}

TEST(GuessStructureTest, WindowStateRestoresAtEveryStep) {
  // End to end through FairCenterSlidingWindow: every guess of the ladder
  // (fixed range; adaptive with warm starts; the kValidationOnly variant)
  // must serialize entries that DeserializeState accepts, which requires
  // them to ascend strictly by attractor arrival.
  const JonesFairCenter jones;
  struct Mode {
    bool adaptive;
    CoreVariant variant;
  };
  for (const Mode mode : {Mode{false, CoreVariant::kFull},
                          Mode{true, CoreVariant::kFull},
                          Mode{false, CoreVariant::kValidationOnly}}) {
    SlidingWindowOptions options;
    options.window_size = 50;
    options.delta = 1.0;
    options.variant = mode.variant;
    options.adaptive_range = mode.adaptive;
    if (!mode.adaptive) {
      options.d_min = 0.1;
      options.d_max = 300.0;
    }
    FairCenterSlidingWindow window(options, ColorConstraint({2, 1}),
                                   &kMetric, &jones);
    Rng rng(23);
    for (int t = 1; t <= 200; ++t) {
      // Drift the scale so the adaptive ladder keeps adding guesses.
      const double scale = 1.0 + static_cast<double>(t % 100);
      window.Update({rng.NextUniform(0, scale), rng.NextUniform(0, scale)},
                    static_cast<int>(rng.NextBounded(2)));
      const auto restored = FairCenterSlidingWindow::DeserializeState(
          window.SerializeState(), &kMetric, &jones);
      ASSERT_TRUE(restored.ok())
          << "adaptive=" << mode.adaptive << " t=" << t << ": "
          << restored.status().ToString();
    }
  }
}

TEST(MemoryStatsTest, AdditionAndToString) {
  MemoryStats a;
  a.v_attractors = 1;
  a.v_representatives = 2;
  a.c_attractors = 3;
  a.c_representatives = 4;
  a.guesses = 1;
  MemoryStats b = a;
  b += a;
  EXPECT_EQ(b.TotalPoints(), 20);
  EXPECT_EQ(b.guesses, 2);
  EXPECT_NE(a.ToString().find("total=10"), std::string::npos);
}

}  // namespace
}  // namespace fkc
