// Checkpoint/restore tests: bit-exact round trips, behavioural equivalence
// of original and restored windows under continued streaming, and rejection
// of malformed input.
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/fair_center_sliding_window.h"
#include "metric/metric.h"
#include "sequential/jones_fair_center.h"

namespace fkc {
namespace {

const EuclideanMetric kMetric;
const JonesFairCenter kJones;

FairCenterSlidingWindow MakeWindow(bool adaptive,
                                   CoreVariant variant = CoreVariant::kFull) {
  SlidingWindowOptions options;
  options.window_size = 60;
  options.delta = 1.0;
  options.variant = variant;
  options.adaptive_range = adaptive;
  if (!adaptive) {
    options.d_min = 0.1;
    options.d_max = 500.0;
  }
  return FairCenterSlidingWindow(options, ColorConstraint({2, 2}), &kMetric,
                                 &kJones);
}

void FeedRandom(FairCenterSlidingWindow* window, int count, Rng* rng) {
  for (int i = 0; i < count; ++i) {
    window->Update({rng->NextUniform(0, 200), rng->NextUniform(0, 200)},
                   static_cast<int>(rng->NextBounded(2)));
  }
}

class CheckpointTest : public ::testing::TestWithParam<bool> {};

TEST_P(CheckpointTest, RoundTripPreservesStateExactly) {
  FairCenterSlidingWindow window = MakeWindow(GetParam());
  Rng rng(7);
  FeedRandom(&window, 150, &rng);

  const std::string bytes = window.SerializeState();
  auto restored = FairCenterSlidingWindow::DeserializeState(bytes, &kMetric,
                                                            &kJones);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  // Identical footprint and clocks.
  EXPECT_EQ(window.Memory().ToString(),
            restored.value().Memory().ToString());
  EXPECT_EQ(window.now(), restored.value().now());
  EXPECT_EQ(window.WindowPopulation(), restored.value().WindowPopulation());

  // Identical query answers.
  QueryStats original_stats, restored_stats;
  auto original_solution = window.Query(&original_stats);
  auto restored_solution = restored.value().Query(&restored_stats);
  ASSERT_TRUE(original_solution.ok());
  ASSERT_TRUE(restored_solution.ok());
  EXPECT_DOUBLE_EQ(original_solution.value().radius,
                   restored_solution.value().radius);
  EXPECT_DOUBLE_EQ(original_stats.guess, restored_stats.guess);
  EXPECT_EQ(original_stats.coreset_size, restored_stats.coreset_size);

  // Serialization is deterministic and stable across a round trip.
  EXPECT_EQ(bytes, restored.value().SerializeState());
}

TEST_P(CheckpointTest, RestoredWindowBehavesIdenticallyGoingForward) {
  FairCenterSlidingWindow window = MakeWindow(GetParam());
  Rng rng(11);
  FeedRandom(&window, 120, &rng);

  auto restored = FairCenterSlidingWindow::DeserializeState(
      window.SerializeState(), &kMetric, &kJones);
  ASSERT_TRUE(restored.ok());

  // Feed the same continuation into both; answers must stay identical.
  Rng continuation(13);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 40; ++i) {
      const Coordinates coords = {continuation.NextUniform(0, 200),
                                  continuation.NextUniform(0, 200)};
      const int color = static_cast<int>(continuation.NextBounded(2));
      window.Update(coords, color);
      restored.value().Update(coords, color);
    }
    auto a = window.Query();
    auto b = restored.value().Query();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_DOUBLE_EQ(a.value().radius, b.value().radius) << "round " << round;
    EXPECT_EQ(a.value().centers.size(), b.value().centers.size());
    EXPECT_EQ(window.Memory().ToString(),
              restored.value().Memory().ToString());
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, CheckpointTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "adaptive" : "fixed";
                         });

TEST(CheckpointTest, LiteVariantRoundTrips) {
  FairCenterSlidingWindow window =
      MakeWindow(true, CoreVariant::kValidationOnly);
  Rng rng(17);
  FeedRandom(&window, 100, &rng);
  auto restored = FairCenterSlidingWindow::DeserializeState(
      window.SerializeState(), &kMetric, &kJones);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().options().variant,
            CoreVariant::kValidationOnly);
  EXPECT_EQ(window.Memory().ToString(), restored.value().Memory().ToString());
}

TEST(CheckpointTest, EmptyWindowRoundTrips) {
  FairCenterSlidingWindow window = MakeWindow(true);
  auto restored = FairCenterSlidingWindow::DeserializeState(
      window.SerializeState(), &kMetric, &kJones);
  ASSERT_TRUE(restored.ok());
  auto solution = restored.value().Query();
  ASSERT_TRUE(solution.ok());
  EXPECT_TRUE(solution.value().centers.empty());
}

TEST(CheckpointTest, RejectsGarbage) {
  auto bad = FairCenterSlidingWindow::DeserializeState("not a checkpoint",
                                                       &kMetric, &kJones);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  auto empty =
      FairCenterSlidingWindow::DeserializeState("", &kMetric, &kJones);
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, RejectsTruncation) {
  FairCenterSlidingWindow window = MakeWindow(true);
  Rng rng(19);
  FeedRandom(&window, 80, &rng);
  const std::string bytes = window.SerializeState();
  const std::string truncated = bytes.substr(0, bytes.size() / 2);
  auto restored = FairCenterSlidingWindow::DeserializeState(truncated,
                                                            &kMetric, &kJones);
  EXPECT_FALSE(restored.ok());
}

TEST(CheckpointTest, RejectsVersionMismatch) {
  FairCenterSlidingWindow window = MakeWindow(true);
  std::string bytes = window.SerializeState();
  bytes.replace(bytes.find("v1"), 2, "v9");
  auto restored =
      FairCenterSlidingWindow::DeserializeState(bytes, &kMetric, &kJones);
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

// Truncation cannot alter interior tokens, so corruption of content a
// restored window would feed into CHECK-guarded code — inconsistent point
// dimensions, non-finite coordinates, aliasing guess exponents, counts far
// beyond the blob — is covered by hand-built blobs: every one must fail
// with InvalidArgument, never abort or over-allocate.
TEST(CheckpointTest, RejectsCorruptInteriorContent) {
  // Minimal adaptive blob: header, {2,1} constraint, now=3, next_id=4, one
  // last point, one estimator bucket, one guess holding one v-attractor.
  const std::string header = "fkc-checkpoint-v1 10 0x1p+1 0x1p+0 0 1 "
                             "0x0p+0 0x0p+0 1 1 2 2 1 3 4 ";
  const std::string point = "2 0x1p+0 0x1p+0 0 3 3 ";
  // Arrival 2 (id 2, and a twin with id 1), far enough from `point` to be
  // another attractor.
  const std::string older = "2 0x1p+6 0x1p+0 0 2 2 ";
  const std::string older_twin = "2 0x1p+7 0x1p+0 0 2 1 ";
  const std::string buckets = "1 0 3 ";
  auto blob = [&](const std::string& guesses) {
    return header + "1 " + point + buckets + guesses;
  };
  const std::string good_guess =
      std::string("1 0 ") + "1 " + point + "0 " + "0 0 0 ";
  ASSERT_TRUE(FairCenterSlidingWindow::DeserializeState(blob(good_guess),
                                                        &kMetric, &kJones)
                  .ok());
  // The same two attractors in arrival order restore fine.
  ASSERT_TRUE(FairCenterSlidingWindow::DeserializeState(
                  blob(std::string("1 0 ") + "2 " + older + "0 " + point +
                       "0 " + "0 0 0 "),
                  &kMetric, &kJones)
                  .ok());
  // So do representatives no older than their attractor, in either family:
  // the attractor itself, or a later arrival.
  for (const std::string& reps :
       {"1 " + point, "1 " + older, "2 " + older + point}) {
    ASSERT_TRUE(FairCenterSlidingWindow::DeserializeState(
                    blob(std::string("1 0 ") + "1 " + older + reps + "0 " +
                         "0 0 "),
                    &kMetric, &kJones)
                    .ok())
        << "v reps " << reps;
    ASSERT_TRUE(FairCenterSlidingWindow::DeserializeState(
                    blob(std::string("1 0 ") + "0 0 " + "1 " + older + reps +
                         "0 "),
                    &kMetric, &kJones)
                    .ok())
        << "c reps " << reps;
  }

  const struct {
    const char* label;
    std::string guesses;
  } kCases[] = {
      // The attractor's dimension disagrees with the last point's.
      {"inconsistent dim",
       std::string("1 0 ") + "1 " + "1 0x1p+0 0 3 3 " + "0 " + "0 0 0 "},
      {"nan coordinate",
       std::string("1 0 ") + "1 " + "2 nan 0x1p+0 0 3 3 " + "0 " + "0 0 0 "},
      {"color out of range",
       std::string("1 0 ") + "1 " + "2 0x1p+0 0x1p+0 5 3 3 " + "0 " +
           "0 0 0 "},
      // Orphan count far beyond the blob: must reject before resizing.
      {"forged point count",
       std::string("1 0 ") + "1 " + point + "268435455 " + "0 0 0 "},
      // 2^32 + 3 would alias to exponent 3 after an unchecked narrowing.
      {"aliasing exponent",
       std::string("1 4294967299 ") + "1 " + point + "0 " + "0 0 0 "},
      {"duplicate exponent",
       std::string("2 0 ") + "1 " + point + "0 " + "0 0 0 " + "0 " + "1 " +
           point + "0 " + "0 0 0 "},
      // Entries must ascend strictly by attractor arrival: the restored
      // coordinate pools expire by dropping their front.
      {"v-entries out of arrival order",
       std::string("1 0 ") + "2 " + point + "0 " + older + "0 " + "0 0 0 "},
      {"c-entries out of arrival order",
       std::string("1 0 ") + "1 " + point + "0 " + "0 " + "2 " + point +
           "0 " + older + "0 " + "0 "},
      {"v-entries with equal arrivals",
       std::string("1 0 ") + "2 " + older + "0 " + older_twin + "0 " +
           "0 0 0 "},
      // A representative never arrives before its attractor: the expiry
      // watermark reads only each list's front attractor.
      {"v-representative older than its attractor",
       std::string("1 0 ") + "1 " + point + "1 " + older + "0 " + "0 0 "},
      {"c-representative older than its attractor",
       std::string("1 0 ") + "0 0 " + "1 " + point + "1 " + older + "0 "},
      {"older representative behind a newer one",
       std::string("1 0 ") + "0 0 " + "1 " + point + "2 " + point + older +
           "0 "},
  };
  for (const auto& c : kCases) {
    auto restored = FairCenterSlidingWindow::DeserializeState(
        blob(c.guesses), &kMetric, &kJones);
    ASSERT_FALSE(restored.ok()) << c.label;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << c.label;
  }
}

// Forged ids and clocks used to pass validation: a negative id aliased to a
// huge uint64 (colliding with future arrivals), an arrival beyond the
// restored clock never expired, and an id counter at or below a stored id
// would re-issue ids that SamePoint treats as identity. All must reject.
TEST(CheckpointTest, RejectsForgedClocksAndIds) {
  // Same minimal adaptive layout as above, with the clock fields and the
  // stored point's "<arrival> <id>" injectable.
  auto blob = [](const char* now_and_next, const char* arrival_and_id) {
    const std::string point =
        std::string("2 0x1p+0 0x1p+0 0 ") + arrival_and_id + " ";
    return std::string("fkc-checkpoint-v1 10 0x1p+1 0x1p+0 0 1 "
                       "0x0p+0 0x0p+0 1 1 2 2 1 ") +
           now_and_next + " 1 " + point + "1 0 3 " + "1 0 " + "1 " + point +
           "0 " + "0 0 0 ";
  };
  ASSERT_TRUE(FairCenterSlidingWindow::DeserializeState(blob("3 4", "3 3"),
                                                        &kMetric, &kJones)
                  .ok());

  // Two forgeries no honest writer can produce, each of which used to
  // CHECK-abort after restore: a zero-dimension point aborts the pool
  // rebuild, and stored points without a last point leave the dimension
  // pin unset so a mismatched ingest reaches the SoA kernels.
  const std::string header = "fkc-checkpoint-v1 10 0x1p+1 0x1p+0 0 1 "
                             "0x0p+0 0x0p+0 1 1 2 2 1 3 4 ";
  const std::string point = "2 0x1p+0 0x1p+0 0 3 3 ";
  const std::string zero_dim_blob = header + "1 " + "0 0 3 3 " + "1 0 3 " +
                                    "1 0 " + "1 " + "0 0 3 3 " + "0 " +
                                    "0 0 0 ";
  const std::string orphaned_points_blob =
      header + "0 " + "1 0 3 " + "1 0 " + "1 " + point + "0 " + "0 0 0 ";
  // An estimator bucket witnessed at t=5 in a window whose clock is 3: the
  // bucket would never expire and permanently inflate the adaptive range.
  const std::string future_bucket_blob =
      header + "1 " + point + "1 0 5 " + "1 0 " + "1 " + point + "0 " +
      "0 0 0 ";

  const struct {
    const char* label;
    std::string bytes;
  } kCases[] = {
      {"negative id counter", blob("3 -1", "3 3")},
      {"negative point id", blob("3 4", "3 -7")},
      {"arrival beyond the clock", blob("3 4", "5 3")},
      {"id counter behind stored ids", blob("3 3", "3 3")},
      {"zero-dimension point", zero_dim_blob},
      {"stored points without a last point", orphaned_points_blob},
      {"bucket witness beyond the clock", future_bucket_blob},
  };
  for (const auto& c : kCases) {
    auto restored =
        FairCenterSlidingWindow::DeserializeState(c.bytes, &kMetric, &kJones);
    ASSERT_FALSE(restored.ok()) << c.label;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << c.label;
  }
}

}  // namespace
}  // namespace fkc
