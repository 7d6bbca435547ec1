// Objective-layer contract: the objective is a query-time solver choice on
// one window class, and a query argument of the serving layer. A window's
// state (and so its checkpoint) is the same whichever objective it answers
// for, so fleets keep emitting fkc-shards-v2 blobs; a k-median answer is
// the local search on the planned coreset; the manager answers exactly
// what the shard's window answers; spilled shards answer like live ones
// under either objective; forged objective tags and foreign shard blobs
// are rejected with a Status, never an abort; and the deterministic
// k-median local search honors its contract (medoids are input points,
// cost never above the Gonzalez seed, bit-identical reruns).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/checkpoint_io.h"
#include "common/random.h"
#include "core/fair_center_sliding_window.h"
#include "metric/metric.h"
#include "sequential/jones_fair_center.h"
#include "sequential/k_median.h"
#include "serving/shard_manager.h"

namespace fkc {
namespace {

const EuclideanMetric kMetric;
const JonesFairCenter kJones;
const ColorConstraint kConstraint({2, 1, 1});
const char* kKeys[] = {"tenant-a", "tenant-b", "tenant-c", "tenant-d"};

std::vector<Point> RandomPoints(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  for (int i = 0; i < n; ++i) {
    points.push_back(Point({rng.NextUniform(0, 50), rng.NextUniform(0, 50)},
                           static_cast<int>(rng.NextBounded(3))));
  }
  return points;
}

std::vector<serving::KeyedPoint> KeyedStream(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<serving::KeyedPoint> stream;
  for (int i = 0; i < n; ++i) {
    serving::KeyedPoint kp;
    kp.key = kKeys[rng.NextBounded(4)];
    kp.point = Point({rng.NextUniform(0, 50), rng.NextUniform(0, 50)},
                     static_cast<int>(rng.NextBounded(3)));
    stream.push_back(std::move(kp));
  }
  return stream;
}

serving::ShardManagerOptions Options() {
  serving::ShardManagerOptions options;
  options.window.window_size = 60;
  options.window.delta = 1.0;
  options.window.adaptive_range = true;
  return options;
}

// Same centers (coordinates and colors) and bit-identical value.
void ExpectSameSolution(const Result<ObjectiveSolution>& a,
                        const Result<ObjectiveSolution>& b,
                        const std::string& where) {
  ASSERT_TRUE(a.ok()) << where << ": " << a.status().ToString();
  ASSERT_TRUE(b.ok()) << where << ": " << b.status().ToString();
  EXPECT_EQ(a.value().value, b.value().value) << where;
  ASSERT_EQ(a.value().centers.size(), b.value().centers.size()) << where;
  for (size_t i = 0; i < a.value().centers.size(); ++i) {
    EXPECT_EQ(a.value().centers[i].coords, b.value().centers[i].coords)
        << where;
    EXPECT_EQ(a.value().centers[i].color, b.value().centers[i].color)
        << where;
  }
}

std::string MustCheckpoint(serving::ShardManager* manager) {
  auto blob = manager->CheckpointAll();
  EXPECT_TRUE(blob.ok()) << blob.status().ToString();
  return blob.ValueOr("");
}

SlidingWindowOptions WindowOptions() {
  SlidingWindowOptions options;
  options.window_size = 60;
  options.delta = 1.0;
  options.adaptive_range = true;
  return options;
}

// --- Wire tags. ---

TEST(ObjectiveTagTest, RoundTripsAndRejectsUnknown) {
  EXPECT_EQ(ObjectiveTag(ObjectiveKind::kFairCenter),
            std::string("fair-center"));
  EXPECT_EQ(ObjectiveTag(ObjectiveKind::kKMedian), std::string("k-median"));
  EXPECT_EQ(ParseObjectiveTag("fair-center").ValueOr(ObjectiveKind::kKMedian),
            ObjectiveKind::kFairCenter);
  EXPECT_EQ(ParseObjectiveTag("k-median").ValueOr(ObjectiveKind::kFairCenter),
            ObjectiveKind::kKMedian);
  for (const char* forged : {"k-center", "", "fair_center", "K-MEDIAN"}) {
    EXPECT_EQ(ParseObjectiveTag(forged).status().code(),
              StatusCode::kInvalidArgument)
        << forged;
  }
}

// --- The k-median solver's determinism contract. ---

TEST(KMedianSolverTest, MedoidsAreInputPointsAndRerunsAreBitIdentical) {
  const auto points = RandomPoints(120, 11);
  const KMedianSolution first = KMedianLocalSearch(kMetric, points, 5);
  const KMedianSolution second = KMedianLocalSearch(kMetric, points, 5);
  ASSERT_EQ(first.centers.size(), 5u);
  EXPECT_EQ(first.cost, second.cost);
  ASSERT_EQ(first.centers.size(), second.centers.size());
  for (size_t i = 0; i < first.centers.size(); ++i) {
    EXPECT_EQ(first.centers[i].coords, second.centers[i].coords);
    bool is_input = false;
    for (const Point& p : points) {
      if (p.coords == first.centers[i].coords &&
          p.color == first.centers[i].color) {
        is_input = true;
        break;
      }
    }
    EXPECT_TRUE(is_input) << "medoid " << i << " is not an input point";
  }
}

TEST(KMedianSolverTest, LocalSearchNeverWorseThanSeedAndHandlesEdges) {
  const auto points = RandomPoints(90, 13);
  // max_rounds = 0 resolves to the default bound; a 1-round run applies at
  // most one swap past the Gonzalez seed. Cost is monotone in rounds.
  KMedianOptions one_round;
  one_round.max_rounds = 1;
  const double seeded = KMedianLocalSearch(kMetric, points, 4, one_round).cost;
  const double settled = KMedianLocalSearch(kMetric, points, 4).cost;
  EXPECT_LE(settled, seeded);
  // k >= n: every point its own medoid, zero cost.
  const auto tiny = RandomPoints(3, 17);
  const KMedianSolution all = KMedianLocalSearch(kMetric, tiny, 10);
  EXPECT_EQ(all.centers.size(), tiny.size());
  EXPECT_EQ(all.cost, 0.0);
  // Empty input: empty zero-cost solution, no crash.
  const KMedianSolution empty = KMedianLocalSearch(kMetric, {}, 4);
  EXPECT_TRUE(empty.centers.empty());
  EXPECT_EQ(empty.cost, 0.0);
}

// --- k-median as a query on the one window. ---

TEST(KMedianQueryTest, SerializeRestoreIsByteEqualAndAnswersMatch) {
  FairCenterSlidingWindow window(WindowOptions(), kConstraint, &kMetric,
                                 &kJones);
  for (const Point& p : RandomPoints(150, 19)) window.Update(p);

  const std::string blob = window.SerializeState();
  ASSERT_EQ(blob.rfind("fkc-checkpoint-v2", 0), 0u)
      << "the window blob does not depend on the objective";
  auto restored =
      FairCenterSlidingWindow::DeserializeState(blob, &kMetric, &kJones);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().SerializeState(), blob);

  QueryStats stats;
  auto before = window.Query(ObjectiveKind::kKMedian, &stats);
  auto after = restored.value().Query(ObjectiveKind::kKMedian);
  ExpectSameSolution(before, after, "restored");
  EXPECT_EQ(before.value().centers.size(),
            static_cast<size_t>(kConstraint.TotalK()));
  EXPECT_GT(stats.coreset_size, 0);
  EXPECT_GT(before.value().value, 0.0);
}

TEST(KMedianQueryTest, AnswerIsLocalSearchOnThePlannedCoreset) {
  FairCenterSlidingWindow window(WindowOptions(), kConstraint, &kMetric,
                                 &kJones);
  const std::vector<Point> points = RandomPoints(200, 59);
  for (size_t t = 0; t < points.size(); ++t) {
    window.Update(points[t]);
    if (t % 37 != 5) continue;
    auto plan = window.PlanQuery();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const KMedianSolution expected =
        KMedianLocalSearch(kMetric, plan.value().coreset.ToPoints(),
                           kConstraint.TotalK());
    QueryStats stats;
    auto answer = window.Query(ObjectiveKind::kKMedian, &stats);
    ExpectSameSolution(answer,
                       ObjectiveSolution{expected.centers, expected.cost},
                       "t=" + std::to_string(t));
    EXPECT_EQ(stats.coreset_size, plan.value().stats.coreset_size);
    EXPECT_EQ(stats.guess, plan.value().stats.guess);
  }
}

// --- The objective is a query argument of the serving layer. ---

TEST(ObjectiveFleetTest, PureFairCenterFleetStaysOnV2Bytes) {
  serving::ShardManager manager(Options(), kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(manager.IngestBatch(KeyedStream(200, 29)).ok());
  const std::string blob = MustCheckpoint(&manager);
  EXPECT_EQ(blob.rfind("fkc-shards-v2", 0), 0u)
      << "the fleet must keep emitting v2 bytes";

  auto restored =
      serving::ShardManager::Restore(blob, &kMetric, &kJones);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(MustCheckpoint(&restored.value()), blob)
      << "restore -> re-checkpoint must be byte-equal";
}

TEST(ObjectiveFleetTest, OldKMedianWrapperSegmentIsRejectedNotFatal) {
  // Shard blobs are plain window blobs; a segment still wrapped in the
  // retired fkc-kmedian-v1 envelope is foreign bytes to Restore.
  serving::ShardManager manager(Options(), kConstraint, &kMetric, &kJones);
  std::vector<serving::KeyedPoint> stream;
  for (const Point& p : RandomPoints(80, 47)) stream.push_back({"tenant-a", p});
  ASSERT_TRUE(manager.IngestBatch(stream).ok());
  ASSERT_TRUE(manager.Query("tenant-a", nullptr, ObjectiveKind::kKMedian).ok());
  const std::string blob = MustCheckpoint(&manager);
  ASSERT_EQ(blob.rfind("fkc-shards-v2", 0), 0u);
  const std::string window = manager.shard("tenant-a")->SerializeState();

  // Re-emit the shard segment ("<size> <bytes>") with the window wrapped
  // the way the retired k-median class wrote it.
  const std::string segment_tail = " " + window;
  const size_t window_at = blob.find(segment_tail);
  ASSERT_NE(window_at, std::string::npos);
  const size_t size_at = blob.rfind(' ', window_at - 1) + 1;
  std::ostringstream wrapped;
  wrapped << "fkc-kmedian-v1 ";
  WriteCheckpointRaw(&wrapped, window);
  std::ostringstream segment;
  WriteCheckpointRaw(&segment, wrapped.str());
  const std::string spliced =
      blob.substr(0, size_at) + segment.str() +
      blob.substr(window_at + segment_tail.size() + 1);

  auto restored = serving::ShardManager::Restore(spliced, &kMetric, &kJones);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(ObjectiveFleetTest, EachQueryChoosesItsObjective) {
  serving::ShardManager manager(Options(), kConstraint, &kMetric, &kJones);
  std::vector<serving::KeyedPoint> stream;
  for (const Point& p : RandomPoints(100, 53)) {
    stream.push_back({"tenant-a", p});
  }
  ASSERT_TRUE(manager.IngestBatch(stream).ok());

  QueryStats fair_stats;
  QueryStats median_stats;
  auto fair = manager.Query("tenant-a", &fair_stats);
  auto median =
      manager.Query("tenant-a", &median_stats, ObjectiveKind::kKMedian);
  ASSERT_TRUE(fair.ok()) << fair.status().ToString();
  ASSERT_TRUE(median.ok()) << median.status().ToString();
  // The manager answers exactly what the shard's window answers.
  FairCenterSlidingWindow* window = manager.shard("tenant-a");
  ASSERT_NE(window, nullptr);
  ExpectSameSolution(fair, window->Query(ObjectiveKind::kFairCenter),
                     "fair-center");
  ExpectSameSolution(median, window->Query(ObjectiveKind::kKMedian),
                     "k-median");
  // Both objectives are solved on the one planned coreset.
  EXPECT_EQ(median_stats.coreset_size, fair_stats.coreset_size);
  EXPECT_EQ(median_stats.guess, fair_stats.guess);
  // k-median reports a SUM of distances over the coreset; fair-center a
  // covering radius. On 100 spread-out points the sum exceeds the max.
  EXPECT_GT(median.value().value, fair.value().value);
  EXPECT_EQ(median.value().centers.size(),
            static_cast<size_t>(kConstraint.TotalK()));
}

TEST(ObjectiveFleetTest, SameStreamGivesSameWindowBytesUnderEitherObjective) {
  // Two fleets on one stream, one queried only for fair-center and one
  // only for k-median: the objective must leak into neither the windows
  // nor the fleet blob.
  serving::ShardManager fair(Options(), kConstraint, &kMetric, &kJones);
  serving::ShardManager median(Options(), kConstraint, &kMetric, &kJones);
  const auto stream = KeyedStream(240, 61);
  ASSERT_TRUE(fair.IngestBatch(stream).ok());
  ASSERT_TRUE(median.IngestBatch(stream).ok());
  const std::string before = MustCheckpoint(&median);

  for (const char* key : kKeys) {
    ASSERT_TRUE(fair.Query(key).ok()) << key;
    ASSERT_TRUE(median.Query(key, nullptr, ObjectiveKind::kKMedian).ok())
        << key;
  }
  for (const auto& answer : median.QueryAll(ObjectiveKind::kKMedian)) {
    ASSERT_TRUE(answer.solution.ok()) << answer.key;
  }
  for (const char* key : kKeys) {
    ASSERT_NE(fair.shard(key), nullptr);
    ASSERT_NE(median.shard(key), nullptr);
    EXPECT_EQ(fair.shard(key)->SerializeState(),
              median.shard(key)->SerializeState())
        << key;
  }
  const std::string after = MustCheckpoint(&median);
  EXPECT_EQ(after.rfind("fkc-shards-v2", 0), 0u);
  EXPECT_EQ(after, before) << "a k-median query must not change the bytes";
  EXPECT_EQ(after, MustCheckpoint(&fair));
}

TEST(ObjectiveFleetTest, SpilledShardsAnswerLikeLiveOnes) {
  serving::ShardManagerOptions spill_options = Options();
  spill_options.max_live_shards = 1;
  serving::ShardManager spilling(spill_options, kConstraint, &kMetric,
                                 &kJones);
  serving::ShardManager live(Options(), kConstraint, &kMetric, &kJones);
  for (serving::ShardManager* manager : {&spilling, &live}) {
    ASSERT_TRUE(manager->IngestBatch(KeyedStream(240, 67)).ok());
  }
  ASSERT_EQ(spilling.spilled_shard_count(), 3u);

  // QueryAll answers spilled shards from ephemeral reads, under either
  // objective.
  for (ObjectiveKind objective :
       {ObjectiveKind::kKMedian, ObjectiveKind::kFairCenter}) {
    const auto from_spill = spilling.QueryAll(objective);
    const auto from_live = live.QueryAll(objective);
    ASSERT_EQ(from_spill.size(), from_live.size());
    for (size_t i = 0; i < from_spill.size(); ++i) {
      EXPECT_EQ(from_spill[i].key, from_live[i].key);
      ExpectSameSolution(from_spill[i].solution, from_live[i].solution,
                         std::string("QueryAll ") + ObjectiveTag(objective) +
                             " " + from_live[i].key);
    }
  }
  EXPECT_EQ(spilling.spilled_shard_count(), 3u)
      << "QueryAll must not rehydrate";
  // Query rehydrates each shard in turn, spilling the previous one.
  for (const char* key : kKeys) {
    ExpectSameSolution(spilling.Query(key, nullptr, ObjectiveKind::kKMedian),
                       live.Query(key, nullptr, ObjectiveKind::kKMedian),
                       std::string("Query k-median ") + key);
    ExpectSameSolution(spilling.Query(key), live.Query(key),
                       std::string("Query fair-center ") + key);
  }
  EXPECT_GT(spilling.rehydrations(), 0);
}

}  // namespace
}  // namespace fkc
