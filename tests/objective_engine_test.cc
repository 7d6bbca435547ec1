// Objective-layer contract: the objective is a query-time solver choice on
// one window class. A window's state (and so its checkpoint) is the same
// whichever objective it answers for; a k-median answer is the local search
// on the planned coreset. Fair-center fleets keep emitting byte-identical
// fkc-shards-v2 checkpoints (pre-objective builds restore them); mixed
// fleets round-trip through fkc-shards-v3 byte-equal;
// spilled shards answer like live ones under either objective; forged
// objective tags and foreign shard blobs are rejected with a Status, never
// an abort; SetTenantObjective is creation-time-only; and the deterministic
// k-median local search honors its contract (medoids are input points, cost
// never above the Gonzalez seed, bit-identical reruns).
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

// --- Fleet formats: v2 byte-compat for pure fair-center, v3 round-trips
// for mixed fleets. ---

TEST(ObjectiveFleetTest, PureFairCenterFleetStaysOnV2Bytes) {
  serving::ShardManager manager(Options(), kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(manager.IngestBatch(KeyedStream(200, 29)).ok());
  const std::string blob = MustCheckpoint(&manager);
  EXPECT_EQ(blob.rfind("fkc-shards-v2", 0), 0u)
      << "a default-objective fleet must keep emitting v2 bytes";

  auto restored =
      serving::ShardManager::Restore(blob, &kMetric, &kJones);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(MustCheckpoint(&restored.value()), blob)
      << "restore -> re-checkpoint must be byte-equal";
}

TEST(ObjectiveFleetTest, MixedFleetRoundTripsByteEqual) {
  serving::ShardManager manager(Options(), kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(
      manager.SetTenantObjective("tenant-b", ObjectiveKind::kKMedian).ok());
  ASSERT_TRUE(
      manager.SetTenantObjective("tenant-d", ObjectiveKind::kKMedian).ok());
  ASSERT_TRUE(manager.IngestBatch(KeyedStream(200, 31)).ok());
  const std::string blob = MustCheckpoint(&manager);
  EXPECT_EQ(blob.rfind("fkc-shards-v3", 0), 0u);

  auto restored = serving::ShardManager::Restore(blob, &kMetric, &kJones);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(MustCheckpoint(&restored.value()), blob);
  EXPECT_EQ(restored.value().TenantObjective("tenant-a"),
            ObjectiveKind::kFairCenter);
  EXPECT_EQ(restored.value().TenantObjective("tenant-b"),
            ObjectiveKind::kKMedian);

  // The restored mixed fleet answers exactly like the original, each
  // tenant under its own objective.
  auto before = manager.QueryAll();
  auto after = restored.value().QueryAll();
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    ASSERT_TRUE(before[i].solution.ok());
    ASSERT_TRUE(after[i].solution.ok());
    EXPECT_EQ(before[i].key, after[i].key);
    EXPECT_EQ(before[i].solution.value().value,
              after[i].solution.value().value);
  }
}

TEST(ObjectiveFleetTest, NonDefaultFleetObjectiveSurvivesRestore) {
  serving::ShardManagerOptions options = Options();
  options.objective = ObjectiveKind::kKMedian;
  serving::ShardManager manager(options, kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(manager.IngestBatch(KeyedStream(150, 37)).ok());
  const std::string blob = MustCheckpoint(&manager);
  EXPECT_EQ(blob.rfind("fkc-shards-v3", 0), 0u)
      << "non-default fleet objective forces the v3 format";
  auto restored = serving::ShardManager::Restore(blob, &kMetric, &kJones);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().TenantObjective("tenant-a"),
            ObjectiveKind::kKMedian);
  EXPECT_EQ(MustCheckpoint(&restored.value()), blob);
}

TEST(ObjectiveFleetTest, DeltaCarriesObjectiveTableToTheFollower) {
  serving::ShardManager leader(Options(), kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(
      leader.SetTenantObjective("tenant-c", ObjectiveKind::kKMedian).ok());
  const auto stream = KeyedStream(240, 41);
  const std::vector<serving::KeyedPoint> first_half(stream.begin(),
                                                    stream.begin() + 120);
  const std::vector<serving::KeyedPoint> second_half(stream.begin() + 120,
                                                     stream.end());
  ASSERT_TRUE(leader.IngestBatch(first_half).ok());
  const std::string base = MustCheckpoint(&leader);

  auto follower = serving::ShardManager::Restore(base, &kMetric, &kJones);
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();

  ASSERT_TRUE(leader.IngestBatch(second_half).ok());
  auto delta = leader.CheckpointDelta();
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta.value().rfind("fkc-shards-delta-v3", 0), 0u)
      << "a mixed fleet's delta must carry the objective table";
  ASSERT_TRUE(follower.value().ApplyDelta(delta.value()).ok());
  EXPECT_EQ(MustCheckpoint(&follower.value()), MustCheckpoint(&leader));
  EXPECT_EQ(follower.value().TenantObjective("tenant-c"),
            ObjectiveKind::kKMedian);
}

// --- Forged tags and mismatched blobs degrade to Status. ---

TEST(ObjectiveFleetTest, ForgedObjectiveTagsAreRejectedNotFatal) {
  serving::ShardManager manager(Options(), kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(
      manager.SetTenantObjective("tenant-b", ObjectiveKind::kKMedian).ok());
  ASSERT_TRUE(manager.IngestBatch(KeyedStream(120, 43)).ok());
  const std::string blob = MustCheckpoint(&manager);

  // Forge the fleet-default tag ("fair-center", right after the magic).
  std::string forged = blob;
  const size_t tag_at = forged.find("fair-center");
  ASSERT_NE(tag_at, std::string::npos);
  forged.replace(tag_at, 11, "k-mediocre!");
  auto bad_default =
      serving::ShardManager::Restore(forged, &kMetric, &kJones);
  ASSERT_FALSE(bad_default.ok());
  EXPECT_EQ(bad_default.status().code(), StatusCode::kInvalidArgument);

  // Forge the override table's tag the same way.
  std::string forged_override = blob;
  const size_t override_at = forged_override.find("k-median");
  ASSERT_NE(override_at, std::string::npos);
  forged_override.replace(override_at, 8, "k-maxian");
  auto bad_override =
      serving::ShardManager::Restore(forged_override, &kMetric, &kJones);
  ASSERT_FALSE(bad_override.ok());
  EXPECT_EQ(bad_override.status().code(), StatusCode::kInvalidArgument);

  // Every truncation of the v3 blob fails with a Status, never an abort.
  for (size_t cut = 0; cut < blob.size(); cut += 97) {
    auto truncated =
        serving::ShardManager::Restore(blob.substr(0, cut), &kMetric, &kJones);
    EXPECT_FALSE(truncated.ok()) << "cut at " << cut;
  }
}

TEST(ObjectiveFleetTest, OldKMedianWrapperSegmentIsRejectedNotFatal) {
  // Shard blobs are plain window blobs; a segment still wrapped in the
  // retired fkc-kmedian-v1 envelope is foreign bytes to Restore.
  serving::ShardManagerOptions options = Options();
  options.objective = ObjectiveKind::kKMedian;
  serving::ShardManager manager(options, kConstraint, &kMetric, &kJones);
  std::vector<serving::KeyedPoint> stream;
  for (const Point& p : RandomPoints(80, 47)) stream.push_back({"tenant-a", p});
  ASSERT_TRUE(manager.IngestBatch(stream).ok());
  const std::string blob = MustCheckpoint(&manager);
  ASSERT_EQ(blob.rfind("fkc-shards-v3", 0), 0u);
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

// --- SetTenantObjective lifecycle. ---

TEST(ObjectiveFleetTest, ObjectiveIsFixedAtShardCreation) {
  serving::ShardManager manager(Options(), kConstraint, &kMetric, &kJones);
  EXPECT_EQ(manager.TenantObjective("tenant-a"), ObjectiveKind::kFairCenter);
  ASSERT_TRUE(
      manager.SetTenantObjective("tenant-a", ObjectiveKind::kKMedian).ok());
  EXPECT_EQ(manager.TenantObjective("tenant-a"), ObjectiveKind::kKMedian);
  // Re-registering the default erases the override.
  ASSERT_TRUE(
      manager.SetTenantObjective("tenant-a", ObjectiveKind::kFairCenter).ok());
  EXPECT_EQ(manager.TenantObjective("tenant-a"), ObjectiveKind::kFairCenter);
  ASSERT_TRUE(
      manager.SetTenantObjective("tenant-a", ObjectiveKind::kKMedian).ok());

  ASSERT_TRUE(manager.Ingest("tenant-a", Point({1.0, 2.0}, 0)).ok());
  auto late =
      manager.SetTenantObjective("tenant-a", ObjectiveKind::kFairCenter);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition)
      << "an existing shard's objective must be immutable";
  EXPECT_EQ(manager.TenantObjective("tenant-a"), ObjectiveKind::kKMedian);

  // The shard really answers k-median queries.
  ASSERT_NE(manager.shard("tenant-a"), nullptr);
  ExpectSameSolution(manager.Query("tenant-a"),
                     manager.shard("tenant-a")->Query(ObjectiveKind::kKMedian),
                     "tenant-a");
}

TEST(ObjectiveFleetTest, MixedFleetAnswersBothObjectivesOnOneStream) {
  serving::ShardManager manager(Options(), kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(
      manager.SetTenantObjective("tenant-b", ObjectiveKind::kKMedian).ok());
  // Identical per-tenant streams so the objective is the only difference.
  std::vector<serving::KeyedPoint> stream;
  for (const Point& p : RandomPoints(100, 53)) {
    stream.push_back({"tenant-a", p});
    stream.push_back({"tenant-b", p});
  }
  ASSERT_TRUE(manager.IngestBatch(stream).ok());

  auto fair = manager.Query("tenant-a");
  auto median = manager.Query("tenant-b");
  ASSERT_TRUE(fair.ok()) << fair.status().ToString();
  ASSERT_TRUE(median.ok()) << median.status().ToString();
  // k-median reports a SUM of distances over the coreset; fair-center a
  // covering radius. On 100 spread-out points the sum exceeds the max.
  EXPECT_GT(median.value().value, fair.value().value);
  EXPECT_EQ(median.value().centers.size(),
            static_cast<size_t>(kConstraint.TotalK()));
}

TEST(ObjectiveFleetTest, SameStreamGivesSameWindowBytesUnderEitherObjective) {
  serving::ShardManager manager(Options(), kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(
      manager.SetTenantObjective("tenant-b", ObjectiveKind::kKMedian).ok());
  std::vector<serving::KeyedPoint> stream;
  for (const Point& p : RandomPoints(120, 61)) {
    stream.push_back({"tenant-a", p});
    stream.push_back({"tenant-b", p});
  }
  ASSERT_TRUE(manager.IngestBatch(stream).ok());
  ASSERT_NE(manager.shard("tenant-a"), nullptr);
  ASSERT_NE(manager.shard("tenant-b"), nullptr);
  EXPECT_EQ(manager.shard("tenant-a")->SerializeState(),
            manager.shard("tenant-b")->SerializeState())
      << "the objective must not leak into the window state";
}

TEST(ObjectiveFleetTest, SpilledShardsAnswerLikeLiveOnes) {
  serving::ShardManagerOptions spill_options = Options();
  spill_options.max_live_shards = 1;
  serving::ShardManager spilling(spill_options, kConstraint, &kMetric,
                                 &kJones);
  serving::ShardManager live(Options(), kConstraint, &kMetric, &kJones);
  for (serving::ShardManager* manager : {&spilling, &live}) {
    ASSERT_TRUE(
        manager->SetTenantObjective("tenant-b", ObjectiveKind::kKMedian).ok());
    ASSERT_TRUE(
        manager->SetTenantObjective("tenant-d", ObjectiveKind::kKMedian).ok());
    ASSERT_TRUE(manager->IngestBatch(KeyedStream(240, 67)).ok());
  }
  ASSERT_EQ(spilling.spilled_shard_count(), 3u);

  // QueryAll answers spilled shards from ephemeral reads.
  const auto from_spill = spilling.QueryAll();
  const auto from_live = live.QueryAll();
  ASSERT_EQ(from_spill.size(), from_live.size());
  for (size_t i = 0; i < from_spill.size(); ++i) {
    EXPECT_EQ(from_spill[i].key, from_live[i].key);
    ExpectSameSolution(from_spill[i].solution, from_live[i].solution,
                       "QueryAll " + from_live[i].key);
  }
  // Query rehydrates each shard in turn, spilling the previous one.
  for (const char* key : kKeys) {
    ExpectSameSolution(spilling.Query(key), live.Query(key),
                       std::string("Query ") + key);
  }
  EXPECT_GT(spilling.rehydrations(), 0);
}

}  // namespace
}  // namespace fkc
