// ShardManager contract: keyed routing equals standalone windows, batched
// ingest equals per-point ingest at any thread count, query multiplexing is
// deterministic, and the fleet survives a kill/restore cycle — every shard
// answers identically before and after, including under interleaved
// post-restore updates.
//
// Multi-tenant hardening contract: invalid arrivals are rejected without
// aborting (dropping only the offenders), per-tenant option overrides apply
// at creation and survive checkpoints, TTL/LRU eviction is transparent
// (spilled shards answer identically and rehydrate bit-exactly), delta
// checkpoints reproduce the full-checkpoint fleet, v1 blobs still restore,
// and no truncation of any blob can crash the process.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/checkpoint_io.h"
#include "common/random.h"
#include "core/options_io.h"
#include "metric/metric.h"
#include "sequential/jones_fair_center.h"
#include "serving/shard_manager.h"

namespace fkc {
namespace {

const EuclideanMetric kMetric;
const JonesFairCenter kJones;
const char* kKeys[] = {"tenant-a", "tenant-b", "tenant-c"};

std::vector<serving::KeyedPoint> KeyedStream(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<serving::KeyedPoint> stream;
  for (int i = 0; i < n; ++i) {
    serving::KeyedPoint kp;
    kp.key = kKeys[rng.NextBounded(3)];
    kp.point = Point({rng.NextUniform(0, 50), rng.NextUniform(0, 50)},
                     static_cast<int>(rng.NextBounded(3)));
    stream.push_back(std::move(kp));
  }
  return stream;
}

serving::ShardManagerOptions Options(int num_threads) {
  serving::ShardManagerOptions options;
  options.window.window_size = 60;
  options.window.delta = 1.0;
  options.window.adaptive_range = true;
  options.num_threads = num_threads;
  return options;
}

const ColorConstraint kConstraint({2, 1, 1});

// CheckpointAll / CheckpointDelta are fallible now (a spill backend read
// may fail); the happy-path tests unwrap through these.
std::string MustCheckpoint(serving::ShardManager* manager) {
  auto blob = manager->CheckpointAll();
  EXPECT_TRUE(blob.ok()) << blob.status().ToString();
  return blob.ValueOr("");
}

std::string MustDelta(serving::ShardManager* manager) {
  auto blob = manager->CheckpointDelta();
  EXPECT_TRUE(blob.ok()) << blob.status().ToString();
  return blob.ValueOr("");
}

bool SameSolution(const ObjectiveSolution& a, const ObjectiveSolution& b) {
  if (a.value != b.value || a.centers.size() != b.centers.size()) {
    return false;
  }
  for (size_t i = 0; i < a.centers.size(); ++i) {
    if (a.centers[i].coords != b.centers[i].coords ||
        a.centers[i].color != b.centers[i].color) {
      return false;
    }
  }
  return true;
}

void ExpectSameAnswers(const std::vector<serving::ShardAnswer>& a,
                       const std::vector<serving::ShardAnswer>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    ASSERT_EQ(a[i].solution.ok(), b[i].solution.ok()) << a[i].key;
    if (a[i].solution.ok()) {
      EXPECT_TRUE(
          SameSolution(a[i].solution.value(), b[i].solution.value()))
          << a[i].key;
    }
    EXPECT_EQ(a[i].stats.guess, b[i].stats.guess) << a[i].key;
    EXPECT_EQ(a[i].stats.coreset_size, b[i].stats.coreset_size) << a[i].key;
    EXPECT_EQ(a[i].stats.guesses_inspected, b[i].stats.guesses_inspected)
        << a[i].key;
  }
}

TEST(ShardManagerTest, RoutesByKeyLikeStandaloneWindows) {
  const auto stream = KeyedStream(200, 7);
  serving::ShardManager manager(Options(1), kConstraint, &kMetric, &kJones);
  for (const auto& kp : stream) manager.Ingest(kp.key, kp.point);

  for (const char* key : kKeys) {
    FairCenterSlidingWindow standalone(Options(1).window, kConstraint,
                                       &kMetric, &kJones);
    for (const auto& kp : stream) {
      if (kp.key == key) standalone.Update(kp.point);
    }
    ASSERT_NE(manager.shard(key), nullptr);
    EXPECT_EQ(manager.shard(key)->SerializeState(),
              standalone.SerializeState())
        << key;
  }
}

TEST(ShardManagerTest, IngestBatchMatchesPerPointIngestAtAnyThreadCount) {
  const auto stream = KeyedStream(300, 11);
  serving::ShardManager reference(Options(1), kConstraint, &kMetric, &kJones);
  for (const auto& kp : stream) reference.Ingest(kp.key, kp.point);

  for (int threads : {1, 4}) {
    serving::ShardManager batched(Options(threads), kConstraint, &kMetric,
                                  &kJones);
    for (size_t start = 0; start < stream.size(); start += 48) {
      std::vector<serving::KeyedPoint> batch(
          stream.begin() + start,
          stream.begin() + std::min(start + 48, stream.size()));
      batched.IngestBatch(std::move(batch));
    }
    ASSERT_EQ(batched.Keys(), reference.Keys());
    for (const std::string& key : reference.Keys()) {
      EXPECT_EQ(batched.shard(key)->SerializeState(),
                reference.shard(key)->SerializeState())
          << key << " at " << threads << " threads";
    }
  }
}

TEST(ShardManagerTest, QueryAllMatchesPerShardQueries) {
  const auto stream = KeyedStream(240, 13);
  serving::ShardManager fanout(Options(4), kConstraint, &kMetric, &kJones);
  serving::ShardManager single(Options(1), kConstraint, &kMetric, &kJones);
  for (const auto& kp : stream) {
    fanout.Ingest(kp.key, kp.point);
    single.Ingest(kp.key, kp.point);
  }

  const auto answers = fanout.QueryAll();
  ASSERT_EQ(answers.size(), single.shard_count());
  for (const auto& answer : answers) {
    QueryStats stats;
    auto expected = single.Query(answer.key, &stats);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(answer.solution.ok());
    EXPECT_TRUE(SameSolution(answer.solution.value(), expected.value()))
        << answer.key;
    EXPECT_EQ(answer.stats.guess, stats.guess);
    EXPECT_EQ(answer.stats.coreset_size, stats.coreset_size);
    EXPECT_EQ(answer.stats.guesses_inspected, stats.guesses_inspected);
  }
}

TEST(ShardManagerTest, QueryUnknownKeyIsNotFound) {
  serving::ShardManager manager(Options(1), kConstraint, &kMetric, &kJones);
  auto result = manager.Query("never-seen");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

// The acceptance criterion: checkpoint all shards, reconstruct, and answer
// queries identically — also after further interleaved per-shard updates.
TEST(ShardManagerTest, SurvivesKillRestoreCycle) {
  const auto stream = KeyedStream(320, 17);
  const auto more = KeyedStream(160, 19);

  serving::ShardManager original(Options(2), kConstraint, &kMetric, &kJones);
  for (const auto& kp : stream) original.Ingest(kp.key, kp.point);
  const auto before = original.QueryAll();

  const std::string blob = MustCheckpoint(&original);
  auto restored =
      serving::ShardManager::Restore(blob, &kMetric, &kJones, /*threads=*/4);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().shard_count(), original.shard_count());

  // Identical answers immediately after restore.
  ExpectSameAnswers(before, restored.value().QueryAll());

  // Identical behaviour under further interleaved per-shard updates.
  for (const auto& kp : more) {
    original.Ingest(kp.key, kp.point);
    restored.value().Ingest(kp.key, kp.point);
  }
  ExpectSameAnswers(original.QueryAll(), restored.value().QueryAll());
  for (const std::string& key : original.Keys()) {
    EXPECT_EQ(original.shard(key)->SerializeState(),
              restored.value().shard(key)->SerializeState())
        << key;
  }
}

// The restored manager keeps the window template: tenants first seen after
// the restore get a shard with the same configuration.
TEST(ShardManagerTest, NewTenantAfterRestoreUsesTemplate) {
  serving::ShardManager manager(Options(1), kConstraint, &kMetric, &kJones);
  manager.Ingest("tenant-a", Point({1.0, 2.0}, 0));
  auto restored = serving::ShardManager::Restore(MustCheckpoint(&manager),
                                                 &kMetric, &kJones);
  ASSERT_TRUE(restored.ok());
  restored.value().Ingest("tenant-new", Point({3.0, 4.0}, 1));
  ASSERT_NE(restored.value().shard("tenant-new"), nullptr);
  EXPECT_EQ(restored.value().shard("tenant-new")->options().window_size,
            Options(1).window.window_size);
  EXPECT_EQ(restored.value().shard("tenant-new")->now(), 1);
}

TEST(ShardManagerTest, RestoreRejectsGarbage) {
  auto bad_magic =
      serving::ShardManager::Restore("not-a-checkpoint 1 2 3", &kMetric,
                                     &kJones);
  EXPECT_FALSE(bad_magic.ok());

  serving::ShardManager manager(Options(1), kConstraint, &kMetric, &kJones);
  manager.Ingest("tenant-a", Point({1.0, 2.0}, 0));
  std::string truncated = MustCheckpoint(&manager);
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(
      serving::ShardManager::Restore(truncated, &kMetric, &kJones).ok());
}

// A front-end must reject one tenant's garbage without taking down the
// fleet: oversized keys and out-of-range colors fail with InvalidArgument,
// and a mixed batch drops exactly the offending arrivals.
TEST(ShardManagerTest, InvalidArrivalsAreRejectedNotFatal) {
  const auto stream = KeyedStream(120, 23);
  serving::ShardManager manager(Options(1), kConstraint, &kMetric, &kJones);
  serving::ShardManager reference(Options(1), kConstraint, &kMetric, &kJones);

  const std::string oversized(1u << 20, 'k');
  auto status = manager.Ingest(oversized, Point({1.0, 1.0}, 0));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.Ingest("ok", Point({1.0, 1.0}, 7)).code(),
            StatusCode::kInvalidArgument)
      << "color 7 is outside the 3-color constraint";
  EXPECT_EQ(manager.shard_count(), 0u) << "nothing was consumed";

  // A batch with offenders sprinkled in: every valid arrival lands, the
  // offenders are dropped, and the status names the problem.
  std::vector<serving::KeyedPoint> batch;
  for (const auto& kp : stream) {
    batch.push_back(kp);
    ASSERT_TRUE(reference.Ingest(kp.key, kp.point).ok());
  }
  batch.insert(batch.begin() + 5, {oversized, Point({0.0, 0.0}, 0)});
  batch.insert(batch.begin() + 40, {"ok", Point({0.0, 0.0}, -1)});
  auto mixed = manager.IngestBatch(std::move(batch));
  EXPECT_EQ(mixed.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mixed.message().find("dropped 2 of 122"), std::string::npos)
      << mixed.message();

  ASSERT_EQ(manager.Keys(), reference.Keys());
  for (const std::string& key : reference.Keys()) {
    EXPECT_EQ(manager.shard(key)->SerializeState(),
              reference.shard(key)->SerializeState())
        << key;
  }
}

// A NaN/Inf (or empty) coordinate used to be accepted at ingest although
// DeserializeState rejects it — one poisoned arrival made CheckpointAll
// emit a blob Restore refuses and a spilled shard permanently fail
// rehydration. It must be rejected up front, so every blob the fleet emits
// stays restorable.
TEST(ShardManagerTest, NonFiniteCoordinatesRejectedAndBlobsStayRestorable) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  serving::ShardManager manager(Options(1), kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(manager.Ingest("tenant-a", Point({1.0, 2.0}, 0)).ok());

  EXPECT_EQ(manager.Ingest("tenant-a", Point({nan, 1.0}, 0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.Ingest("tenant-a", Point({1.0, -inf}, 0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.Ingest("tenant-a", Point(Coordinates{}, 0)).code(),
            StatusCode::kInvalidArgument);

  // Batch path: the offender is dropped, the valid arrival still lands.
  std::vector<serving::KeyedPoint> batch;
  batch.push_back({"tenant-a", Point({nan, nan}, 0)});
  batch.push_back({"tenant-a", Point({3.0, 4.0}, 1)});
  EXPECT_EQ(manager.IngestBatch(std::move(batch)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.shard("tenant-a")->WindowPopulation(), 2);

  // The round trip the poisoned arrivals used to break: a full checkpoint
  // restores, and a spilled shard rehydrates and answers identically.
  auto restored = serving::ShardManager::Restore(MustCheckpoint(&manager),
                                                 &kMetric, &kJones);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSameAnswers(manager.QueryAll(), restored.value().QueryAll());

  ASSERT_TRUE(manager.Ingest("tenant-b", Point({5.0, 6.0}, 0)).ok());
  EXPECT_GT(manager.EvictIdle(/*idle_ttl=*/0), 0);
  auto rehydrated = manager.Query("tenant-a");
  ASSERT_TRUE(rehydrated.ok()) << rehydrated.status().ToString();
}

// A color inside [0, ell) whose cap is zero is representable everywhere but
// can never host a center — GuessStructure::Update CHECK-aborts on it, so
// the front-end must reject it like any other invalid arrival.
TEST(ShardManagerTest, ZeroCapColorsAreRejectedNotFatal) {
  serving::ShardManager manager(Options(1), ColorConstraint({2, 0}), &kMetric,
                                &kJones);
  EXPECT_EQ(manager.Ingest("t", Point({1.0, 1.0}, 1)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.shard_count(), 0u) << "nothing was consumed";
  ASSERT_TRUE(manager.Ingest("t", Point({1.0, 1.0}, 0)).ok());

  std::vector<serving::KeyedPoint> batch;
  batch.push_back({"t", Point({2.0, 2.0}, 1)});
  batch.push_back({"t", Point({3.0, 3.0}, 0)});
  EXPECT_EQ(manager.IngestBatch(std::move(batch)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.shard("t")->WindowPopulation(), 2)
      << "only the zero-cap arrival was dropped";
}

// The first accepted arrival pins a shard's coordinate dimension; a later
// mismatch would CHECK-abort in the SoA distance kernels and poison the
// checkpoint (DeserializeState requires one dimension per shard). Distinct
// shards may still use distinct dimensions.
TEST(ShardManagerTest, DimensionMismatchesAreRejectedPerShard) {
  serving::ShardManager manager(Options(1), kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(manager.Ingest("2d", Point({1.0, 2.0}, 0)).ok());
  EXPECT_EQ(manager.Ingest("2d", Point({1.0, 2.0, 3.0}, 0)).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(manager.Ingest("3d", Point({1.0, 2.0, 3.0}, 0)).ok());
  EXPECT_EQ(manager.shard("2d")->WindowPopulation(), 1);

  // The pin survives spilling — and rejecting must not rehydrate.
  ASSERT_TRUE(manager.Ingest("3d", Point({4.0, 5.0, 6.0}, 1)).ok());
  EXPECT_EQ(manager.EvictIdle(/*idle_ttl=*/0), 1) << "only '2d' was idle";
  EXPECT_EQ(manager.Ingest("2d", Point({1.0}, 0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.spilled_shard_count(), 1u)
      << "the rejected arrival must not rehydrate the shard";
  ASSERT_TRUE(manager.Ingest("2d", Point({7.0, 8.0}, 0)).ok());

  // In a batch, the first accepted arrival of a brand-new key pins the
  // dimension for the rest of the batch.
  std::vector<serving::KeyedPoint> batch;
  batch.push_back({"new", Point({1.0}, 0)});
  batch.push_back({"new", Point({1.0, 2.0}, 0)});
  EXPECT_EQ(manager.IngestBatch(std::move(batch)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.shard("new")->WindowPopulation(), 1);

  // And it survives a checkpoint round trip.
  auto restored = serving::ShardManager::Restore(MustCheckpoint(&manager),
                                                 &kMetric, &kJones);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().Ingest("2d", Point({1.0, 2.0, 3.0}, 0)).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(restored.value().Ingest("2d", Point({9.0, 9.0}, 0)).ok());
}

// Builds a v2 fleet blob whose single shard was serialized under `caps` —
// letting tests forge a shard whose embedded constraint disagrees with the
// fleet-level one ({2, 1, 1} here, written as "3 2 1 1").
std::string BuildFleetBlobWithShardCaps(std::vector<int> caps) {
  FairCenterSlidingWindow shard(Options(1).window,
                                ColorConstraint(std::move(caps)), &kMetric,
                                &kJones);
  shard.Update(Point({1.0, 2.0}, 0));
  std::ostringstream out;
  out << "fkc-shards-v2 ";
  WriteSlidingWindowOptions(&out, Options(1).window);
  out << "3 2 1 1 ";  // fleet constraint
  out << "0 ";        // no overrides
  out << "1 ";
  WriteCheckpointRaw(&out, "tenant-a");
  WriteCheckpointRaw(&out, shard.SerializeState());
  return out.str();
}

// A forged or interior-corrupt blob whose shard was built under a different
// constraint used to restore fine and then CHECK-abort on the shard's next
// in-range ingest (StampArrival checks color against the shard's own ell).
// Restore must reject the mismatch up front.
TEST(ShardManagerTest, RestoreRejectsShardWithMismatchedConstraint) {
  auto mismatched = serving::ShardManager::Restore(
      BuildFleetBlobWithShardCaps({1}), &kMetric, &kJones);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);

  // Sanity: the same layout with a matching shard constraint restores.
  auto matching = serving::ShardManager::Restore(
      BuildFleetBlobWithShardCaps({2, 1, 1}), &kMetric, &kJones);
  ASSERT_TRUE(matching.ok()) << matching.status().ToString();
  EXPECT_TRUE(matching.value().Ingest("tenant-a", Point({3.0, 4.0}, 2)).ok());
}

// Same guard on the incremental path: ApplyDelta already verified the
// delta's fleet-level constraint but not each embedded shard blob's. A
// rejected delta must leave the fleet untouched.
TEST(ShardManagerTest, ApplyDeltaRejectsShardWithMismatchedConstraint) {
  serving::ShardManager manager(Options(1), kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(manager.Ingest("tenant-a", Point({1.0, 2.0}, 0)).ok());
  const auto before = manager.QueryAll();

  FairCenterSlidingWindow shard(Options(1).window, ColorConstraint({1}),
                                &kMetric, &kJones);
  shard.Update(Point({1.0, 2.0}, 0));
  std::ostringstream out;
  out << "fkc-shards-delta-v2 ";
  out << "3 2 1 1 ";  // delta fleet constraint matches the manager's
  out << "0 ";        // no overrides
  out << "1 ";
  WriteCheckpointRaw(&out, "tenant-b");
  WriteCheckpointRaw(&out, shard.SerializeState());

  EXPECT_EQ(manager.ApplyDelta(out.str()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.shard_count(), 1u) << "a rejected delta changes nothing";
  ExpectSameAnswers(before, manager.QueryAll());
}

// A fleet blob that names one shard key twice is forged or corrupt: the
// last segment must not silently win. Full and delta blobs share one
// segment reader, so both paths reject it and leave the fleet untouched.
TEST(ShardManagerTest, RepeatedShardKeyIsRejectedByRestoreAndApplyDelta) {
  FairCenterSlidingWindow shard(Options(1).window, kConstraint, &kMetric,
                                &kJones);
  shard.Update(Point({1.0, 2.0}, 0));
  std::ostringstream segment;
  WriteCheckpointRaw(&segment, "tenant-b");
  WriteCheckpointRaw(&segment, shard.SerializeState());
  const std::string repeated = "2 " + segment.str() + segment.str();

  serving::ShardManager manager(Options(1), kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(manager.Ingest("tenant-a", Point({1.0, 2.0}, 0)).ok());
  const auto before = manager.QueryAll();

  std::ostringstream full;
  full << "fkc-shards-v2 ";
  WriteSlidingWindowOptions(&full, Options(1).window);
  full << "3 2 1 1 0 " << repeated;  // fleet constraint, no overrides
  auto restored =
      serving::ShardManager::Restore(full.str(), &kMetric, &kJones);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);

  const std::string delta = "fkc-shards-delta-v2 3 2 1 1 0 " + repeated;
  EXPECT_EQ(manager.ApplyDelta(delta).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.shard_count(), 1u) << "a rejected delta changes nothing";
  ExpectSameAnswers(before, manager.QueryAll());

  // Sanity: the same blobs naming the key once are accepted.
  const std::string once = "1 " + segment.str();
  std::ostringstream full_once;
  full_once << "fkc-shards-v2 ";
  WriteSlidingWindowOptions(&full_once, Options(1).window);
  full_once << "3 2 1 1 0 " << once;
  EXPECT_TRUE(
      serving::ShardManager::Restore(full_once.str(), &kMetric, &kJones).ok());
  EXPECT_TRUE(manager.ApplyDelta("fkc-shards-delta-v2 3 2 1 1 0 " + once).ok());
  EXPECT_EQ(manager.shard_count(), 2u);
}

// Writes the PR-2 era fkc-shards-v1 fleet layout (no override table) for
// the shards of `manager`, byte-compatible with the old CheckpointAll.
std::string BuildV1Checkpoint(serving::ShardManager* manager) {
  std::ostringstream out;
  out << "fkc-shards-v1 ";
  const SlidingWindowOptions& w = manager->options().window;
  out << w.window_size << ' ';
  WriteCheckpointDouble(&out, w.beta);
  WriteCheckpointDouble(&out, w.delta);
  out << static_cast<int>(w.variant) << ' ' << (w.adaptive_range ? 1 : 0)
      << ' ';
  WriteCheckpointDouble(&out, w.d_min);
  WriteCheckpointDouble(&out, w.d_max);
  out << w.adaptive_slack_exponents << ' '
      << (w.warm_start_new_guesses ? 1 : 0) << ' ';
  out << manager->constraint().ell() << ' ';
  for (int cap : manager->constraint().caps()) out << cap << ' ';
  const auto keys = manager->Keys();
  out << keys.size() << ' ';
  for (const std::string& key : keys) {
    WriteCheckpointRaw(&out, key);
    WriteCheckpointRaw(&out, manager->shard(key)->SerializeState());
  }
  return out.str();
}

// Fleet blobs written before the v2 format (PR 2) must keep restoring.
TEST(ShardManagerTest, RestoreAcceptsV1Blobs) {
  const auto stream = KeyedStream(200, 29);
  serving::ShardManager manager(Options(1), kConstraint, &kMetric, &kJones);
  for (const auto& kp : stream) {
    ASSERT_TRUE(manager.Ingest(kp.key, kp.point).ok());
  }

  auto restored = serving::ShardManager::Restore(BuildV1Checkpoint(&manager),
                                                 &kMetric, &kJones);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().shard_count(), manager.shard_count());
  ExpectSameAnswers(manager.QueryAll(), restored.value().QueryAll());

  // And the v1 fleet re-checkpoints as v2 without losing anything.
  auto v2 = serving::ShardManager::Restore(MustCheckpoint(&restored.value()),
                                           &kMetric, &kJones);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  ExpectSameAnswers(manager.QueryAll(), v2.value().QueryAll());
}

// The satellite bugfix: implausible options in a blob (the adaptive slack
// read used to be narrowed to int unchecked; window_size / delta / beta
// were not validated at all) must fail with InvalidArgument, never abort.
TEST(ShardManagerTest, RestoreRejectsImplausibleOptions) {
  // Field order: window_size beta delta variant adaptive d_min d_max slack
  // warm, then the constraint. Each case corrupts one field of an
  // otherwise plausible header.
  const struct {
    const char* label;
    const char* header;
  } kCases[] = {
      {"zero window", "0 0x1p+1 0x1p+0 0 1 0x0p+0 0x0p+0 1 1"},
      {"zero delta", "60 0x1p+1 0x0p+0 0 1 0x0p+0 0x0p+0 1 1"},
      {"negative beta", "60 -0x1p+1 0x1p+0 0 1 0x0p+0 0x0p+0 1 1"},
      {"nan beta", "60 nan 0x1p+0 0 1 0x0p+0 0x0p+0 1 1"},
      {"bad variant", "60 0x1p+1 0x1p+0 9 1 0x0p+0 0x0p+0 1 1"},
      {"huge slack", "60 0x1p+1 0x1p+0 0 1 0x0p+0 0x0p+0 99999999999 1"},
      {"bad fixed range", "60 0x1p+1 0x1p+0 0 0 0x0p+0 0x0p+0 1 1"},
      // Per-field-plausible combo whose guess ladder would hold ~1e21
      // rungs: tiny beta, astronomical d_min..d_max span. Building it
      // would OOM (one GuessStructure per rung) after undefined
      // double->int narrowing in the ladder math.
      {"ladder blow-up", "60 0x1p-60 0x1p+0 0 0 0x1p-1000 0x1p+1000 1 1"},
  };
  for (const auto& c : kCases) {
    const std::string blob =
        std::string("fkc-shards-v2 ") + c.header + " 3 2 1 1 0 0 ";
    auto restored = serving::ShardManager::Restore(blob, &kMetric, &kJones);
    ASSERT_FALSE(restored.ok()) << c.label;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << c.label;
  }
  // All-zero caps would abort in the window constructor downstream.
  auto zero_caps = serving::ShardManager::Restore(
      "fkc-shards-v2 60 0x1p+1 0x1p+0 0 1 0x0p+0 0x0p+0 1 1 2 0 0 0 0 ",
      &kMetric, &kJones);
  ASSERT_FALSE(zero_caps.ok());
}

// The fuzz loop of the acceptance criterion: truncating a fleet blob (or a
// delta) at every byte offset must never crash — each prefix either fails
// with a non-OK status or (when only trailing separators were cut) restores
// a fleet that answers identically.
TEST(ShardManagerTest, CheckpointTruncationFuzzNeverCrashes) {
  serving::ShardManagerOptions options = Options(1);
  options.window.window_size = 20;
  serving::ShardManager manager(options, kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(manager
                  .SetTenantOptions("tenant-b",
                                    [&] {
                                      auto small = options.window;
                                      small.window_size = 8;
                                      return small;
                                    }())
                  .ok());
  const auto stream = KeyedStream(40, 31);
  for (const auto& kp : stream) {
    ASSERT_TRUE(manager.Ingest(kp.key, kp.point).ok());
  }
  const auto expected = manager.QueryAll();

  const std::string blob = MustCheckpoint(&manager);
  int restored_ok = 0;
  for (size_t cut = 0; cut <= blob.size(); ++cut) {
    auto restored = serving::ShardManager::Restore(blob.substr(0, cut),
                                                   &kMetric, &kJones);
    if (cut < blob.size() / 2) {
      EXPECT_FALSE(restored.ok()) << "cut=" << cut;
    }
    if (restored.ok()) {
      ++restored_ok;
      ExpectSameAnswers(expected, restored.value().QueryAll());
    }
  }
  EXPECT_GE(restored_ok, 1) << "the untruncated blob must restore";

  // Same sweep for the incremental format: a truncated delta must reject
  // and leave the target fleet untouched.
  ASSERT_TRUE(manager.Ingest("tenant-a", Point({3.0, 4.0}, 1)).ok());
  const std::string delta = MustDelta(&manager);
  const auto leader_answers = manager.QueryAll();
  auto follower = serving::ShardManager::Restore(blob, &kMetric, &kJones);
  ASSERT_TRUE(follower.ok());
  bool caught_up = false;  // flips once a (trailing-cut) apply succeeds
  for (size_t cut = 0; cut < delta.size(); ++cut) {
    const bool ok = follower.value().ApplyDelta(delta.substr(0, cut)).ok();
    caught_up = caught_up || ok;
    // A failed apply must leave the fleet untouched; verifying answers on
    // every one of thousands of cuts would dominate the test, so sample.
    if (ok || cut % 97 == 0) {
      ExpectSameAnswers(caught_up ? leader_answers : expected,
                        follower.value().QueryAll());
    }
  }
  ASSERT_TRUE(follower.value().ApplyDelta(delta).ok());
  ExpectSameAnswers(leader_answers, follower.value().QueryAll());
}

// Per-tenant overrides: applied at creation, rejected once the shard
// exists, carried through the v2 checkpoint so tenants first seen after a
// restore still get their configuration.
TEST(ShardManagerTest, TenantOverridesApplyAndSurviveCheckpoint) {
  serving::ShardManager manager(Options(1), kConstraint, &kMetric, &kJones);
  SlidingWindowOptions small = Options(1).window;
  small.window_size = 12;
  small.delta = 2.0;
  ASSERT_TRUE(manager.SetTenantOptions("small", small).ok());
  ASSERT_TRUE(manager.SetTenantOptions("future", small).ok());

  // An override identical to the template is not stored.
  ASSERT_TRUE(manager.SetTenantOptions("default", Options(1).window).ok());
  EXPECT_EQ(manager.TenantOptions("default"), nullptr);
  ASSERT_NE(manager.TenantOptions("small"), nullptr);

  const auto stream = KeyedStream(150, 37);
  for (const auto& kp : stream) {
    ASSERT_TRUE(manager.Ingest(kp.key, kp.point).ok());
    ASSERT_TRUE(manager.Ingest("small", kp.point).ok());
  }
  EXPECT_EQ(manager.shard("small")->options().window_size, 12);
  EXPECT_EQ(manager.shard("small")->options().delta, 2.0);
  EXPECT_EQ(manager.shard("tenant-a")->options().window_size,
            Options(1).window.window_size);

  // Too late for a tenant that already has a shard.
  EXPECT_EQ(manager.SetTenantOptions("small", Options(1).window).code(),
            StatusCode::kFailedPrecondition);

  // The override shard matches a standalone window with the same options.
  FairCenterSlidingWindow standalone(small, kConstraint, &kMetric, &kJones);
  for (const auto& kp : stream) standalone.Update(kp.point);
  EXPECT_EQ(manager.shard("small")->SerializeState(),
            standalone.SerializeState());

  // "future" never ingested: its override must travel through the blob.
  auto restored = serving::ShardManager::Restore(MustCheckpoint(&manager),
                                                 &kMetric, &kJones);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_TRUE(restored.value().Ingest("future", Point({1.0, 2.0}, 0)).ok());
  EXPECT_EQ(restored.value().shard("future")->options().window_size, 12);
  EXPECT_EQ(restored.value().shard("small")->options().window_size, 12);
}

// TTL eviction and the LRU cap must be invisible to answers: a fleet under
// aggressive spilling answers every query round — and finishes with the
// same per-shard state — as a never-evicted reference.
TEST(ShardManagerTest, EvictionIsTransparentToAnswers) {
  const auto stream = KeyedStream(400, 41);
  serving::ShardManagerOptions capped = Options(2);
  capped.max_live_shards = 1;
  serving::ShardManager evicting(capped, kConstraint, &kMetric, &kJones);
  serving::ShardManager reference(Options(1), kConstraint, &kMetric, &kJones);

  for (size_t start = 0; start < stream.size(); start += 50) {
    std::vector<serving::KeyedPoint> a(
        stream.begin() + start,
        stream.begin() + std::min(start + 50, stream.size()));
    std::vector<serving::KeyedPoint> b = a;
    ASSERT_TRUE(evicting.IngestBatch(std::move(a)).ok());
    ASSERT_TRUE(reference.IngestBatch(std::move(b)).ok());
    EXPECT_LE(evicting.live_shard_count(), 1u);
    evicting.EvictIdle(/*idle_ttl=*/20);
    ExpectSameAnswers(reference.QueryAll(), evicting.QueryAll());
  }
  EXPECT_GT(evicting.evictions(), 0);
  EXPECT_GT(evicting.rehydrations(), 0);

  // Touching a shard rehydrates bit-exact state. Query both sides first:
  // a live shard persists query-time expiry sweeps while a spilled one is
  // answered ephemerally, so the serialized bytes only synchronize once
  // both shards have swept up to the same clock.
  for (const std::string& key : reference.Keys()) {
    auto lhs = evicting.Query(key);  // rehydrates + sweeps
    auto rhs = reference.Query(key);
    ASSERT_EQ(lhs.ok(), rhs.ok()) << key;
    ASSERT_NE(evicting.shard(key), nullptr) << key;
    EXPECT_EQ(evicting.shard(key)->SerializeState(),
              reference.shard(key)->SerializeState())
        << key;
  }
}

// The acceptance criterion end to end: ingest → EvictIdle → re-touch →
// CheckpointDelta/ApplyDelta → Restore answers bit-identically to a
// never-evicted, full-checkpoint fleet, at multiple thread counts.
TEST(ShardManagerTest, DeltaCheckpointsReproduceFullCheckpoints) {
  for (int threads : {1, 4}) {
    const auto stream = KeyedStream(360, 43);
    serving::ShardManager leader(Options(threads), kConstraint, &kMetric,
                                 &kJones);
    serving::ShardManager reference(Options(1), kConstraint, &kMetric,
                                    &kJones);

    // Base checkpoint after a first tranche.
    for (size_t i = 0; i < 120; ++i) {
      ASSERT_TRUE(leader.Ingest(stream[i].key, stream[i].point).ok());
      ASSERT_TRUE(reference.Ingest(stream[i].key, stream[i].point).ok());
    }
    auto follower = serving::ShardManager::Restore(MustCheckpoint(&leader),
                                                   &kMetric, &kJones, threads);
    ASSERT_TRUE(follower.ok()) << follower.status().ToString();
    EXPECT_EQ(leader.dirty_shard_count(), 0u);

    // Idle fleet ⇒ empty delta, and applying it is a no-op.
    const std::string empty_delta = MustDelta(&leader);
    ASSERT_TRUE(follower.value().ApplyDelta(empty_delta).ok());
    ExpectSameAnswers(leader.QueryAll(), follower.value().QueryAll());

    // Churn rounds: ingest a tranche into one tenant only, evict, re-touch,
    // then replicate through a delta and compare against a fleet restored
    // from the full blob.
    for (size_t round = 0; round < 3; ++round) {
      const std::string touched = kKeys[round % 3];
      for (size_t i = 120 + round * 80; i < 200 + round * 80; ++i) {
        ASSERT_TRUE(leader.Ingest(touched, stream[i].point).ok());
        ASSERT_TRUE(reference.Ingest(touched, stream[i].point).ok());
      }
      leader.EvictIdle(/*idle_ttl=*/0);  // spill everything idle
      EXPECT_EQ(leader.dirty_shard_count(), 1u)
          << "only the touched tenant is dirty";
      ASSERT_TRUE(follower.value().ApplyDelta(MustDelta(&leader)).ok());
      EXPECT_EQ(leader.dirty_shard_count(), 0u);

      auto full = serving::ShardManager::Restore(MustCheckpoint(&leader),
                                                 &kMetric, &kJones, threads);
      ASSERT_TRUE(full.ok());
      const auto want = reference.QueryAll();
      ExpectSameAnswers(want, leader.QueryAll());
      ExpectSameAnswers(want, follower.value().QueryAll());
      ExpectSameAnswers(want, full.value().QueryAll());
    }
  }
}

// Restore must respect max_live_shards while shards stream in — bounded
// residency during the restore itself, not only after it — yet still load
// and answer for the whole fleet.
TEST(ShardManagerTest, RestoreHonorsLiveCap) {
  const auto stream = KeyedStream(120, 47);
  serving::ShardManager manager(Options(1), kConstraint, &kMetric, &kJones);
  for (const auto& kp : stream) {
    ASSERT_TRUE(manager.Ingest(kp.key, kp.point).ok());
  }
  auto capped = serving::ShardManager::Restore(
      MustCheckpoint(&manager), &kMetric, &kJones, /*num_threads=*/1,
      /*max_live_shards=*/1);
  ASSERT_TRUE(capped.ok()) << capped.status().ToString();
  EXPECT_EQ(capped.value().shard_count(), manager.shard_count());
  EXPECT_LE(capped.value().live_shard_count(), 1u);
  ExpectSameAnswers(manager.QueryAll(), capped.value().QueryAll());
}

// Keys are raw bytes: spaces and separators must round-trip.
TEST(ShardManagerTest, AwkwardKeysRoundTrip) {
  serving::ShardManager manager(Options(1), kConstraint, &kMetric, &kJones);
  const std::string awkward = "tenant 7\twith spaces";
  manager.Ingest(awkward, Point({1.0, 1.0}, 0));
  manager.Ingest(awkward, Point({2.0, 2.0}, 1));
  auto restored = serving::ShardManager::Restore(MustCheckpoint(&manager),
                                                 &kMetric, &kJones);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_NE(restored.value().shard(awkward), nullptr);
  EXPECT_EQ(restored.value().shard(awkward)->SerializeState(),
            manager.shard(awkward)->SerializeState());
}

}  // namespace
}  // namespace fkc
