// Replication contract: a fleet is replicated as a DeltaLog (one base
// checkpoint plus a chain of deltas) replayed through ShardManager::Restore
// and ApplyDelta.
//
//   DeltaLog on     a SIGKILL'd leader restores its fleet purely from the
//   a directory     on-disk chain — including a torn tail, which recovery
//                   truncates back to the last intact capture boundary
//                   (never aborting). Every byte-truncation prefix of the
//                   log recovers to a fleet byte-equal to the fleet as of
//                   the corresponding capture, and the committed replog_v2
//                   directory opens, replays and is written again byte for
//                   byte. (The capture and replay contract shared with the
//                   in-memory log is delta_log_test.cc's.)
//   spill-store     a FailingSpillStore drives the ShardManager's precise
//   failures        failure Statuses and the MaintenanceStats counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fs_util.h"
#include "common/random.h"
#include "failing_spill_store.h"
#include "metric/metric.h"
#include "sequential/jones_fair_center.h"
#include "serving/delta_log.h"
#include "serving/shard_manager.h"
#include "serving/spill_store.h"

namespace fkc {
namespace serving {
namespace {

namespace fs = std::filesystem;

const EuclideanMetric kMetric;
const JonesFairCenter kJones;
const ColorConstraint kConstraint({2, 1, 1});
const char* kKeys[] = {"tenant-a", "tenant-b", "tenant-c"};

ShardManagerOptions ManagerOptions() {
  ShardManagerOptions options;
  options.window.window_size = 60;
  options.window.delta = 1.0;
  options.window.adaptive_range = true;
  return options;
}

std::vector<KeyedPoint> KeyedStream(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<KeyedPoint> stream;
  for (int i = 0; i < n; ++i) {
    stream.push_back({kKeys[rng.NextBounded(3)],
                      Point({rng.NextUniform(0, 50), rng.NextUniform(0, 50)},
                            static_cast<int>(rng.NextBounded(3)))});
  }
  return stream;
}

// A fresh directory per test, wiped up front so reruns start clean.
std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/fkc_repl_" + name;
  fs::remove_all(dir);
  return dir;
}

// Per-shard byte equality — the strongest equivalence the engine offers.
void ExpectSameFleets(ShardManager* a, ShardManager* b) {
  ASSERT_EQ(a->Keys(), b->Keys());
  for (const std::string& key : a->Keys()) {
    ASSERT_TRUE(a->Query(key).ok()) << key;
    ASSERT_TRUE(b->Query(key).ok()) << key;
    EXPECT_EQ(a->shard(key)->SerializeState(), b->shard(key)->SerializeState())
        << key;
  }
}

// The per-shard state snapshot used as the "expected fleet at capture k"
// record. Deliberately NOT CheckpointAll: that would consume the leader's
// dirty bits mid-stream and corrupt every later delta capture.
std::map<std::string, std::string> FleetSnapshot(ShardManager* manager) {
  std::map<std::string, std::string> snapshot;
  for (const std::string& key : manager->Keys()) {
    EXPECT_TRUE(manager->Query(key).ok()) << key;
    snapshot[key] = manager->shard(key)->SerializeState();
  }
  return snapshot;
}

void ExpectFleetMatchesSnapshot(
    ShardManager* fleet, const std::map<std::string, std::string>& expected) {
  std::vector<std::string> keys;
  for (const auto& entry : expected) keys.push_back(entry.first);
  ASSERT_EQ(fleet->Keys(), keys);
  for (const auto& entry : expected) {
    ASSERT_TRUE(fleet->Query(entry.first).ok()) << entry.first;
    EXPECT_EQ(fleet->shard(entry.first)->SerializeState(), entry.second)
        << entry.first;
  }
}

// Sorted segment files of `dir` as (generation, index, filename).
struct SegmentFile {
  int64_t generation = 0;
  int64_t index = 0;
  std::string name;
};
std::vector<SegmentFile> ListSegments(const std::string& dir) {
  std::vector<std::string> files;
  EXPECT_TRUE(ListDirectoryFiles(dir, &files).ok());
  std::vector<SegmentFile> segments;
  for (const std::string& name : files) {
    long long gen = 0, idx = 0;
    int used = 0;
    if (std::sscanf(name.c_str(), "seg-%lld-%lld.seg%n", &gen, &idx, &used) ==
            2 &&
        used == static_cast<int>(name.size())) {
      segments.push_back(SegmentFile{gen, idx, name});
    }
  }
  std::sort(segments.begin(), segments.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.generation != b.generation
                         ? a.generation < b.generation
                         : a.index < b.index;
            });
  return segments;
}

std::string ReadAll(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(path, &bytes).ok()) << path;
  return bytes;
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// --- DeltaLog on a directory: crash-safe capture + recovery. ---

TEST(DeltaLogDirectoryTest, MethodsBeforeOpenFail) {
  DeltaLog log(FreshDir("unopened"));
  ShardManager leader(ManagerOptions(), kConstraint, &kMetric, &kJones);
  EXPECT_EQ(log.Capture(&leader).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(log.Replay(&kMetric, &kJones).status().code(),
            StatusCode::kFailedPrecondition);

  // Without a directory there is nothing to recover: Open is a no-op.
  DeltaLog in_memory;
  EXPECT_TRUE(in_memory.Open().ok());
  EXPECT_TRUE(in_memory.Open().ok());
  EXPECT_TRUE(in_memory.Capture(&leader).ok());
}

// Drop the log object with no shutdown (the
// in-process stand-in for SIGKILL — all durable state is already on disk),
// re-open the directory, and the replayed fleet is byte-equal to the
// leader.
TEST(DeltaLogDirectoryTest, ReopenAfterKillReplaysBitExactly) {
  const std::string dir = FreshDir("kill_recover");
  const auto stream = KeyedStream(360, 83);
  ShardManager leader(ManagerOptions(), kConstraint, &kMetric, &kJones);
  {
    DeltaLog log(dir);
    ASSERT_TRUE(log.Open().ok());
    for (size_t tranche = 0; tranche < 6; ++tranche) {
      for (size_t i = tranche * 60; i < (tranche + 1) * 60; ++i) {
        ASSERT_TRUE(leader.Ingest(stream[i].key, stream[i].point).ok());
      }
      if (tranche % 2 == 1) leader.EvictIdle(/*idle_ttl=*/0);
      auto captured = log.Capture(&leader);
      ASSERT_TRUE(captured.ok()) << captured.status().ToString();
      EXPECT_EQ(captured.value().rebased, tranche == 0);
    }
    EXPECT_EQ(log.generation(), 1);
    EXPECT_EQ(log.chain_length(), 5u);
  }  // "SIGKILL": the log object vanishes; only the directory survives

  DeltaLog recovered(dir);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.generation(), 1);
  EXPECT_EQ(recovered.chain_length(), 5u);
  EXPECT_EQ(recovered.recovery_stats().recovered_entries, 6);
  EXPECT_EQ(recovered.recovery_stats().truncated_segments, 0);
  EXPECT_FALSE(recovered.recovery_stats().manifest_rebuilt);

  auto replayed = recovered.Replay(&kMetric, &kJones);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ExpectSameFleets(&leader, &replayed.value());
}

// Re-bases open a new generation; the old generation's files are retired
// and recovery adopts only the newest chain.
TEST(DeltaLogDirectoryTest, RebaseRetiresOldGenerationAndRecovers) {
  const std::string dir = FreshDir("rebase");
  DeltaLog::Options budget;
  budget.max_chain_length = 2;
  ShardManager leader(ManagerOptions(), kConstraint, &kMetric, &kJones);
  DeltaLog log(dir, budget);
  ASSERT_TRUE(log.Open().ok());

  const auto stream = KeyedStream(420, 89);
  for (size_t tranche = 0; tranche < 7; ++tranche) {
    for (size_t i = tranche * 60; i < (tranche + 1) * 60; ++i) {
      ASSERT_TRUE(leader.Ingest(stream[i].key, stream[i].point).ok());
    }
    ASSERT_TRUE(log.Capture(&leader).ok());
  }
  // Captures: base(g1), d, d, base(g2), d, d, base(g3).
  EXPECT_EQ(log.generation(), 3);
  EXPECT_EQ(log.rebases(), 2);
  EXPECT_EQ(log.chain_length(), 0u);

  const auto segments = ListSegments(dir);
  ASSERT_EQ(segments.size(), 1u) << "stale generations must be swept";
  EXPECT_EQ(segments[0].generation, 3);
  EXPECT_EQ(segments[0].index, 0);

  DeltaLog recovered(dir);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.generation(), 3);
  auto replayed = recovered.Replay(&kMetric, &kJones);
  ASSERT_TRUE(replayed.ok());
  ExpectSameFleets(&leader, &replayed.value());
}

// The MANIFEST is advisory: deleting or shredding it must not change what
// recovery adopts.
TEST(DeltaLogDirectoryTest, RecoveryIgnoresMissingOrGarbageManifest) {
  const std::string dir = FreshDir("manifest");
  ShardManager leader(ManagerOptions(), kConstraint, &kMetric, &kJones);
  {
    DeltaLog log(dir);
    ASSERT_TRUE(log.Open().ok());
    const auto stream = KeyedStream(120, 7);
    for (const auto& kp : stream) {
      ASSERT_TRUE(leader.Ingest(kp.key, kp.point).ok());
    }
    ASSERT_TRUE(log.Capture(&leader).ok());
  }
  for (const std::string& garbage :
       {std::string(), std::string("not a manifest at all")}) {
    if (garbage.empty()) {
      ASSERT_TRUE(RemoveFileIfExists(dir + "/MANIFEST").ok());
    } else {
      WriteRaw(dir + "/MANIFEST", garbage);
    }
    DeltaLog recovered(dir);
    ASSERT_TRUE(recovered.Open().ok());
    EXPECT_EQ(recovered.generation(), 1);
    EXPECT_EQ(recovered.recovery_stats().recovered_entries, 1);
    EXPECT_TRUE(recovered.recovery_stats().manifest_rebuilt);
    auto replayed = recovered.Replay(&kMetric, &kJones);
    ASSERT_TRUE(replayed.ok());
    ExpectSameFleets(&leader, &replayed.value());
  }
}

// Snapshot the log directory mid-stream
// at arbitrary byte truncation points. For every segment k and every
// truncation offset, recovery must adopt exactly the k intact entries —
// and the replayed fleet must be byte-equal to the fleet as of capture k.
TEST(DeltaLogDirectoryTest, EveryTornTailPrefixRecoversToItsCaptureBoundary) {
  const std::string dir = FreshDir("torn_src");
  const auto stream = KeyedStream(300, 101);
  ShardManager leader(ManagerOptions(), kConstraint, &kMetric, &kJones);
  DeltaLog log(dir);
  ASSERT_TRUE(log.Open().ok());

  // expected[k] = per-shard state right after capture k (0-based).
  std::vector<std::map<std::string, std::string>> expected;
  for (size_t tranche = 0; tranche < 5; ++tranche) {
    for (size_t i = tranche * 60; i < (tranche + 1) * 60; ++i) {
      ASSERT_TRUE(leader.Ingest(stream[i].key, stream[i].point).ok());
    }
    ASSERT_TRUE(log.Capture(&leader).ok());
    expected.push_back(FleetSnapshot(&leader));
  }
  const auto segments = ListSegments(dir);
  ASSERT_EQ(segments.size(), 5u);

  const std::string scratch = testing::TempDir() + "/fkc_repl_torn_case";
  for (size_t torn = 0; torn < segments.size(); ++torn) {
    const std::string torn_bytes = ReadAll(dir + "/" + segments[torn].name);
    ASSERT_GT(torn_bytes.size(), 0u);
    // Full sweep of truncation points with cheap assertions; byte-equal
    // replay is spot-checked at the edges and the middle (replays are the
    // expensive part).
    const size_t stride =
        torn_bytes.size() > 17 ? torn_bytes.size() / 17 : size_t{1};
    std::vector<size_t> offsets;
    for (size_t cut = 0; cut < torn_bytes.size(); cut += stride) {
      offsets.push_back(cut);
    }
    offsets.push_back(torn_bytes.size() - 1);
    for (const size_t cut : offsets) {
      SCOPED_TRACE(segments[torn].name + " cut at " + std::to_string(cut));
      fs::remove_all(scratch);
      ASSERT_TRUE(EnsureDirectory(scratch).ok());
      // Intact prefix, torn segment k, and the (now-orphaned) tail — the
      // exact on-disk shape of a crash mid-publish plus later debris.
      for (size_t i = 0; i < torn; ++i) {
        fs::copy_file(dir + "/" + segments[i].name,
                      scratch + "/" + segments[i].name);
      }
      WriteRaw(scratch + "/" + segments[torn].name, torn_bytes.substr(0, cut));
      for (size_t i = torn + 1; i < segments.size(); ++i) {
        fs::copy_file(dir + "/" + segments[i].name,
                      scratch + "/" + segments[i].name);
      }

      DeltaLog recovered(scratch);
      ASSERT_TRUE(recovered.Open().ok()) << "recovery must never abort";
      const auto stats = recovered.recovery_stats();
      ASSERT_EQ(stats.recovered_entries, static_cast<int64_t>(torn));
      EXPECT_GE(stats.truncated_segments, 1);
      if (torn == 0) {
        EXPECT_FALSE(recovered.has_base());
        continue;
      }
      const bool spot_check =
          cut == 0 || cut == torn_bytes.size() - 1 ||
          (cut >= torn_bytes.size() / 2 &&
           cut < torn_bytes.size() / 2 + stride);
      if (!spot_check) continue;
      auto replayed = recovered.Replay(&kMetric, &kJones);
      ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
      ExpectFleetMatchesSnapshot(&replayed.value(), expected[torn - 1]);
    }
  }
  fs::remove_all(scratch);
}

// After a torn-tail recovery the log must keep accepting captures — the
// truncate-and-CONTINUE half of the contract.
TEST(DeltaLogDirectoryTest, CapturesContinueAfterTornTailRecovery) {
  const std::string dir = FreshDir("torn_continue");
  const auto stream = KeyedStream(240, 11);
  ShardManager leader(ManagerOptions(), kConstraint, &kMetric, &kJones);
  DeltaLog log(dir);
  ASSERT_TRUE(log.Open().ok());
  for (size_t tranche = 0; tranche < 3; ++tranche) {
    for (size_t i = tranche * 60; i < (tranche + 1) * 60; ++i) {
      ASSERT_TRUE(leader.Ingest(stream[i].key, stream[i].point).ok());
    }
    ASSERT_TRUE(log.Capture(&leader).ok());
  }
  // Tear the last delta in half.
  const auto segments = ListSegments(dir);
  ASSERT_EQ(segments.size(), 3u);
  const std::string last = dir + "/" + segments.back().name;
  const std::string bytes = ReadAll(last);
  WriteRaw(last, bytes.substr(0, bytes.size() / 2));

  DeltaLog recovered(dir);
  ASSERT_TRUE(recovered.Open().ok());
  ASSERT_EQ(recovered.recovery_stats().recovered_entries, 2);

  // A leader restarting from this log replays FIRST (adopting the
  // truncated prefix as its state), then keeps ingesting and capturing
  // into the same log — the stream picks up exactly where the surviving
  // prefix ends.
  auto restored = recovered.Replay(&kMetric, &kJones);
  ASSERT_TRUE(restored.ok());
  ShardManager relaunched = std::move(restored).value();
  for (size_t i = 180; i < 240; ++i) {
    ASSERT_TRUE(relaunched.Ingest(stream[i].key, stream[i].point).ok());
  }
  auto captured = recovered.Capture(&relaunched);
  ASSERT_TRUE(captured.ok()) << captured.status().ToString();
  auto replayed = recovered.Replay(&kMetric, &kJones);
  ASSERT_TRUE(replayed.ok());
  ExpectSameFleets(&relaunched, &replayed.value());
}

// The fleet captured into tests/fixtures/replog_v{1,2} (a base and two
// deltas): two tenants, one of them clean for the last capture.
void CaptureFixtureFleet(DeltaLog* log, ShardManager* leader) {
  const char* keys[] = {"tenant-a", "tenant-b"};
  for (int tranche = 0; tranche < 3; ++tranche) {
    for (int i = 0; i < 6; ++i) {
      const int n = tranche * 6 + i;
      const std::string key = keys[(n * 7 + tranche) % 3 == 0 ? 1 : 0];
      if (tranche == 2 && key == "tenant-b") continue;
      const Point p({0.5 * n + (n % 3), 0.25 * ((n * 5) % 11)}, n % 2);
      ASSERT_TRUE(leader->Ingest(key, p).ok());
    }
    ASSERT_TRUE(log->Capture(leader).ok());
  }
}

ShardManagerOptions FixtureOptions() {
  ShardManagerOptions options;
  options.window.window_size = 8;
  options.window.delta = 1.0;
  options.window.adaptive_range = true;
  return options;
}

// Compatibility pins for the on-disk log. The committed replog_v2 opens
// with all three entries and replays to the committed fleet, and capturing
// the same fleet today writes its MANIFEST and segment bytes again. A
// directory written before the window blobs became binary (replog_v1:
// fkc-checkpoint-v1 shards, written by the standalone crash-safe log class
// before the in-memory and on-disk logs were merged) still opens, since
// recovery checks only the segment framing, but its retired shard blobs
// fail the replay by name; so does the CheckpointAll blob of that fleet.
TEST(DeltaLogDirectoryTest, OpensAndRewritesCommittedLogBytes) {
  const std::string v1_fixture = std::string(FKC_FIXTURE_DIR) + "/replog_v1";
  const std::string v2_fixture = std::string(FKC_FIXTURE_DIR) + "/replog_v2";
  const std::string expected_fleet =
      ReadAll(std::string(FKC_FIXTURE_DIR) + "/replog_v2_fleet.bin");
  auto expect_retired = [](const Status& status, const std::string& what) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << what;
    EXPECT_NE(status.message().find("fkc-checkpoint-v1"), std::string::npos)
        << what << ": " << status.ToString();
  };
  auto replay_copy = [&](const std::string& fixture,
                         const std::string& name) {
    // Recovery may rewrite what it opens: work on a copy.
    const std::string dir = FreshDir(name);
    fs::copy(fixture, dir);
    DeltaLog log(dir);
    EXPECT_TRUE(log.Open().ok()) << fixture;
    EXPECT_EQ(log.recovery_stats().recovered_entries, 3) << fixture;
    EXPECT_EQ(log.recovery_stats().truncated_segments, 0) << fixture;
    EXPECT_EQ(log.recovery_stats().swept_files, 0) << fixture;
    EXPECT_FALSE(log.recovery_stats().manifest_rebuilt) << fixture;
    EXPECT_EQ(log.generation(), 1) << fixture;
    return log.Replay(&kMetric, &kJones);
  };
  auto replayed = replay_copy(v2_fixture, "fixture_v2_copy");
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  auto blob = replayed.value().CheckpointAll();
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob.value(), expected_fleet);

  expect_retired(replay_copy(v1_fixture, "fixture_v1_copy").status(),
                 "replog_v1");
  expect_retired(
      ShardManager::Restore(
          ReadAll(std::string(FKC_FIXTURE_DIR) + "/replog_v1_fleet.txt"),
          &kMetric, &kJones)
          .status(),
      "replog_v1_fleet.txt");

  const std::string rewritten = FreshDir("fixture_rewrite");
  DeltaLog writer(rewritten);
  ASSERT_TRUE(writer.Open().ok());
  ShardManager leader(FixtureOptions(), ColorConstraint({1, 1}), &kMetric,
                      &kJones);
  CaptureFixtureFleet(&writer, &leader);
  std::vector<std::string> files;
  ASSERT_TRUE(ListDirectoryFiles(v2_fixture, &files).ok());
  std::vector<std::string> written;
  ASSERT_TRUE(ListDirectoryFiles(rewritten, &written).ok());
  std::sort(files.begin(), files.end());
  std::sort(written.begin(), written.end());
  ASSERT_EQ(written, files);
  for (const std::string& name : files) {
    EXPECT_EQ(ReadAll(rewritten + "/" + name),
              ReadAll(v2_fixture + "/" + name))
        << name;
  }
}

// --- Spill-store failures. ---

TEST(FailingSpillStoreTest, FailsTheNextPutsAndGets) {
  auto store = std::make_shared<FailingSpillStore>(
      std::make_shared<InMemorySpillStore>(), /*failing_puts=*/1,
      /*failing_gets=*/1);

  Status first_put = store->Put("k", "v");
  ASSERT_FALSE(first_put.ok());
  EXPECT_EQ(first_put.code(), StatusCode::kIoError);
  EXPECT_NE(first_put.message().find("injected"), std::string::npos);
  ASSERT_FALSE(store->Get("k").ok());  // the one failing Get
  ASSERT_TRUE(store->Put("k", "v").ok());
  auto got = store->Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "v");
}

// Backend failures surface as precise Statuses (operation +
// shard + backend) and move the MaintenanceStats counters.
TEST(ShardManagerFaultTest, SpillFailureIsCountedAndAnnotated) {
  auto store = std::make_shared<FailingSpillStore>(
      std::make_shared<InMemorySpillStore>(), /*failing_puts=*/1,
      /*failing_gets=*/0);

  ShardManagerOptions manager_options = ManagerOptions();
  manager_options.spill_store = store;
  ShardManager manager(manager_options, kConstraint, &kMetric, &kJones);
  const auto stream = KeyedStream(60, 23);
  for (const auto& kp : stream) {
    ASSERT_TRUE(manager.Ingest(kp.key, kp.point).ok());
  }

  // The one write failure fails the first spill, which stops the
  // sweep (backend presumed down) — every shard stays live.
  Status spill_status;
  EXPECT_EQ(manager.EvictIdle(/*idle_ttl=*/0, &spill_status), 0);
  ASSERT_FALSE(spill_status.ok());
  EXPECT_NE(spill_status.message().find("spilling shard"), std::string::npos);
  EXPECT_NE(spill_status.message().find("failing(memory)"), std::string::npos);
  EXPECT_EQ(manager.maintenance_stats().spill_write_failures, 1);
}

TEST(ShardManagerFaultTest, RehydrationFailureIsCountedAndAnnotated) {
  auto store = std::make_shared<FailingSpillStore>(
      std::make_shared<InMemorySpillStore>(), /*failing_puts=*/0,
      /*failing_gets=*/1);
  ShardManagerOptions manager_options = ManagerOptions();
  manager_options.spill_store = store;
  ShardManager manager(manager_options, kConstraint, &kMetric, &kJones);
  const auto stream = KeyedStream(60, 23);
  for (const auto& kp : stream) {
    ASSERT_TRUE(manager.Ingest(kp.key, kp.point).ok());
  }
  // ttl=0 keeps the most recently touched shard live and spills the rest.
  EXPECT_EQ(manager.EvictIdle(/*idle_ttl=*/0), 2);
  // Query a SPILLED shard (any key but the last-ingested one).
  std::string spilled_key;
  for (const char* key : kKeys) {
    if (stream.back().key != key) spilled_key = key;
  }
  auto query = manager.Query(spilled_key);
  ASSERT_FALSE(query.ok());
  EXPECT_NE(query.status().message().find("rehydrating shard"),
            std::string::npos);
  EXPECT_EQ(manager.maintenance_stats().rehydration_failures, 1);
  // Failure spent: the same query now succeeds — the shard was never lost.
  EXPECT_TRUE(manager.Query(spilled_key).ok());
}

TEST(ShardManagerFaultTest, CheckpointFailureIsCountedAndAnnotated) {
  auto store = std::make_shared<FailingSpillStore>(
      std::make_shared<InMemorySpillStore>(), /*failing_puts=*/0,
      /*failing_gets=*/1);
  ShardManagerOptions manager_options = ManagerOptions();
  manager_options.spill_store = store;
  ShardManager manager(manager_options, kConstraint, &kMetric, &kJones);
  const auto stream = KeyedStream(60, 29);
  for (const auto& kp : stream) {
    ASSERT_TRUE(manager.Ingest(kp.key, kp.point).ok());
  }
  EXPECT_EQ(manager.EvictIdle(/*idle_ttl=*/0), 2);
  auto blob = manager.CheckpointAll();
  ASSERT_FALSE(blob.ok());
  EXPECT_NE(blob.status().message().find("checkpoint aborted reading"),
            std::string::npos);
  EXPECT_EQ(manager.maintenance_stats().checkpoint_failures, 1);
  // And once the failure is spent, the checkpoint goes through.
  EXPECT_TRUE(manager.CheckpointAll().ok());
}

// --- common/fs_util. ---

TEST(FsUtilTest, RemoveFileDurableHandlesPresentAndAbsent) {
  const std::string dir = FreshDir("rm_durable");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  const std::string path = dir + "/victim";
  ASSERT_TRUE(WriteFileAtomic(path, "bytes").ok());
  ASSERT_TRUE(RemoveFileDurable(path).ok());
  EXPECT_FALSE(fs::exists(path));
  // Absent file: OK (idempotent), and no directory sync is attempted.
  EXPECT_TRUE(RemoveFileDurable(path).ok());
  EXPECT_TRUE(SyncDirectory(dir).ok());
  EXPECT_FALSE(SyncDirectory(dir + "/no_such_subdir").ok());
}

}  // namespace
}  // namespace serving
}  // namespace fkc
