// SpillStore contract: both backends round-trip arbitrary key/blob pairs;
// the file backend publishes atomically (a kill mid-write leaves only .tmp
// debris and the previous version intact), rejects checksum-corrupt and
// torn files with a Status instead of crashing or returning wrong bytes,
// and GarbageCollect sweeps exactly the orphans. On top: the ShardManager
// wired to a FileSpillStore evicts and rehydrates shards bit-exactly
// (SerializeState byte-equal), and a corrupted spill file degrades to
// per-shard errors, never a process abort.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/fs_util.h"
#include "common/random.h"
#include "metric/metric.h"
#include "sequential/jones_fair_center.h"
#include "serving/shard_manager.h"
#include "serving/spill_store.h"

namespace fkc {
namespace serving {
namespace {

const EuclideanMetric kMetric;
const JonesFairCenter kJones;
const ColorConstraint kConstraint({2, 1, 1});

// A fresh directory per test, wiped up front so reruns start clean.
std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/fkc_spill_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<std::string> SpillFiles(const std::string& dir) {
  std::vector<std::string> files;
  EXPECT_TRUE(ListDirectoryFiles(dir, &files).ok());
  return files;
}

ShardManagerOptions Options(std::shared_ptr<SpillStore> store) {
  ShardManagerOptions options;
  options.window.window_size = 60;
  options.window.delta = 1.0;
  options.window.adaptive_range = true;
  options.spill_store = std::move(store);
  return options;
}

// The backend-independent contract, run against both implementations.
void ExerciseStoreContract(SpillStore* store) {
  // Round trip, including keys a filesystem would choke on raw.
  const std::vector<std::string> keys = {
      "plain", "with space", "path/like/key", "dots..and--dashes",
      std::string("embedded\nnewline\tand\x01control"),
      std::string(10000, 'k'),  // far beyond any filename limit
  };
  for (size_t i = 0; i < keys.size(); ++i) {
    const std::string blob = "blob-" + std::to_string(i) + "-\n raw \t bytes";
    ASSERT_TRUE(store->Put(keys[i], blob).ok()) << keys[i];
    auto fetched = store->Get(keys[i]);
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    EXPECT_EQ(fetched.value(), blob);
  }
  EXPECT_EQ(store->Count().ValueOr(-1), static_cast<int64_t>(keys.size()));

  // Overwrite replaces.
  ASSERT_TRUE(store->Put("plain", "second version").ok());
  EXPECT_EQ(store->Get("plain").ValueOr(""), "second version");
  EXPECT_EQ(store->Count().ValueOr(-1), static_cast<int64_t>(keys.size()));

  // Missing keys are kNotFound; erase is idempotent.
  EXPECT_EQ(store->Get("never-stored").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(store->Erase("plain").ok());
  ASSERT_TRUE(store->Erase("plain").ok());
  EXPECT_EQ(store->Get("plain").status().code(), StatusCode::kNotFound);

  // GC keeps exactly `keep`.
  auto removed = store->GarbageCollect({keys[1], keys[2]});
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(removed.value(), static_cast<int64_t>(keys.size()) - 3)
      << "everything but the two kept keys (and the erased one) goes";
  EXPECT_TRUE(store->Get(keys[1]).ok());
  EXPECT_TRUE(store->Get(keys[2]).ok());
  EXPECT_EQ(store->Get(keys[3]).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store->Count().ValueOr(-1), 2);
}

TEST(SpillStoreTest, InMemoryContract) {
  InMemorySpillStore store;
  ExerciseStoreContract(&store);
}

TEST(SpillStoreTest, FileContract) {
  FileSpillStore store(FreshDir("contract"));
  ExerciseStoreContract(&store);
}

TEST(SpillStoreTest, FileStorePersistsAcrossInstances) {
  const std::string dir = FreshDir("persist");
  {
    FileSpillStore store(dir);
    ASSERT_TRUE(store.Put("tenant-a", "state of a").ok());
  }
  FileSpillStore reopened(dir);
  EXPECT_EQ(reopened.Get("tenant-a").ValueOr(""), "state of a");
}

// A flipped byte anywhere in the payload must fail the checksum — the blob
// never reaches the deserializer looking valid.
TEST(SpillStoreTest, ChecksumCorruptionIsRejected) {
  const std::string dir = FreshDir("corrupt");
  FileSpillStore store(dir);
  ASSERT_TRUE(store.Put("key", std::string(500, 'x') + "tail").ok());
  const auto files = SpillFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  const std::string path = dir + "/" + files[0];

  std::string original;
  ASSERT_TRUE(ReadFileToString(path, &original).ok());
  for (size_t offset : {original.size() / 2, original.size() - 1}) {
    std::string mutated = original;
    mutated[offset] ^= 0x20;
    ASSERT_TRUE(WriteFileAtomic(path, mutated).ok());
    auto fetched = store.Get("key");
    ASSERT_FALSE(fetched.ok()) << "offset " << offset;
    EXPECT_EQ(fetched.status().code(), StatusCode::kInvalidArgument);
  }
  // Intact bytes restore the entry.
  ASSERT_TRUE(WriteFileAtomic(path, original).ok());
  EXPECT_TRUE(store.Get("key").ok());
}

// The kill-mid-write case: every strict prefix of a spill file (what a torn
// non-atomic write would leave) must be rejected, never crash or parse.
TEST(SpillStoreTest, TornFileIsRejectedAtEveryTruncation) {
  const std::string dir = FreshDir("torn");
  FileSpillStore store(dir);
  ASSERT_TRUE(store.Put("key", "some shard state bytes").ok());
  const auto files = SpillFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  const std::string path = dir + "/" + files[0];
  std::string original;
  ASSERT_TRUE(ReadFileToString(path, &original).ok());

  for (size_t cut = 0; cut < original.size(); ++cut) {
    ASSERT_TRUE(WriteFileAtomic(path, original.substr(0, cut)).ok());
    auto fetched = store.Get("key");
    ASSERT_FALSE(fetched.ok()) << "cut=" << cut;
  }
}

// Probe-chain pathologies: holes (Erase/GC removed an earlier slot) and
// corrupt slots must never shadow a valid file later in the chain, and a
// fresh Put after corruption must make the key readable again.
TEST(SpillStoreTest, ChainHolesAndCorruptSlotsCannotShadowValidFiles) {
  const std::string dir = FreshDir("chain");
  FileSpillStore store(dir);
  ASSERT_TRUE(store.Put("key", "the valid state").ok());
  auto files = SpillFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  ASSERT_NE(files[0].find("-0.spill"), std::string::npos);

  // Move the valid file deep into the chain (slot 5): Get must scan past
  // the holes at slots 0-4 and still find it.
  const std::string deep = files[0].substr(0, files[0].size() - 8) + "-5.spill";
  std::filesystem::rename(dir + "/" + files[0], dir + "/" + deep);
  EXPECT_EQ(store.Get("key").ValueOr(""), "the valid state");

  // A corrupt file at slot 0 must not shadow the valid slot-5 copy.
  ASSERT_TRUE(
      WriteFileAtomic(dir + "/" + files[0], "ruined by bit rot").ok());
  EXPECT_EQ(store.Get("key").ValueOr(""), "the valid state");

  // Overwrite targets the key's own slot; the new bytes win.
  ASSERT_TRUE(store.Put("key", "newer state").ok());
  EXPECT_EQ(store.Get("key").ValueOr(""), "newer state");

  // Erase removes the key's slot wherever it sits; with only the corrupt
  // slot left, Get reports the corruption (the slot MIGHT have been this
  // key's), and after GC sweeps the debris the key is cleanly absent.
  ASSERT_TRUE(store.Erase("key").ok());
  EXPECT_EQ(store.Get("key").status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(store.GarbageCollect({}).ok());
  EXPECT_EQ(store.Get("key").status().code(), StatusCode::kNotFound);

  // A Put landing on a chain blocked by a corrupt slot writes around it
  // (or reclaims it when the chain is otherwise full) — the key becomes
  // readable again either way.
  ASSERT_TRUE(
      WriteFileAtomic(dir + "/" + files[0], "ruined again").ok());
  ASSERT_TRUE(store.Put("key", "recovered").ok());
  EXPECT_EQ(store.Get("key").ValueOr(""), "recovered");
}

TEST(SpillStoreTest, GarbageCollectSweepsTempAndForeignDebris) {
  const std::string dir = FreshDir("gc");
  FileSpillStore store(dir);
  ASSERT_TRUE(store.Put("keep-me", "kept").ok());
  ASSERT_TRUE(store.Put("drop-me", "dropped").ok());

  // Debris: an interrupted write's temp file, an unparsable spill file, and
  // a file that is not ours at all (must survive).
  ASSERT_TRUE(WriteFileAtomic(dir + "/0123456789abcdef-0.spill.tmp",
                              "half a wri").ok());
  ASSERT_TRUE(WriteFileAtomic(dir + "/feedfacefeedface-0.spill",
                              "not a spill file").ok());
  ASSERT_TRUE(WriteFileAtomic(dir + "/README", "user file").ok());

  auto removed = store.GarbageCollect({"keep-me"});
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(removed.value(), 3) << "drop-me + temp debris + unparsable";
  EXPECT_EQ(store.Get("keep-me").ValueOr(""), "kept");
  EXPECT_EQ(store.Get("drop-me").status().code(), StatusCode::kNotFound);
  std::string untouched;
  ASSERT_TRUE(ReadFileToString(dir + "/README", &untouched).ok());
  EXPECT_EQ(untouched, "user file");
}

std::vector<KeyedPoint> KeyedStream(int n, uint64_t seed) {
  Rng rng(seed);
  const char* keys[] = {"tenant-a", "tenant-b", "tenant-c"};
  std::vector<KeyedPoint> stream;
  for (int i = 0; i < n; ++i) {
    stream.push_back({keys[rng.NextBounded(3)],
                      Point({rng.NextUniform(0, 50), rng.NextUniform(0, 50)},
                            static_cast<int>(rng.NextBounded(3)))});
  }
  return stream;
}

// The acceptance criterion: a shard evicted through the file store comes
// back byte-identical, and a fleet spilling to disk answers exactly like a
// never-evicted one.
TEST(SpillStoreTest, ManagerRoundTripsShardsBitExactlyThroughFileStore) {
  const std::string dir = FreshDir("manager");
  ShardManager spilling(
      Options(std::make_shared<FileSpillStore>(dir)), kConstraint, &kMetric,
      &kJones);
  ShardManager reference(Options(nullptr), kConstraint, &kMetric, &kJones);

  const auto stream = KeyedStream(300, 71);
  for (const auto& kp : stream) {
    ASSERT_TRUE(spilling.Ingest(kp.key, kp.point).ok());
    ASSERT_TRUE(reference.Ingest(kp.key, kp.point).ok());
  }

  // Spill everything idle; the spilled state lands on disk.
  EXPECT_GT(spilling.EvictIdle(/*idle_ttl=*/0), 0);
  EXPECT_GT(SpillFiles(dir).size(), 0u);

  // Spilled shards keep answering (ephemerally) identical to the reference.
  const auto expect = reference.QueryAll();
  const auto got = spilling.QueryAll();
  ASSERT_EQ(expect.size(), got.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    ASSERT_TRUE(got[i].solution.ok()) << got[i].key;
    EXPECT_EQ(got[i].solution.value().value,
              expect[i].solution.value().value)
        << got[i].key;
  }

  // Rehydration is bit-exact: SerializeState byte-equal to the reference
  // (query both sides first so query-time expiry sweeps line up).
  for (const auto& key : reference.Keys()) {
    ASSERT_TRUE(spilling.Query(key).ok());  // rehydrates from disk
    ASSERT_TRUE(reference.Query(key).ok());
    ASSERT_NE(spilling.shard(key), nullptr) << key;
    EXPECT_EQ(spilling.shard(key)->SerializeState(),
              reference.shard(key)->SerializeState())
        << key;
  }
  EXPECT_GT(spilling.rehydrations(), 0);
}

// A spill file corrupted on disk degrades per shard: QueryAll answers the
// error for that shard, Query/shard() fail to rehydrate it, CheckpointAll
// reports the failure — and no path aborts the process.
TEST(SpillStoreTest, ManagerSurfacesCorruptSpillFilesAsStatuses) {
  const std::string dir = FreshDir("manager_corrupt");
  ShardManager manager(Options(std::make_shared<FileSpillStore>(dir)),
                       kConstraint, &kMetric, &kJones);
  for (const auto& kp : KeyedStream(120, 73)) {
    ASSERT_TRUE(manager.Ingest(kp.key, kp.point).ok());
  }
  ASSERT_TRUE(manager.Ingest("healthy", Point({1.0, 2.0}, 0)).ok());
  EXPECT_EQ(manager.EvictIdle(/*idle_ttl=*/0), 3) << "all but 'healthy'";

  // Corrupt every spill file.
  for (const auto& name : SpillFiles(dir)) {
    const std::string path = dir + "/" + name;
    std::string bytes;
    ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
    bytes[bytes.size() / 2] ^= 0x01;
    ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
  }

  int errors = 0;
  for (const auto& answer : manager.QueryAll()) {
    if (!answer.solution.ok()) {
      ++errors;
      EXPECT_EQ(answer.solution.status().code(), StatusCode::kInvalidArgument)
          << answer.key;
    }
  }
  EXPECT_EQ(errors, 3);
  EXPECT_FALSE(manager.Query("tenant-a").ok());
  EXPECT_EQ(manager.shard("tenant-a"), nullptr);
  EXPECT_TRUE(manager.Query("healthy").ok()) << "live shards are unaffected";
  auto checkpoint = manager.CheckpointAll();
  EXPECT_FALSE(checkpoint.ok())
      << "a fleet blob must not silently omit the corrupt shard";
}

// A spill entry forged (or shared from another fleet's directory) under a
// different constraint or dimension must fail every load with a Status —
// the same guard Restore/ApplyDelta apply — whether a touch rehydrates it
// or QueryAll reads it in passing; other shards keep answering.
TEST(SpillStoreTest, RehydrationRejectsForeignConstraintOrDimension) {
  auto store = std::make_shared<InMemorySpillStore>();
  ShardManagerOptions with_store = Options(nullptr);
  with_store.spill_store = store;
  ShardManager manager(with_store, kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(manager.Ingest("t", Point({1.0, 2.0}, 0)).ok());
  ASSERT_TRUE(manager.Ingest("live", Point({1.0, 2.0}, 0)).ok());
  EXPECT_EQ(manager.EvictIdle(/*idle_ttl=*/0), 1);

  // QueryAll's answer for "t" must carry `code`; "live" still answers.
  auto expect_query_all = [&](StatusCode code) {
    const auto answers = manager.QueryAll();
    ASSERT_EQ(answers.size(), 2u);
    EXPECT_EQ(answers[0].key, "live");
    EXPECT_TRUE(answers[0].solution.ok());
    EXPECT_EQ(answers[1].key, "t");
    EXPECT_EQ(answers[1].solution.status().code(), code);
  };

  // Overwrite the spilled entry with a window built under a 1-color
  // constraint: an ingest with color 1 or 2 passes the fleet's checks yet
  // the foreign shard would reject it.
  FairCenterSlidingWindow foreign(Options(nullptr).window, ColorConstraint({1}),
                                  &kMetric, &kJones);
  foreign.Update(Point({3.0, 4.0}, 0));
  ASSERT_TRUE(store->Put("t", foreign.SerializeState()).ok());
  expect_query_all(StatusCode::kInvalidArgument);
  auto query = manager.Query("t");
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.Ingest("t", Point({5.0, 6.0}, 2)).code(),
            StatusCode::kInvalidArgument)
      << "rejected at rehydration, not ingested into the foreign shard";

  // Same constraint, different dimension: the shard is pinned 2-d.
  FairCenterSlidingWindow three_d(Options(nullptr).window, kConstraint,
                                  &kMetric, &kJones);
  three_d.Update(Point({3.0, 4.0, 5.0}, 0));
  ASSERT_TRUE(store->Put("t", three_d.SerializeState()).ok());
  expect_query_all(StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.Query("t").status().code(), StatusCode::kInvalidArgument);

  // An honest blob rehydrates again.
  FairCenterSlidingWindow honest(Options(nullptr).window, kConstraint,
                                 &kMetric, &kJones);
  honest.Update(Point({1.0, 2.0}, 0));
  ASSERT_TRUE(store->Put("t", honest.SerializeState()).ok());
  expect_query_all(StatusCode::kOk);
  EXPECT_TRUE(manager.Query("t").ok());
}

// An in-memory store whose Get or Put fails with kIoError while
// `fail_gets` or `fail_puts` is set.
class FlakyStore final : public SpillStore {
 public:
  Status Put(const std::string& key, std::string blob) override {
    if (fail_puts) return Status::IoError("injected write failure");
    return inner_.Put(key, std::move(blob));
  }
  Result<std::string> Get(const std::string& key) const override {
    if (fail_gets) return Status::IoError("injected read failure");
    return inner_.Get(key);
  }
  Status Erase(const std::string& key) override { return inner_.Erase(key); }
  Result<int64_t> GarbageCollect(const std::set<std::string>& keep) override {
    return inner_.GarbageCollect(keep);
  }
  Result<int64_t> Count() const override { return inner_.Count(); }
  const char* Name() const override { return "flaky"; }

  bool fail_gets = false;
  bool fail_puts = false;

 private:
  InMemorySpillStore inner_;
};

// A spill-store read failure keeps its own code on both ingest paths (it is
// a backend failure, not a bad argument), loses nothing, and is counted.
TEST(SpillStoreTest, RehydrationReadFailureKeepsItsCodeOnBothIngestPaths) {
  auto store = std::make_shared<FlakyStore>();
  ShardManager manager(Options(store), kConstraint, &kMetric, &kJones);
  ShardManager reference(Options(nullptr), kConstraint, &kMetric, &kJones);
  for (ShardManager* m : {&manager, &reference}) {
    ASSERT_TRUE(m->Ingest("t", Point({1.0, 2.0}, 0)).ok());
    ASSERT_TRUE(m->Ingest("live", Point({1.0, 2.0}, 0)).ok());
  }
  ASSERT_EQ(manager.EvictIdle(/*idle_ttl=*/0), 1);
  const std::string spilled = store->Get("t").ValueOr("");
  ASSERT_FALSE(spilled.empty());

  store->fail_gets = true;
  const Status single = manager.Ingest("t", Point({3.0, 4.0}, 1));
  EXPECT_EQ(single.code(), StatusCode::kIoError) << single.ToString();
  EXPECT_NE(single.message().find("dropped 1 of 1"), std::string::npos);
  EXPECT_NE(single.message().find("injected read failure"), std::string::npos);
  EXPECT_EQ(manager.maintenance_stats().rehydration_failures, 1);

  std::vector<KeyedPoint> batch = {{"t", Point({3.0, 4.0}, 1)},
                                   {"live", Point({5.0, 6.0}, 2)}};
  const Status batched = manager.IngestBatch(batch);
  EXPECT_EQ(batched.code(), StatusCode::kIoError) << batched.ToString();
  EXPECT_NE(batched.message().find("dropped 1 of 2"), std::string::npos);
  EXPECT_EQ(manager.maintenance_stats().rehydration_failures, 2);
  ASSERT_TRUE(reference.Ingest("live", Point({5.0, 6.0}, 2)).ok());

  // The shard is intact: still spilled, its entry untouched.
  store->fail_gets = false;
  EXPECT_EQ(manager.spilled_shard_count(), 1u);
  EXPECT_EQ(store->Get("t").ValueOr(""), spilled);

  // And a retry lands as if nothing had failed.
  ASSERT_TRUE(manager.IngestBatch(batch).ok());
  ASSERT_TRUE(reference.IngestBatch(batch).ok());
  EXPECT_EQ(manager.maintenance_stats().rehydration_failures, 2);
  for (const std::string key : {"t", "live"}) {
    ASSERT_NE(manager.shard(key), nullptr) << key;
    EXPECT_EQ(manager.shard(key)->SerializeState(),
              reference.shard(key)->SerializeState())
        << key;
  }
}

// Restore under a live-shard cap spills the over-cap shards as it goes —
// the restored fleet stays bounded, answers identically, and the store
// holds byte-exact core checkpoints: re-serializing a restored
// fkc-checkpoint-v2 shard gives back the blob segment it came from.
TEST(SpillStoreTest, RestoreSpillsVerbatimSegmentsPastTheCap) {
  ShardManager manager(Options(nullptr), kConstraint, &kMetric, &kJones);
  for (const auto& kp : KeyedStream(200, 79)) {
    ASSERT_TRUE(manager.Ingest(kp.key, kp.point).ok());
  }
  // The segment Restore must hand over: each shard's core checkpoint.
  std::map<std::string, std::string> expected_segments;
  for (const auto& key : manager.Keys()) {
    expected_segments[key] = manager.shard(key)->SerializeState();
  }
  auto blob = manager.CheckpointAll();
  ASSERT_TRUE(blob.ok());

  auto store = std::make_shared<InMemorySpillStore>();
  auto capped = ShardManager::Restore(blob.value(), &kMetric, &kJones,
                                      /*num_threads=*/1,
                                      /*max_live_shards=*/1, store);
  ASSERT_TRUE(capped.ok()) << capped.status().ToString();
  EXPECT_EQ(capped.value().live_shard_count(), 1u);
  EXPECT_EQ(capped.value().spilled_shard_count(), 2u);
  // Spilled state is byte-equal to the blob segment the shard was read
  // from — compare against the segments the checkpoint was built from.
  int spilled_checked = 0;
  for (const auto& [key, segment] : expected_segments) {
    auto stored = store->Get(key);
    if (!stored.ok()) continue;  // the one live shard
    EXPECT_EQ(stored.value(), segment) << key;
    ++spilled_checked;
  }
  EXPECT_EQ(spilled_checked, 2);

  // A store that cannot absorb the over-cap shards fails the restore.
  auto refusing = std::make_shared<FlakyStore>();
  refusing->fail_puts = true;
  auto failed = ShardManager::Restore(blob.value(), &kMetric, &kJones,
                                      /*num_threads=*/1,
                                      /*max_live_shards=*/1, refusing);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  EXPECT_NE(failed.status().message().find("injected write failure"),
            std::string::npos);

  // And the capped fleet answers exactly like the original.
  const auto expect = manager.QueryAll();
  const auto got = capped.value().QueryAll();
  ASSERT_EQ(expect.size(), got.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    ASSERT_TRUE(got[i].solution.ok()) << got[i].key;
    EXPECT_EQ(got[i].solution.value().value,
              expect[i].solution.value().value);
  }
}

}  // namespace
}  // namespace serving
}  // namespace fkc
