// Replication stack contract. Three layers, each with its own guarantees:
//
//   DeltaLog on     a SIGKILL'd leader restores its fleet purely from the
//   a directory     on-disk chain — including a torn tail, which recovery
//                   truncates back to the last intact capture boundary
//                   (never aborting). Every byte-truncation prefix of the
//                   log recovers to a fleet byte-equal to the fleet as of
//                   the corresponding capture, and a directory written
//                   before the in-memory and on-disk logs became one class
//                   still opens and replays byte-equal. (The capture and
//                   replay contract shared with the in-memory log is
//                   delta_log_test.cc's.)
//   transport       a follower over a unix socket converges to a
//                   byte-equal checkpoint and reports a staleness bound,
//                   resyncing from the base after drops, corruption,
//                   truncation, and reconnects on a seeded fault schedule.
//   fault plumbing  FaultInjector schedules are seed-deterministic and
//                   budget-bounded; a FaultInjectingSpillStore drives the
//                   ShardManager's precise failure Statuses and the
//                   MaintenanceStats counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fs_util.h"
#include "common/random.h"
#include "metric/metric.h"
#include "sequential/jones_fair_center.h"
#include "serving/delta_log.h"
#include "serving/replication/fault_injector.h"
#include "serving/replication/transport.h"
#include "serving/replication/wire_format.h"
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

ShardManagerOptions ManagerOptions(int num_threads = 1) {
  ShardManagerOptions options;
  options.window.window_size = 60;
  options.window.delta = 1.0;
  options.window.adaptive_range = true;
  options.num_threads = num_threads;
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
  EXPECT_EQ(log.AppendBase(1, "x").code(), StatusCode::kFailedPrecondition);

  // Without a directory there is nothing to recover: Open is a no-op.
  DeltaLog in_memory;
  EXPECT_TRUE(in_memory.Open().ok());
  EXPECT_TRUE(in_memory.Open().ok());
  EXPECT_TRUE(in_memory.Capture(&leader).ok());
}

// The tentpole acceptance: drop the log object with no shutdown (the
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

// Satellite 3 + tentpole acceptance: snapshot the log directory mid-stream
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

// Follower-side appends: strict continuation, resync-from-base rules.
TEST(DeltaLogDirectoryTest, AppendFollowsContinuationRules) {
  const std::string dir = FreshDir("appends");
  ShardManager leader(ManagerOptions(), kConstraint, &kMetric, &kJones);
  DeltaLog source(FreshDir("appends_src"));
  ASSERT_TRUE(source.Open().ok());
  const auto stream = KeyedStream(180, 3);
  for (size_t tranche = 0; tranche < 3; ++tranche) {
    for (size_t i = tranche * 60; i < (tranche + 1) * 60; ++i) {
      ASSERT_TRUE(leader.Ingest(stream[i].key, stream[i].point).ok());
    }
    ASSERT_TRUE(source.Capture(&leader).ok());
  }
  const auto entries = source.EntriesFrom(0, 0);
  ASSERT_EQ(entries.size(), 3u);

  DeltaLog follower(dir);
  ASSERT_TRUE(follower.Open().ok());
  // A delta with no base, and a gapped delta, are both out-of-order.
  EXPECT_EQ(follower.AppendDelta(1, 1, entries[1].payload).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(
      follower.AppendBase(entries[0].generation, entries[0].payload).ok());
  EXPECT_EQ(follower.AppendDelta(1, 2, entries[2].payload).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(follower.AppendDelta(1, 1, entries[1].payload).ok());
  ASSERT_TRUE(follower.AppendDelta(1, 2, entries[2].payload).ok());

  // The follower's own disk now survives the follower's own kill.
  DeltaLog reopened(dir);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.recovery_stats().recovered_entries, 3);
  auto replayed = reopened.Replay(&kMetric, &kJones);
  ASSERT_TRUE(replayed.ok());
  ExpectSameFleets(&leader, &replayed.value());
}

TEST(DeltaLogDirectoryTest, EntriesFromServesTailOrFullResync) {
  DeltaLog log(FreshDir("entries_from"));
  ASSERT_TRUE(log.Open().ok());
  ShardManager leader(ManagerOptions(), kConstraint, &kMetric, &kJones);
  const auto stream = KeyedStream(120, 19);
  for (size_t tranche = 0; tranche < 2; ++tranche) {
    for (size_t i = tranche * 60; i < (tranche + 1) * 60; ++i) {
      ASSERT_TRUE(leader.Ingest(stream[i].key, stream[i].point).ok());
    }
    ASSERT_TRUE(log.Capture(&leader).ok());
  }
  // Caught-up follower: nothing to send.
  EXPECT_TRUE(log.EntriesFrom(1, 2).empty());
  // Mid-chain tail.
  auto tail = log.EntriesFrom(1, 1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].index, 1);
  // Unknown generation, or a position past the chain: full resync.
  for (const auto& position :
       std::vector<std::pair<int64_t, int64_t>>{{0, 0}, {7, 1}, {1, 9}}) {
    auto resync = log.EntriesFrom(position.first, position.second);
    ASSERT_EQ(resync.size(), 2u);
    EXPECT_EQ(resync[0].index, 0);
  }
}

// The fleet captured into tests/fixtures/replog_v1 (a base and two deltas):
// two tenants, one of them clean for the last capture.
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

// Compatibility pin for the on-disk log: a directory written by the
// standalone crash-safe log class (before the in-memory and on-disk logs
// were merged) opens with all three entries, replays to the committed
// CheckpointAll blob byte for byte, and capturing the same fleet today
// writes the same MANIFEST and segment bytes.
TEST(DeltaLogDirectoryTest, OpensAndRewritesCommittedLogBytes) {
  const std::string fixture = std::string(FKC_FIXTURE_DIR) + "/replog_v1";
  const std::string expected_fleet =
      ReadAll(std::string(FKC_FIXTURE_DIR) + "/replog_v1_fleet.txt");
  // Recovery may rewrite what it opens: work on a copy.
  const std::string dir = FreshDir("fixture_copy");
  fs::copy(fixture, dir);

  DeltaLog log(dir);
  ASSERT_TRUE(log.Open().ok());
  EXPECT_EQ(log.recovery_stats().recovered_entries, 3);
  EXPECT_EQ(log.recovery_stats().truncated_segments, 0);
  EXPECT_EQ(log.recovery_stats().swept_files, 0);
  EXPECT_FALSE(log.recovery_stats().manifest_rebuilt);
  EXPECT_EQ(log.generation(), 1);
  auto replayed = log.Replay(&kMetric, &kJones);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  auto blob = replayed.value().CheckpointAll();
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob.value(), expected_fleet);

  const std::string rewritten = FreshDir("fixture_rewrite");
  DeltaLog writer(rewritten);
  ASSERT_TRUE(writer.Open().ok());
  ShardManager leader(FixtureOptions(), ColorConstraint({1, 1}), &kMetric,
                      &kJones);
  CaptureFixtureFleet(&writer, &leader);
  std::vector<std::string> files;
  ASSERT_TRUE(ListDirectoryFiles(fixture, &files).ok());
  std::vector<std::string> written;
  ASSERT_TRUE(ListDirectoryFiles(rewritten, &written).ok());
  std::sort(files.begin(), files.end());
  std::sort(written.begin(), written.end());
  ASSERT_EQ(written, files);
  for (const std::string& name : files) {
    EXPECT_EQ(ReadAll(rewritten + "/" + name), ReadAll(fixture + "/" + name))
        << name;
  }
}

// --- Wire format. ---

TEST(WireFormatTest, FrameRoundTrips) {
  Frame frame;
  frame.type = FrameType::kDelta;
  frame.generation = 7;
  frame.index = 3;
  frame.chain_length = 9;
  frame.payload = std::string("delta-bytes\x00with-nul", 20);
  const std::string bytes = EncodeFrame(frame);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + frame.payload.size());

  Frame decoded;
  uint64_t payload_size = 0, checksum = 0;
  ASSERT_TRUE(DecodeFrameHeader(bytes.data(), bytes.size(), &decoded,
                                &payload_size, &checksum)
                  .ok());
  EXPECT_EQ(decoded.type, FrameType::kDelta);
  EXPECT_EQ(decoded.generation, 7);
  EXPECT_EQ(decoded.index, 3);
  EXPECT_EQ(decoded.chain_length, 9);
  const std::string payload = bytes.substr(kFrameHeaderBytes);
  EXPECT_TRUE(CheckFramePayload(payload_size, checksum, payload).ok());
}

TEST(WireFormatTest, DamagedFramesAreRejected) {
  Frame frame;
  frame.type = FrameType::kBase;
  frame.generation = 1;
  frame.payload = "checkpoint blob";
  const std::string bytes = EncodeFrame(frame);

  Frame decoded;
  uint64_t payload_size = 0, checksum = 0;
  // Truncated header.
  EXPECT_FALSE(DecodeFrameHeader(bytes.data(), kFrameHeaderBytes - 1,
                                 &decoded, &payload_size, &checksum)
                   .ok());
  // Single-byte header flips must be caught by magic / version / type /
  // range validation — or land in a position field, where they change
  // coordinates but never mis-frame the stream; flips to the payload-size
  // or checksum words are caught by CheckFramePayload.
  for (size_t i = 0; i < kFrameHeaderBytes; ++i) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    Frame out;
    uint64_t out_size = 0, out_checksum = 0;
    Status decoded_status = DecodeFrameHeader(bad.data(), bad.size(), &out,
                                              &out_size, &out_checksum);
    if (!decoded_status.ok()) continue;
    const bool payload_ok =
        CheckFramePayload(out_size, out_checksum, bad.substr(kFrameHeaderBytes))
            .ok();
    if (payload_ok) {
      EXPECT_TRUE(out.generation != frame.generation ||
                  out.index != frame.index ||
                  out.chain_length != frame.chain_length)
          << "flip at byte " << i << " changed nothing yet decoded";
    }
  }
  // Payload corruption fails the checksum.
  std::string corrupt = bytes;
  corrupt[kFrameHeaderBytes] =
      static_cast<char>(corrupt[kFrameHeaderBytes] ^ 0x01);
  ASSERT_TRUE(DecodeFrameHeader(corrupt.data(), corrupt.size(), &decoded,
                                &payload_size, &checksum)
                  .ok());
  EXPECT_FALSE(CheckFramePayload(payload_size, checksum,
                                 corrupt.substr(kFrameHeaderBytes))
                   .ok());
}

// --- FaultInjector. ---

TEST(FaultInjectorTest, ScheduleIsSeedDeterministicAndBudgetBounded) {
  FaultInjector::Options options;
  options.seed = 7;
  options.drop_prob = 0.3;
  options.corrupt_prob = 0.2;
  options.truncate_prob = 0.1;
  options.max_faults = 5;

  std::vector<FaultInjector::FrameFate> first, second;
  FaultInjector a(options), b(options);
  for (int i = 0; i < 100; ++i) first.push_back(a.NextFrameFate());
  for (int i = 0; i < 100; ++i) second.push_back(b.NextFrameFate());
  EXPECT_EQ(first, second) << "same seed, same schedule";

  const auto counters = a.counters();
  EXPECT_EQ(counters.frames_dropped + counters.frames_corrupted +
                counters.frames_truncated + counters.frames_delayed,
            5)
      << "the budget bounds total injected faults";
  EXPECT_GT(counters.frames_dropped, 0);
  // Post-budget, everything delivers.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.NextFrameFate(), FaultInjector::FrameFate::kDeliver);
  }
}

TEST(FaultInjectorTest, SpillStoreFailuresFollowTheSchedule) {
  FaultInjector::Options options;
  options.write_failure_prob = 1.0;
  options.read_failure_prob = 1.0;
  options.max_faults = 2;
  FaultInjector injector(options);
  auto store = std::make_shared<FaultInjectingSpillStore>(
      std::make_shared<InMemorySpillStore>(), &injector);

  Status first_put = store->Put("k", "v");
  ASSERT_FALSE(first_put.ok());
  EXPECT_EQ(first_put.code(), StatusCode::kIoError);
  EXPECT_NE(first_put.message().find("injected"), std::string::npos);
  ASSERT_FALSE(store->Get("k").ok());  // second (and last) budgeted fault
  ASSERT_TRUE(store->Put("k", "v").ok());
  auto got = store->Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "v");
  EXPECT_EQ(injector.counters().failed_writes, 1);
  EXPECT_EQ(injector.counters().failed_reads, 1);
}

// Satellite 2: backend failures surface as precise Statuses (operation +
// shard + backend) and move the MaintenanceStats counters.
TEST(ShardManagerFaultTest, SpillFailureIsCountedAndAnnotated) {
  FaultInjector::Options options;
  options.write_failure_prob = 1.0;
  options.max_faults = 1;
  FaultInjector injector(options);
  auto store = std::make_shared<FaultInjectingSpillStore>(
      std::make_shared<InMemorySpillStore>(), &injector);

  ShardManagerOptions manager_options = ManagerOptions();
  manager_options.spill_store = store;
  ShardManager manager(manager_options, kConstraint, &kMetric, &kJones);
  const auto stream = KeyedStream(60, 23);
  for (const auto& kp : stream) {
    ASSERT_TRUE(manager.Ingest(kp.key, kp.point).ok());
  }

  // The budgeted write failure fails the first spill, which stops the
  // sweep (backend presumed down) — every shard stays live.
  Status spill_status;
  EXPECT_EQ(manager.EvictIdle(/*idle_ttl=*/0, &spill_status), 0);
  ASSERT_FALSE(spill_status.ok());
  EXPECT_NE(spill_status.message().find("spilling shard"), std::string::npos);
  EXPECT_NE(spill_status.message().find("fault-injecting"), std::string::npos);
  EXPECT_EQ(manager.maintenance_stats().spill_write_failures, 1);
}

TEST(ShardManagerFaultTest, RehydrationFailureIsCountedAndAnnotated) {
  FaultInjector::Options options;
  options.read_failure_prob = 1.0;
  options.max_faults = 1;
  FaultInjector injector(options);
  auto store = std::make_shared<FaultInjectingSpillStore>(
      std::make_shared<InMemorySpillStore>(), &injector);
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
  // Budget spent: the same query now succeeds — the shard was never lost.
  EXPECT_TRUE(manager.Query(spilled_key).ok());
}

TEST(ShardManagerFaultTest, CheckpointFailureIsCountedAndAnnotated) {
  FaultInjector::Options options;
  options.read_failure_prob = 1.0;
  options.max_faults = 1;
  FaultInjector injector(options);
  auto store = std::make_shared<FaultInjectingSpillStore>(
      std::make_shared<InMemorySpillStore>(), &injector);
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
  // And once the budget is spent, the checkpoint goes through.
  EXPECT_TRUE(manager.CheckpointAll().ok());
}

// --- Transport. ---

#ifndef _WIN32

// Short unix-socket paths: sockaddr_un caps at ~100 bytes.
std::string SocketPath(const std::string& name) {
  const std::string path = testing::TempDir() + "/fkc_" + name + ".sock";
  fs::remove(path);
  return path;
}

// Waits until the follower reports it has applied everything the leader
// announced (or the deadline passes). Returns the final bound.
LogReceiver::StalenessBound AwaitConverged(LogReceiver* receiver,
                                           int64_t want_entries,
                                           int deadline_seconds = 60) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(deadline_seconds);
  for (;;) {
    const auto bound = receiver->staleness();
    if (bound.has_fleet && bound.entries_behind == 0 &&
        bound.applied_entries == want_entries && bound.connected) {
      return bound;
    }
    if (std::chrono::steady_clock::now() >= deadline) return bound;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

TEST(TransportTest, FollowerConvergesOverUnixSocketByteEqual) {
  const auto stream = KeyedStream(360, 131);
  ShardManager leader(ManagerOptions(), kConstraint, &kMetric, &kJones);
  DeltaLog log(FreshDir("wire_leader"));
  ASSERT_TRUE(log.Open().ok());

  LogSender::Options sender_options;
  sender_options.unix_socket_path = SocketPath("wire");
  sender_options.heartbeat_interval = std::chrono::milliseconds(20);
  sender_options.poll_interval = std::chrono::milliseconds(2);
  LogSender sender(&log, sender_options);
  ASSERT_TRUE(sender.Start().ok());
  EXPECT_EQ(sender.Start().code(), StatusCode::kFailedPrecondition);

  LogReceiver::Options receiver_options;
  receiver_options.unix_socket_path = sender_options.unix_socket_path;
  receiver_options.initial_backoff = std::chrono::milliseconds(2);
  receiver_options.max_backoff = std::chrono::milliseconds(50);
  LogReceiver receiver(&kMetric, &kJones, receiver_options);
  ASSERT_TRUE(receiver.Start().ok());

  // Stream captures while the follower tails.
  for (size_t tranche = 0; tranche < 6; ++tranche) {
    for (size_t i = tranche * 60; i < (tranche + 1) * 60; ++i) {
      ASSERT_TRUE(leader.Ingest(stream[i].key, stream[i].point).ok());
    }
    ASSERT_TRUE(log.Capture(&leader).ok());
  }
  const int64_t want = 1 + static_cast<int64_t>(log.chain_length());
  const auto bound = AwaitConverged(&receiver, want);
  ASSERT_TRUE(bound.has_fleet);
  ASSERT_EQ(bound.entries_behind, 0) << "follower never converged";
  EXPECT_EQ(bound.applied_generation, log.generation());

  // Byte-equal convergence: both sides restore from their own view of the
  // log and checkpoint — identical fleets serialize identically.
  auto leader_fleet = log.Replay(&kMetric, &kJones);
  ASSERT_TRUE(leader_fleet.ok());
  auto leader_blob = leader_fleet.value().CheckpointAll();
  ASSERT_TRUE(leader_blob.ok());
  auto follower_blob = receiver.CheckpointAll();
  ASSERT_TRUE(follower_blob.ok());
  EXPECT_EQ(leader_blob.value(), follower_blob.value());

  // The replica answers queries.
  EXPECT_EQ(receiver.QueryAll().size(), 3u);
  EXPECT_EQ(receiver.Keys().size(), 3u);
  EXPECT_GT(sender.stats().frames_sent, 0);

  // With the log idle, heartbeats keep the bound fresh.
  const auto heartbeat_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (receiver.stats().heartbeats_received == 0 &&
         std::chrono::steady_clock::now() < heartbeat_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(receiver.stats().heartbeats_received, 0);

  receiver.Stop();
  sender.Stop();
}

TEST(TransportTest, FaultInjectedFollowerStillConvergesByteEqual) {
  const auto stream = KeyedStream(360, 137);
  ShardManager leader(ManagerOptions(), kConstraint, &kMetric, &kJones);
  DeltaLog log(FreshDir("faulty_leader"));
  ASSERT_TRUE(log.Open().ok());
  // A first capture before the follower ever connects, so its initial sync
  // has a real base to fetch (and to lose to the fault schedule).
  for (size_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(leader.Ingest(stream[i].key, stream[i].point).ok());
  }
  ASSERT_TRUE(log.Capture(&leader).ok());

  FaultInjector::Options fault_options;
  fault_options.seed = 1234;
  fault_options.drop_prob = 0.35;
  fault_options.corrupt_prob = 0.25;
  fault_options.truncate_prob = 0.15;
  fault_options.max_faults = 10;
  FaultInjector injector(fault_options);

  LogSender::Options sender_options;
  sender_options.unix_socket_path = SocketPath("faulty");
  sender_options.heartbeat_interval = std::chrono::milliseconds(10);
  sender_options.poll_interval = std::chrono::milliseconds(2);
  sender_options.fault_injector = &injector;
  LogSender sender(&log, sender_options);
  ASSERT_TRUE(sender.Start().ok());

  // The follower also persists locally, proving the replica's own disk
  // state survives a follower kill.
  const std::string follower_dir = FreshDir("faulty_follower");
  DeltaLog follower_log(follower_dir);
  ASSERT_TRUE(follower_log.Open().ok());
  LogReceiver::Options receiver_options;
  receiver_options.unix_socket_path = sender_options.unix_socket_path;
  receiver_options.receive_timeout = std::chrono::milliseconds(200);
  receiver_options.initial_backoff = std::chrono::milliseconds(2);
  receiver_options.max_backoff = std::chrono::milliseconds(50);
  receiver_options.backoff_seed = 99;
  receiver_options.local_log = &follower_log;
  LogReceiver receiver(&kMetric, &kJones, receiver_options);
  ASSERT_TRUE(receiver.Start().ok());

  for (size_t tranche = 1; tranche < 6; ++tranche) {
    for (size_t i = tranche * 60; i < (tranche + 1) * 60; ++i) {
      ASSERT_TRUE(leader.Ingest(stream[i].key, stream[i].point).ok());
    }
    ASSERT_TRUE(log.Capture(&leader).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const int64_t want = 1 + static_cast<int64_t>(log.chain_length());
  const auto bound = AwaitConverged(&receiver, want);
  ASSERT_TRUE(bound.has_fleet);
  ASSERT_EQ(bound.entries_behind, 0)
      << "fault-injected follower never converged";

  // The schedule actually hurt: the full fault budget fired.
  const auto counters = injector.counters();
  EXPECT_EQ(counters.frames_dropped + counters.frames_corrupted +
                counters.frames_truncated + counters.frames_delayed,
            10);

  // And convergence is still byte-equal...
  auto leader_fleet = log.Replay(&kMetric, &kJones);
  ASSERT_TRUE(leader_fleet.ok());
  auto leader_blob = leader_fleet.value().CheckpointAll();
  ASSERT_TRUE(leader_blob.ok());
  auto follower_blob = receiver.CheckpointAll();
  ASSERT_TRUE(follower_blob.ok());
  EXPECT_EQ(leader_blob.value(), follower_blob.value());

  receiver.Stop();
  sender.Stop();

  // ...including through the follower's own on-disk log after a "kill".
  DeltaLog follower_reopened(follower_dir);
  ASSERT_TRUE(follower_reopened.Open().ok());
  auto follower_replayed = follower_reopened.Replay(&kMetric, &kJones);
  ASSERT_TRUE(follower_replayed.ok());
  auto reopened_blob = follower_replayed.value().CheckpointAll();
  ASSERT_TRUE(reopened_blob.ok());
  EXPECT_EQ(leader_blob.value(), reopened_blob.value());
}

TEST(TransportTest, ThreeFaultInjectedFollowersAllConvergeByteEqual) {
  // One leader fanning to three independent followers through a single
  // sender, with the shared fault schedule mangling frames across all
  // three connections: every follower must still reach the same byte-equal
  // checkpoint, each through its own drop/resync history.
  const auto stream = KeyedStream(360, 149);
  ShardManager leader(ManagerOptions(), kConstraint, &kMetric, &kJones);
  DeltaLog log(FreshDir("fanout_leader"));
  ASSERT_TRUE(log.Open().ok());
  for (size_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(leader.Ingest(stream[i].key, stream[i].point).ok());
  }
  ASSERT_TRUE(log.Capture(&leader).ok());

  FaultInjector::Options fault_options;
  fault_options.seed = 4321;
  fault_options.drop_prob = 0.30;
  fault_options.corrupt_prob = 0.20;
  fault_options.truncate_prob = 0.10;
  fault_options.max_faults = 12;
  FaultInjector injector(fault_options);

  LogSender::Options sender_options;
  sender_options.unix_socket_path = SocketPath("fanout");
  sender_options.heartbeat_interval = std::chrono::milliseconds(10);
  sender_options.poll_interval = std::chrono::milliseconds(2);
  sender_options.fault_injector = &injector;
  LogSender sender(&log, sender_options);
  ASSERT_TRUE(sender.Start().ok());

  constexpr int kFollowers = 3;
  std::vector<std::unique_ptr<LogReceiver>> receivers;
  for (int f = 0; f < kFollowers; ++f) {
    LogReceiver::Options receiver_options;
    receiver_options.unix_socket_path = sender_options.unix_socket_path;
    receiver_options.receive_timeout = std::chrono::milliseconds(200);
    receiver_options.initial_backoff = std::chrono::milliseconds(2);
    receiver_options.max_backoff = std::chrono::milliseconds(50);
    receiver_options.backoff_seed = 1000 + f;  // decorrelated reconnects
    receivers.push_back(std::make_unique<LogReceiver>(&kMetric, &kJones,
                                                      receiver_options));
    ASSERT_TRUE(receivers.back()->Start().ok()) << "follower " << f;
  }

  for (size_t tranche = 1; tranche < 6; ++tranche) {
    for (size_t i = tranche * 60; i < (tranche + 1) * 60; ++i) {
      ASSERT_TRUE(leader.Ingest(stream[i].key, stream[i].point).ok());
    }
    ASSERT_TRUE(log.Capture(&leader).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const int64_t want = 1 + static_cast<int64_t>(log.chain_length());
  auto leader_fleet = log.Replay(&kMetric, &kJones);
  ASSERT_TRUE(leader_fleet.ok());
  auto leader_blob = leader_fleet.value().CheckpointAll();
  ASSERT_TRUE(leader_blob.ok());
  for (int f = 0; f < kFollowers; ++f) {
    const auto bound = AwaitConverged(receivers[f].get(), want);
    ASSERT_TRUE(bound.has_fleet) << "follower " << f;
    ASSERT_EQ(bound.entries_behind, 0)
        << "follower " << f << " never converged";
    EXPECT_EQ(bound.applied_generation, log.generation()) << "follower " << f;
    auto follower_blob = receivers[f]->CheckpointAll();
    ASSERT_TRUE(follower_blob.ok()) << "follower " << f;
    EXPECT_EQ(leader_blob.value(), follower_blob.value())
        << "follower " << f << " diverged from the leader";
    EXPECT_EQ(receivers[f]->QueryAll().size(), 3u) << "follower " << f;
  }

  // The shared schedule exhausted its budget across the fan-out, so the
  // convergence above was earned through real resyncs, not a quiet link.
  const auto counters = injector.counters();
  EXPECT_EQ(counters.frames_dropped + counters.frames_corrupted +
                counters.frames_truncated + counters.frames_delayed,
            12);

  for (auto& receiver : receivers) receiver->Stop();
  sender.Stop();
}

TEST(TransportTest, ReceiverOutlivesAbsentLeaderAndBacksOff) {
  LogReceiver::Options options;
  options.unix_socket_path = SocketPath("nobody_home");
  options.initial_backoff = std::chrono::milliseconds(1);
  options.max_backoff = std::chrono::milliseconds(10);
  LogReceiver receiver(&kMetric, &kJones, options);
  ASSERT_TRUE(receiver.Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto bound = receiver.staleness();
  EXPECT_FALSE(bound.connected);
  EXPECT_FALSE(bound.has_fleet);
  EXPECT_TRUE(receiver.QueryAll().empty());
  EXPECT_EQ(receiver.CheckpointAll().status().code(),
            StatusCode::kFailedPrecondition);
  receiver.Stop();  // must join promptly despite the dial loop
}

TEST(TransportTest, TcpLoopbackAlsoConverges) {
  const auto stream = KeyedStream(120, 139);
  ShardManager leader(ManagerOptions(), kConstraint, &kMetric, &kJones);
  DeltaLog log(FreshDir("tcp_leader"));
  ASSERT_TRUE(log.Open().ok());
  for (size_t i = 0; i < 120; ++i) {
    ASSERT_TRUE(leader.Ingest(stream[i].key, stream[i].point).ok());
  }
  ASSERT_TRUE(log.Capture(&leader).ok());

  LogSender::Options sender_options;  // tcp_port = 0: ephemeral
  sender_options.heartbeat_interval = std::chrono::milliseconds(20);
  LogSender sender(&log, sender_options);
  ASSERT_TRUE(sender.Start().ok());
  ASSERT_GT(sender.port(), 0);

  LogReceiver::Options receiver_options;
  receiver_options.tcp_port = sender.port();
  receiver_options.initial_backoff = std::chrono::milliseconds(2);
  LogReceiver receiver(&kMetric, &kJones, receiver_options);
  ASSERT_TRUE(receiver.Start().ok());
  const auto bound = AwaitConverged(&receiver, 1);
  ASSERT_TRUE(bound.has_fleet);
  EXPECT_EQ(bound.entries_behind, 0);
  receiver.Stop();
  sender.Stop();
}

#endif  // !_WIN32

// --- common/fs_util satellites. ---

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
