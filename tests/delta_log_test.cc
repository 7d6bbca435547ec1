// DeltaLog contract, checked over both backings (in memory, and backed by
// a directory): replaying base + delta chain reconstructs the fleet
// bit-exactly (per-shard SerializeState byte-equal to a restore from a
// fresh full checkpoint, at any thread count); the chain re-bases itself
// once it exceeds the configured length/byte budget and replay stays exact
// across re-basings; and the ShardManager background maintenance thread —
// which feeds the log — starts, ticks, and shuts down cleanly under
// adversarial start/stop timing. The on-disk recovery rules live in
// replication_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "metric/metric.h"
#include "sequential/jones_fair_center.h"
#include "serving/delta_log.h"
#include "serving/shard_manager.h"
#include "serving/spill_store.h"

namespace fkc {
namespace serving {
namespace {

const EuclideanMetric kMetric;
const JonesFairCenter kJones;
const ColorConstraint kConstraint({2, 1, 1});
const char* kKeys[] = {"tenant-a", "tenant-b", "tenant-c"};

ShardManagerOptions Options(int num_threads) {
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

// Per-shard byte equality — the strongest equivalence the engine offers.
void ExpectSameFleets(ShardManager* a, ShardManager* b) {
  ASSERT_EQ(a->Keys(), b->Keys());
  for (const std::string& key : a->Keys()) {
    // Query both first so query-time expiry sweeps line up, then compare
    // serialized bytes.
    ASSERT_TRUE(a->Query(key).ok()) << key;
    ASSERT_TRUE(b->Query(key).ok()) << key;
    EXPECT_EQ(a->shard(key)->SerializeState(), b->shard(key)->SerializeState())
        << key;
  }
}

enum class Backing { kInMemory, kDirectory };

// The contract every log must keep, whatever its backing.
class DeltaLogContractTest : public testing::TestWithParam<Backing> {
 protected:
  // A log ready to capture: in memory, or Open()ed on a fresh directory.
  std::unique_ptr<DeltaLog> MakeLog(DeltaLog::Options options = {}) {
    std::string dir;
    if (GetParam() == Backing::kDirectory) {
      std::string name =
          testing::UnitTest::GetInstance()->current_test_info()->name();
      std::replace(name.begin(), name.end(), '/', '_');
      dir = testing::TempDir() + "/fkc_delta_log_" + name + "_" +
            std::to_string(logs_made_++);
      std::filesystem::remove_all(dir);
    }
    auto log = std::make_unique<DeltaLog>(dir, options);
    EXPECT_TRUE(log->Open().ok());
    return log;
  }

 private:
  int logs_made_ = 0;
};

INSTANTIATE_TEST_SUITE_P(
    Backings, DeltaLogContractTest,
    testing::Values(Backing::kInMemory, Backing::kDirectory),
    [](const testing::TestParamInfo<Backing>& info) {
      return info.param == Backing::kInMemory ? "InMemory" : "Directory";
    });

TEST_P(DeltaLogContractTest, ReplayWithoutBaseFails) {
  auto log = MakeLog();
  EXPECT_FALSE(log->has_base());
  EXPECT_EQ(log->generation(), 0);
  auto replayed = log->Replay(&kMetric, &kJones);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kFailedPrecondition);
}

// The acceptance criterion: a fleet restored by replaying the log is
// byte-equal to one restored from a fresh full checkpoint, at multiple
// thread counts, with eviction churn in between captures.
TEST_P(DeltaLogContractTest, ReplayMatchesFullRestoreBitExactly) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const auto stream = KeyedStream(360, 83);
    ShardManager leader(Options(threads), kConstraint, &kMetric, &kJones);
    auto log = MakeLog();

    // Tranches of ingest, eviction churn, and captures: the first capture
    // lays the base, later ones chain deltas.
    for (size_t tranche = 0; tranche < 6; ++tranche) {
      for (size_t i = tranche * 60; i < (tranche + 1) * 60; ++i) {
        ASSERT_TRUE(leader.Ingest(stream[i].key, stream[i].point).ok());
      }
      if (tranche % 2 == 1) leader.EvictIdle(/*idle_ttl=*/0);
      auto captured = log->Capture(&leader);
      ASSERT_TRUE(captured.ok()) << captured.status().ToString();
      EXPECT_EQ(captured.value().rebased, tranche == 0)
          << "first capture is the base; the chain stays under budget";
    }
    EXPECT_EQ(log->chain_length(), 5u);
    EXPECT_EQ(leader.dirty_shard_count(), 0u);

    auto replayed = log->Replay(&kMetric, &kJones, threads);
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    auto full_blob = leader.CheckpointAll();
    ASSERT_TRUE(full_blob.ok());
    auto full = ShardManager::Restore(full_blob.value(), &kMetric, &kJones,
                                      threads);
    ASSERT_TRUE(full.ok());
    ExpectSameFleets(&full.value(), &replayed.value());
    ExpectSameFleets(&leader, &replayed.value());
  }
}

// Chain-length budget: the capture that finds the chain full re-bases —
// the chain resets, rebases() counts it, and replay stays bit-exact.
TEST_P(DeltaLogContractTest, CompactionRebasesPastChainLengthBudget) {
  DeltaLog::Options budget;
  budget.max_chain_length = 2;
  auto log = MakeLog(budget);
  ShardManager leader(Options(1), kConstraint, &kMetric, &kJones);

  const auto stream = KeyedStream(280, 89);
  size_t fed = 0;
  auto feed_and_capture = [&]() -> DeltaLog::CaptureStats {
    for (size_t end = fed + 40; fed < end; ++fed) {
      EXPECT_TRUE(leader.Ingest(stream[fed].key, stream[fed].point).ok());
    }
    auto captured = log->Capture(&leader);
    EXPECT_TRUE(captured.ok()) << captured.status().ToString();
    return captured.ValueOr(DeltaLog::CaptureStats{});
  };

  EXPECT_TRUE(feed_and_capture().rebased);   // initial base
  EXPECT_FALSE(feed_and_capture().rebased);  // chain: 1
  EXPECT_FALSE(feed_and_capture().rebased);  // chain: 2 (budget)
  const auto compacted = feed_and_capture();  // budget exceeded -> re-base
  EXPECT_TRUE(compacted.rebased);
  EXPECT_EQ(compacted.chain_length, 0u);
  EXPECT_EQ(log->rebases(), 1);
  EXPECT_EQ(log->generation(), 2) << "each base opens a generation";

  EXPECT_FALSE(feed_and_capture().rebased);  // chains again after re-base
  EXPECT_EQ(log->chain_length(), 1u);

  auto replayed = log->Replay(&kMetric, &kJones);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ExpectSameFleets(&leader, &replayed.value());
}

// Byte budget: a tiny max_chain_bytes forces a re-base as soon as any
// delta is chained.
TEST_P(DeltaLogContractTest, CompactionRebasesPastByteBudget) {
  DeltaLog::Options budget;
  budget.max_chain_bytes = 1;
  auto log = MakeLog(budget);
  ShardManager leader(Options(1), kConstraint, &kMetric, &kJones);
  const auto stream = KeyedStream(120, 97);
  for (size_t tranche = 0; tranche < 3; ++tranche) {
    for (size_t i = tranche * 40; i < (tranche + 1) * 40; ++i) {
      ASSERT_TRUE(leader.Ingest(stream[i].key, stream[i].point).ok());
    }
    auto captured = log->Capture(&leader);
    ASSERT_TRUE(captured.ok());
    // Capture 0: base. Capture 1: chains (budget checked before append).
    // Capture 2: chain already over a 1-byte budget -> re-base.
    EXPECT_EQ(captured.value().rebased, tranche != 1) << tranche;
  }
  EXPECT_EQ(log->rebases(), 1);
  auto replayed = log->Replay(&kMetric, &kJones);
  ASSERT_TRUE(replayed.ok());
  ExpectSameFleets(&leader, &replayed.value());
}

// An idle fleet must not grow the log: the maintenance tick skips capture
// while nothing is dirty.
TEST(DeltaLogTest, MaintenanceTickSkipsCaptureWhileClean) {
  ShardManager manager(Options(1), kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(manager.Ingest("tenant-a", Point({1.0, 2.0}, 0)).ok());
  DeltaLog log;
  MaintenanceOptions options;
  options.delta_log = &log;

  auto first = manager.RunMaintenanceTick(options);
  EXPECT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_TRUE(first.rebased) << "first capture lays the base";
  for (int i = 0; i < 5; ++i) {
    auto tick = manager.RunMaintenanceTick(options);
    EXPECT_EQ(tick.capture_bytes, 0u) << "idle fleet, no capture";
  }
  EXPECT_EQ(log.chain_length(), 0u);

  ASSERT_TRUE(manager.Ingest("tenant-a", Point({3.0, 4.0}, 1)).ok());
  auto dirty_tick = manager.RunMaintenanceTick(options);
  EXPECT_GT(dirty_tick.capture_bytes, 0u);
  EXPECT_EQ(log.chain_length(), 1u);
}

// One deterministic tick: eviction sweep + capture + GC, reported through
// the test-visible hook.
TEST(DeltaLogTest, RunMaintenanceTickReportsItsWork) {
  auto store = std::make_shared<InMemorySpillStore>();
  ShardManagerOptions with_store = Options(1);
  with_store.spill_store = store;
  ShardManager manager(with_store, kConstraint, &kMetric, &kJones);
  for (const auto& kp : KeyedStream(90, 101)) {
    ASSERT_TRUE(manager.Ingest(kp.key, kp.point).ok());
  }
  // An orphan entry no shard owns: the tick's GC must sweep it.
  ASSERT_TRUE(store->Put("stale-tenant", "stale bytes").ok());

  DeltaLog log;
  MaintenanceOptions options;
  options.idle_ttl = 0;  // spill everything idle
  options.delta_log = &log;
  options.gc_every = 1;
  MaintenanceTickReport hook_report;
  int hook_calls = 0;
  options.on_tick = [&](const MaintenanceTickReport& report) {
    hook_report = report;
    ++hook_calls;
  };

  const auto report = manager.RunMaintenanceTick(options);
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(report.evicted, 2) << "all but the most recently touched";
  EXPECT_GT(report.capture_bytes, 0u);
  EXPECT_EQ(report.gc_removed, 1) << "exactly the stale entry";
  EXPECT_EQ(hook_calls, 1);
  EXPECT_EQ(hook_report.evicted, report.evicted);
  EXPECT_EQ(manager.maintenance_ticks(), 1);
  EXPECT_EQ(store->Get("stale-tenant").status().code(), StatusCode::kNotFound);
}

// The background thread end to end: ticks happen, the log fills, shutdown
// is prompt and clean, and the replayed log matches the leader.
TEST_P(DeltaLogContractTest, MaintenanceThreadCapturesAndReplaysExactly) {
  ShardManager leader(Options(2), kConstraint, &kMetric, &kJones);
  auto log = MakeLog();
  MaintenanceOptions options;
  options.cadence = std::chrono::milliseconds(1);
  options.idle_ttl = 50;
  options.delta_log = log.get();
  options.gc_every = 2;
  std::atomic<int64_t> ticks_seen{0};
  options.on_tick = [&](const MaintenanceTickReport& report) {
    EXPECT_TRUE(report.status.ok()) << report.status.ToString();
    ticks_seen.fetch_add(1);
  };
  ASSERT_TRUE(leader.StartMaintenance(options).ok());
  EXPECT_TRUE(leader.maintenance_running());
  EXPECT_EQ(leader.StartMaintenance(options).code(),
            StatusCode::kFailedPrecondition)
      << "double start must fail";

  const auto stream = KeyedStream(400, 103);
  for (const auto& kp : stream) {
    ASSERT_TRUE(leader.Ingest(kp.key, kp.point).ok());
  }
  // Wait until the thread has demonstrably ticked with the fleet in place.
  while (ticks_seen.load() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  leader.StopMaintenance();
  EXPECT_FALSE(leader.maintenance_running());
  const int64_t ticks_at_stop = leader.maintenance_ticks();
  EXPECT_GE(ticks_at_stop, 3);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(leader.maintenance_ticks(), ticks_at_stop)
      << "no ticks after shutdown";

  // Flush whatever the last tick missed, then replay must match the leader.
  ASSERT_TRUE(log->Capture(&leader).ok());
  auto replayed = log->Replay(&kMetric, &kJones);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ExpectSameFleets(&leader, &replayed.value());
}

// Shutdown races: stop-without-start, immediate stop after start, repeated
// start/stop cycles with concurrent ingest, and destruction with the
// thread still running — none may hang, crash, or leak (ASan job).
TEST(DeltaLogTest, MaintenanceShutdownRaces) {
  ShardManager manager(Options(1), kConstraint, &kMetric, &kJones);
  manager.StopMaintenance();  // never started: no-op

  MaintenanceOptions options;
  options.cadence = std::chrono::milliseconds(1);
  options.idle_ttl = 0;
  EXPECT_EQ(
      manager.StartMaintenance([] {
        MaintenanceOptions bad;
        bad.cadence = std::chrono::milliseconds(0);
        return bad;
      }()).code(),
      StatusCode::kInvalidArgument);

  const auto stream = KeyedStream(40, 107);
  for (int cycle = 0; cycle < 20; ++cycle) {
    ASSERT_TRUE(manager.StartMaintenance(options).ok());
    for (const auto& kp : stream) {
      ASSERT_TRUE(manager.Ingest(kp.key, kp.point).ok());
    }
    manager.StopMaintenance();
    manager.StopMaintenance();  // idempotent
  }

  // Destructor shutdown: leave the thread running at scope exit.
  {
    ShardManager doomed(Options(1), kConstraint, &kMetric, &kJones);
    ASSERT_TRUE(doomed.Ingest("t", Point({1.0, 1.0}, 0)).ok());
    ASSERT_TRUE(doomed.StartMaintenance(options).ok());
  }
}

// An on_tick hook that stops maintenance runs ON the maintenance thread:
// the re-entrant Stop must not self-join (std::terminate) — it signals the
// loop to exit and a later Stop/destructor reaps the thread.
TEST(DeltaLogTest, StopMaintenanceFromTheTickHookDoesNotSelfJoin) {
  ShardManager manager(Options(1), kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(manager.Ingest("t", Point({1.0, 1.0}, 0)).ok());

  std::atomic<int64_t> hook_ticks{0};
  MaintenanceOptions options;
  options.cadence = std::chrono::milliseconds(1);
  options.idle_ttl = 0;
  options.on_tick = [&](const MaintenanceTickReport&) {
    hook_ticks.fetch_add(1);
    manager.StopMaintenance();  // re-entrant, from the maintenance thread
  };
  ASSERT_TRUE(manager.StartMaintenance(options).ok());
  while (hook_ticks.load() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The loop exits after that tick; this (non-maintenance-thread) Stop
  // reaps it and the manager is startable again.
  manager.StopMaintenance();
  EXPECT_FALSE(manager.maintenance_running());
  const int64_t settled = manager.maintenance_ticks();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(manager.maintenance_ticks(), settled);
  ASSERT_TRUE(manager.StartMaintenance(options).ok());
  manager.StopMaintenance();
}

}  // namespace
}  // namespace serving
}  // namespace fkc
