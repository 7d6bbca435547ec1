// Concurrency contract of the two-level-locked ShardManager: a fleet
// hammered from many threads at once — per-tenant ingest clients, fleet
// QueryAll scans, tenant-option registration, and eviction sweeps — ends in
// EXACTLY the state of a serially built fleet with the same per-tenant
// arrival order (byte-equal CheckpointAll), because per-shard state depends
// only on that shard's own arrival sequence, never on cross-shard
// interleaving, and eviction/rehydration is bit-exact.
//
// Shutdown contract: the maintenance thread can be destroyed mid-tick,
// stopped from its own tick hook and then restarted, and stopped from many
// threads at once, without deadlock or double-join.
//
// LRU-index contract: a FAILED rehydration (corrupt spill blob) leaves the
// shard spilled and the LRU index without a stale entry for it — a later
// sweep neither crashes nor resurrects it, and repairing the blob restores
// the shard bit-exactly.
//
// The whole file is also the TSan workload: every test runs real threads
// against one manager, so a data race anywhere in the serving layer
// surfaces here under -fsanitize=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "metric/metric.h"
#include "sequential/jones_fair_center.h"
#include "serving/shard_manager.h"
#include "serving/spill_store.h"

namespace fkc {
namespace {

const EuclideanMetric kMetric;
const JonesFairCenter kJones;
const ColorConstraint kConstraint({2, 1, 1});

serving::ShardManagerOptions Options(int num_threads) {
  serving::ShardManagerOptions options;
  options.window.window_size = 60;
  options.window.delta = 1.0;
  options.window.adaptive_range = true;
  options.num_threads = num_threads;
  return options;
}

std::string TenantKey(int t) { return "tenant-" + std::to_string(t); }

// One tenant's arrival sequence, fully determined by its seed.
std::vector<Point> TenantArrivals(int tenant, int n) {
  Rng rng(0x5eed0000 + static_cast<uint64_t>(tenant));
  std::vector<Point> points;
  points.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    points.push_back(Point({rng.NextUniform(0, 50), rng.NextUniform(0, 50)},
                           static_cast<int>(rng.NextBounded(3))));
  }
  return points;
}

std::string MustCheckpoint(serving::ShardManager* manager) {
  auto blob = manager->CheckpointAll();
  EXPECT_TRUE(blob.ok()) << blob.status().ToString();
  return blob.ValueOr("");
}

// A leaked pin exempts its shard from eviction forever, so in a quiescent
// fleet EvictIdle(0) must spill every shard. Each shard is first made live
// by a Query; then one rejected arrival advances the fleet clock (a dropped
// arrival still consumes its tick) without touching any shard, so none
// counts as touched at the current clock.
void ExpectEveryShardEvictable(serving::ShardManager* manager) {
  for (const std::string& key : manager->Keys()) {
    ASSERT_TRUE(manager->Query(key).ok()) << key;
  }
  const Status rejected = manager->Ingest("clock-tick", Point({0.0}, -1));
  ASSERT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(manager->EvictIdle(/*idle_ttl=*/0),
            static_cast<int64_t>(manager->shard_count()));
  EXPECT_EQ(manager->live_shard_count(), 0u);
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

// --- The headline stress test: concurrent fleet == serial fleet. -------

TEST(ServingConcurrencyTest, StressEqualsSeriallyBuiltFleet) {
  constexpr int kTenants = 6;
  constexpr int kPerTenant = 2500;
  constexpr int kBatch = 16;
  constexpr int kFutureTenants = 8;  // override-only keys, never ingested

  std::vector<std::vector<Point>> arrivals;
  arrivals.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    arrivals.push_back(TenantArrivals(t, kPerTenant));
  }
  SlidingWindowOptions override_options = Options(1).window;
  override_options.window_size = 30;  // distinct from the template

  serving::ShardManager concurrent(Options(2), kConstraint, &kMetric,
                                   &kJones);
  std::atomic<bool> done{false};

  // Fleet scans: every answer must be valid mid-flight, not only at the
  // end (a torn read would surface as a failed solve or a wrong count).
  std::thread scanner([&] {
    while (!done.load(std::memory_order_relaxed)) {
      for (const serving::ShardAnswer& answer : concurrent.QueryAll()) {
        ASSERT_TRUE(answer.solution.ok())
            << answer.key << ": " << answer.solution.status().ToString();
      }
      std::this_thread::yield();
    }
  });
  // Option registration races with everything; the key set is fixed, so
  // the final override table is deterministic no matter how many rounds
  // this thread completes.
  std::thread registrar([&] {
    while (!done.load(std::memory_order_relaxed)) {
      for (int f = 0; f < kFutureTenants; ++f) {
        const Status status = concurrent.SetTenantOptions(
            "future-" + std::to_string(f), override_options);
        ASSERT_TRUE(status.ok()) << status.ToString();
      }
      std::this_thread::yield();
    }
  });
  // Eviction sweeps force mid-run spill/rehydrate cycles; bit-exact
  // rehydration is what keeps the final state independent of them.
  std::thread sweeper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      Status spill_status;
      concurrent.EvictIdle(/*idle_ttl=*/kBatch, &spill_status);
      ASSERT_TRUE(spill_status.ok()) << spill_status.ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> clients;
  clients.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    clients.emplace_back([&, t] {
      const std::string key = TenantKey(t);
      for (int start = 0; start < kPerTenant; start += kBatch) {
        std::vector<serving::KeyedPoint> batch;
        for (int i = start; i < std::min(kPerTenant, start + kBatch); ++i) {
          batch.push_back({key, arrivals[static_cast<size_t>(t)]
                                    [static_cast<size_t>(i)]});
        }
        const Status status = concurrent.IngestBatch(std::move(batch));
        ASSERT_TRUE(status.ok()) << status.ToString();
        std::this_thread::yield();
      }
    });
  }
  for (std::thread& client : clients) client.join();
  done.store(true, std::memory_order_relaxed);
  scanner.join();
  registrar.join();
  sweeper.join();

  // The reference fleet: same per-tenant sequences, one thread, no
  // eviction, no scans.
  serving::ShardManager serial(Options(1), kConstraint, &kMetric, &kJones);
  for (int f = 0; f < kFutureTenants; ++f) {
    ASSERT_TRUE(serial
                    .SetTenantOptions("future-" + std::to_string(f),
                                      override_options)
                    .ok());
  }
  for (int t = 0; t < kTenants; ++t) {
    const std::string key = TenantKey(t);
    for (const Point& p : arrivals[static_cast<size_t>(t)]) {
      ASSERT_TRUE(serial.Ingest(key, p).ok());
    }
  }

  EXPECT_EQ(MustCheckpoint(&concurrent), MustCheckpoint(&serial));

  const auto concurrent_answers = concurrent.QueryAll();
  const auto serial_answers = serial.QueryAll();
  ASSERT_EQ(concurrent_answers.size(), serial_answers.size());
  for (size_t i = 0; i < serial_answers.size(); ++i) {
    EXPECT_EQ(concurrent_answers[i].key, serial_answers[i].key);
    ASSERT_TRUE(concurrent_answers[i].solution.ok());
    ASSERT_TRUE(serial_answers[i].solution.ok());
    EXPECT_TRUE(SameSolution(concurrent_answers[i].solution.value(),
                             serial_answers[i].solution.value()))
        << "diverged on " << serial_answers[i].key;
  }
  ExpectEveryShardEvictable(&concurrent);
}

// Single-point Ingest from many threads, same contract as the batched
// stress above but through the other ingest entry point.
TEST(ServingConcurrencyTest, ConcurrentIngestMatchesSerial) {
  constexpr int kTenants = 8;
  constexpr int kPerTenant = 150;

  std::vector<std::vector<Point>> arrivals;
  arrivals.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    arrivals.push_back(TenantArrivals(100 + t, kPerTenant));
  }

  serving::ShardManager concurrent(Options(1), kConstraint, &kMetric,
                                   &kJones);
  std::vector<std::thread> clients;
  clients.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    clients.emplace_back([&, t] {
      const std::string key = TenantKey(t);
      for (const Point& p : arrivals[static_cast<size_t>(t)]) {
        ASSERT_TRUE(concurrent.Ingest(key, p).ok());
      }
    });
  }
  for (std::thread& client : clients) client.join();

  serving::ShardManager serial(Options(1), kConstraint, &kMetric, &kJones);
  for (int t = 0; t < kTenants; ++t) {
    const std::string key = TenantKey(t);
    for (const Point& p : arrivals[static_cast<size_t>(t)]) {
      ASSERT_TRUE(serial.Ingest(key, p).ok());
    }
  }
  EXPECT_EQ(MustCheckpoint(&concurrent), MustCheckpoint(&serial));
}

// --- Scattered-batch stress: multi-key batches race fleet snapshots. ---

// Racing clients whose every batch carries one point for each of several
// keys (client c owns keys k with k % kClients == c), plus a thread
// hammering CheckpointAll mid-flight. The final checkpoint must be
// byte-equal to a serially built fleet, and no snapshot may leak a pin.
TEST(ServingConcurrencyTest, ScatteredBatchStressByteEqualToSerial) {
  constexpr int kClients = 4;
  constexpr int kKeys = 24;
  constexpr int kRounds = 120;  // arrivals per key

  std::vector<std::vector<Point>> arrivals;
  arrivals.reserve(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    arrivals.push_back(TenantArrivals(500 + k, kRounds));
  }
  auto key_name = [](int k) { return "xkey-" + std::to_string(k); };

  serving::ShardManager serial(Options(1), kConstraint, &kMetric, &kJones);
  for (int k = 0; k < kKeys; ++k) {
    for (const Point& p : arrivals[static_cast<size_t>(k)]) {
      ASSERT_TRUE(serial.Ingest(key_name(k), p).ok());
    }
  }

  serving::ShardManager manager(Options(2), kConstraint, &kMetric, &kJones);
  // Fleet snapshots race the multi-key ingest; every mid-flight checkpoint
  // must at least be well-formed (a torn pin or a lock taken out of order
  // would deadlock or fail here).
  std::atomic<bool> done{false};
  std::thread checkpointer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      auto blob = manager.CheckpointAll();
      ASSERT_TRUE(blob.ok()) << blob.status().ToString();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        // One point for every owned key: a single batch that the grouping
        // phase must split per key and fan out.
        std::vector<serving::KeyedPoint> batch;
        for (int k = c; k < kKeys; k += kClients) {
          batch.push_back({key_name(k), arrivals[static_cast<size_t>(k)]
                                                [static_cast<size_t>(r)]});
        }
        const Status status = manager.IngestBatch(std::move(batch));
        ASSERT_TRUE(status.ok()) << status.ToString();
      }
    });
  }
  for (std::thread& client : clients) client.join();
  done.store(true, std::memory_order_relaxed);
  checkpointer.join();

  EXPECT_EQ(MustCheckpoint(&manager), MustCheckpoint(&serial));
  ExpectEveryShardEvictable(&manager);
}

// --- Shutdown races. ---------------------------------------------------

TEST(ServingConcurrencyTest, DestroyMidTick) {
  auto manager = std::make_unique<serving::ShardManager>(
      Options(1), kConstraint, &kMetric, &kJones);
  for (const Point& p : TenantArrivals(7, 50)) {
    ASSERT_TRUE(manager->Ingest("tenant", p).ok());
  }
  std::atomic<int> ticks{0};
  serving::MaintenanceOptions maintenance;
  maintenance.cadence = std::chrono::milliseconds(1);
  maintenance.idle_ttl = 1 << 20;  // sweeps scan but spill nothing
  maintenance.on_tick = [&](const serving::MaintenanceTickReport& report) {
    ASSERT_TRUE(report.status.ok()) << report.status.ToString();
    ticks.fetch_add(1);
    // Stretch the tick so destruction almost certainly lands mid-tick.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  ASSERT_TRUE(manager->StartMaintenance(maintenance).ok());
  while (ticks.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The destructor must stop the thread cleanly however far into a tick
  // (or the hook) it is.
  manager.reset();
}

TEST(ServingConcurrencyTest, StopFromHookThenRestart) {
  serving::ShardManager manager(Options(1), kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(manager.Ingest("tenant", Point({1.0, 2.0}, 0)).ok());

  std::atomic<int> ticks{0};
  serving::MaintenanceOptions maintenance;
  maintenance.cadence = std::chrono::milliseconds(1);
  maintenance.on_tick = [&](const serving::MaintenanceTickReport&) {
    ticks.fetch_add(1);
    manager.StopMaintenance();  // self-stop: the loop exits after this tick
  };
  ASSERT_TRUE(manager.StartMaintenance(maintenance).ok());
  while (manager.maintenance_running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ticks.load(), 1);

  // The exited-but-unjoined thread must be reaped by the next Start, and a
  // plain Stop must still work after it.
  maintenance.on_tick = [&](const serving::MaintenanceTickReport&) {
    ticks.fetch_add(1);
  };
  ASSERT_TRUE(manager.StartMaintenance(maintenance).ok());
  while (ticks.load() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  manager.StopMaintenance();
  EXPECT_FALSE(manager.maintenance_running());
}

TEST(ServingConcurrencyTest, ConcurrentStops) {
  serving::ShardManager manager(Options(1), kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(manager.Ingest("tenant", Point({1.0, 2.0}, 0)).ok());
  serving::MaintenanceOptions maintenance;
  maintenance.cadence = std::chrono::milliseconds(1);
  ASSERT_TRUE(manager.StartMaintenance(maintenance).ok());

  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&] { manager.StopMaintenance(); });
  }
  for (std::thread& stopper : stoppers) stopper.join();
  EXPECT_FALSE(manager.maintenance_running());
  // And the manager is still fully usable.
  ASSERT_TRUE(manager.Ingest("tenant", Point({3.0, 4.0}, 1)).ok());
  ASSERT_TRUE(manager.StartMaintenance(maintenance).ok());
  manager.StopMaintenance();
}

// --- LRU-index consistency after a failed rehydration. ------------------

TEST(ServingConcurrencyTest, FailedRehydrationLeavesLruConsistent) {
  auto store = std::make_shared<serving::InMemorySpillStore>();
  serving::ShardManagerOptions options = Options(1);
  options.spill_store = store;
  serving::ShardManager manager(options, kConstraint, &kMetric, &kJones);

  for (const Point& p : TenantArrivals(1, 80)) {
    ASSERT_TRUE(manager.Ingest("tenant-a", p).ok());
  }
  for (const Point& p : TenantArrivals(2, 80)) {
    ASSERT_TRUE(manager.Ingest("tenant-b", p).ok());
  }
  // QueryAll reads are ephemeral (no touch), so this records tenant-a's
  // expected answer without refreshing its LRU position.
  const auto before = manager.QueryAll();
  ASSERT_EQ(before.size(), 2u);
  ASSERT_TRUE(before[0].solution.ok());

  // tenant-a (staler than tenant-b) spills; tenant-b was touched at the
  // current clock and stays live.
  ASSERT_EQ(manager.EvictIdle(0), 1);

  auto good = store->Get("tenant-a");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_TRUE(store->Put("tenant-a", "corrupt garbage").ok());

  // The touch-then-rehydrate must FAIL without leaving a stale LRU entry
  // or a half-live shard behind.
  EXPECT_FALSE(manager.Query("tenant-a").ok());

  // A sweep right after the failure: tenant-a is spilled (not a candidate)
  // and tenant-b is current; nothing to do, nothing to trip over.
  Status spill_status;
  EXPECT_EQ(manager.EvictIdle(0, &spill_status), 0);
  EXPECT_TRUE(spill_status.ok()) << spill_status.ToString();

  // Repairing the blob restores the tenant bit-exactly.
  ASSERT_TRUE(store->Put("tenant-a", good.value()).ok());
  auto repaired = manager.Query("tenant-a");
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_TRUE(SameSolution(repaired.value(), before[0].solution.value()));

  // And the rehydration re-inserted a correct LRU entry: tenant-a is now
  // the freshest touch, so an idle sweep spills tenant-b first.
  for (const Point& p : TenantArrivals(3, 5)) {
    ASSERT_TRUE(manager.Ingest("tenant-a", p).ok());
  }
  ASSERT_EQ(manager.EvictIdle(0), 1);
  auto spilled_b = store->Get("tenant-b");
  EXPECT_TRUE(spilled_b.ok()) << "tenant-b should be the spilled one";
}

}  // namespace
}  // namespace fkc
