// Shard-scaling throughput bench for the serving layer: one process serving
// N independent sliding windows (tenants) over a shared thread pool, swept
// over shard counts. Records aggregate updates/s and queries/s per shard
// count into a BENCH_*.json for cross-PR tracking.
//
//   shard_scaling [--dataset=phones] [--points=60000] [--window=2000]
//                 [--max_shards=8] [--threads=0] [--batch=64]
//                 [--query_every=2048] [--delta=1.0]
//                 [--churn_tenants=32] [--churn_active=4]
//                 [--churn_cap=8] [--churn_ttl=4096]
//                 [--contention_clients=8] [--contention_points=1500]
//                 [--contention_idle_tenants=24] [--contention_idle_points=1500]
//                 [--contention_client_pause_ms=10] [--contention_query_pause_ms=10]
//                 [--contention_delta=1.0] [--contention_threads=2]
//                 [--zipf_s=1.1] [--zipf_tenants=0] [--create_every=256]
//                 [--objective=fair-center]
//                 [--burst_every=0] [--burst_size=0] [--cross_tenants=4]
//                 [--spill_dir=<tmp>] [--out=BENCH_shard_scaling.json]
//
// After the shard-count sweep, an eviction-churn scenario drives a much
// larger tenant population than the live-shard cap — the active set slides,
// idle tenants are spilled by periodic EvictIdle sweeps and rehydrated when
// the schedule returns to them — and records incremental-vs-full
// checkpoint sizes (the steady-state delta is a small fraction of the
// fleet blob) plus the DeltaLog's compaction counters. The scenario runs
// twice: once over the in-memory spill store and once over the durable
// FileSpillStore (under --spill_dir, default a fresh directory beside the
// output, removed afterwards), so the JSON records the wall-time price of
// spilling to disk.
//
// After churn, the multi-thread CONTENTION scenarios: N paced client
// threads ingesting hot tenant shards, a population of cold spilled
// tenants, a background thread running continuous QueryAll fleet scans,
// and a maintenance thread running eviction-sweep ticks. The schedule runs
// in several configurations: the manager's own locking (one map lock plus
// per-shard locks), every call wrapped in one external global mutex (the
// old single-internal-mutex serving layer), a --zipf_s skewed entry where
// every client draws keys from one shared heavy-tailed tenant population,
// and a --create_every create-heavy entry whose key generations rotate
// mid-run so shard creation stays on the measured path. Each fleet scan pays a store read + full state
// deserialization per cold tenant, so it costs real time: under the global
// mutex that whole scan runs with every hot client blocked, while
// per-shard locking absorbs it into the clients' think time (measurable
// even on a single-core host); the work-sharing win on top needs a
// multi-core runner.
//
// After contention, the CROSS-OBJECTIVE scenario: the same keyed stream is
// replayed into one fleet per objective, each answering a final
// QueryAll(objective) — recording ingest throughput, final objective
// values, window memory, and full-checkpoint size. The objective is a
// query argument, so the two fleets hold the same windows and checkpoint
// the same bytes; only the objective values differ. Objective values and
// checkpoint bytes are deterministic; the throughputs are wall-clock.
//
// Wall-clock throughput is hardware-dependent; the JSON also records the
// deterministic per-run totals (updates, queries, shard memory, eviction /
// rehydration / checkpoint-size counters) which are stable across machines
// and usable for regression checks.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "metric/simd_kernels.h"
#include "sequential/jones_fair_center.h"
#include "serving/delta_log.h"
#include "serving/shard_manager.h"
#include "serving/spill_store.h"
#include "stream/stream.h"

// The three serving drivers this bench runs: throughput, eviction churn and
// multi-thread contention, each over a ShardManager.
namespace fkc {
namespace {

/// The keyed-arrival batching both sharded drivers share: buffers arrivals,
/// delivers them through IngestBatch in `batch_size` chunks, accumulates the
/// ingest wall time, and CHECKs every status (the drivers' schedules only
/// produce valid arrivals, so a rejection is a driver bug).
class KeyedBatchFeeder {
 public:
  KeyedBatchFeeder(serving::ShardManager* manager, int64_t batch_size,
                   double* update_seconds)
      : manager_(manager),
        batch_size_(batch_size),
        update_seconds_(update_seconds) {
    pending_.reserve(static_cast<size_t>(batch_size_));
  }

  void Add(std::string key, Point point) {
    pending_.push_back({std::move(key), std::move(point)});
    if (static_cast<int64_t>(pending_.size()) >= batch_size_) Flush();
  }

  void Flush() {
    if (pending_.empty()) return;
    Stopwatch timer;
    const Status status = manager_->IngestBatch(std::move(pending_));
    FKC_CHECK(status.ok()) << status.ToString();
    *update_seconds_ += timer.ElapsedMillis() / 1e3;
    pending_ = {};
    pending_.reserve(static_cast<size_t>(batch_size_));
  }

 private:
  serving::ShardManager* manager_;
  int64_t batch_size_;
  double* update_seconds_;
  std::vector<serving::KeyedPoint> pending_;
};

/// Schedule of a sharded serving run.
struct ShardedRunOptions {
  /// Total keyed arrivals fed across all shards.
  int64_t stream_length = 0;
  /// Keyed arrivals per IngestBatch call.
  int64_t batch_size = 64;
  /// A QueryAll fan-out after every this many arrivals (0 = never).
  int64_t query_every = 1024;
  /// The objective every QueryAll fan-out answers.
  ObjectiveKind objective = ObjectiveKind::kFairCenter;
  /// Burst arrivals: every `burst_every` arrivals the driver withholds the
  /// next `burst_size` arrivals and delivers them as ONE oversized
  /// IngestBatch call (bypassing `batch_size`), modelling synchronized
  /// sensor flushes or thundering-herd tenants instead of a perfectly
  /// paced stream. Any paced arrivals still buffered are flushed before
  /// the burst, so per-key arrival order — the only order that matters —
  /// is exactly the paced stream's. 0 disables bursts.
  int64_t burst_every = 0;
  /// Arrivals per burst; clamped to `burst_every`, and 0 defaults to
  /// 8 * batch_size when bursts are enabled.
  int64_t burst_size = 0;
};

/// Aggregate throughput of one sharded run.
struct ShardedThroughputReport {
  int shards = 0;
  int64_t updates = 0;
  int64_t queries = 0;  ///< per-shard answers, i.e. QueryAll calls * shards
  int64_t bursts = 0;   ///< oversized burst batches delivered
  double update_seconds = 0.0;
  double query_seconds = 0.0;

  double UpdatesPerSecond() const {
    return update_seconds > 0.0 ? static_cast<double>(updates) / update_seconds
                                : 0.0;
  }
  double QueriesPerSecond() const {
    return query_seconds > 0.0 ? static_cast<double>(queries) / query_seconds
                                : 0.0;
  }
};

/// Drives a ShardManager for throughput measurement: arrivals from `stream`
/// are routed round-robin over `keys` (arrival i goes to keys[i % keys]),
/// delivered in batches, with periodic QueryAll fan-outs. Every returned
/// answer is checked OK; wall times for ingest and query are accumulated
/// separately.
ShardedThroughputReport RunShardedThroughput(
    serving::ShardManager* manager, PointStream* stream,
    const std::vector<std::string>& keys, const ShardedRunOptions& options) {
  FKC_CHECK(manager != nullptr);
  FKC_CHECK(stream != nullptr);
  FKC_CHECK(!keys.empty());
  FKC_CHECK_GT(options.stream_length, 0);
  FKC_CHECK_GT(options.batch_size, 0);

  ShardedThroughputReport report;
  report.shards = static_cast<int>(keys.size());

  KeyedBatchFeeder feeder(manager, options.batch_size,
                          &report.update_seconds);

  // Burst schedule: the first burst_size arrivals of every burst_every
  // cycle accumulate here and land as one oversized IngestBatch. The burst
  // is always delivered before the next paced arrival is read, so per-key
  // arrival order matches the paced stream exactly.
  int64_t burst_size = 0;
  if (options.burst_every > 0) {
    burst_size = options.burst_size > 0 ? options.burst_size
                                        : 8 * options.batch_size;
    burst_size = std::min(burst_size, options.burst_every);
  }
  std::vector<serving::KeyedPoint> burst;
  if (burst_size > 0) burst.reserve(static_cast<size_t>(burst_size));
  auto deliver_burst = [&] {
    if (burst.empty()) return;
    feeder.Flush();  // paced arrivals buffered earlier precede the burst
    Stopwatch timer;
    const Status status = manager->IngestBatch(std::move(burst));
    FKC_CHECK(status.ok()) << status.ToString();
    report.update_seconds += timer.ElapsedMillis() / 1e3;
    ++report.bursts;
    burst = {};
    burst.reserve(static_cast<size_t>(burst_size));
  };

  for (int64_t t = 0; t < options.stream_length; ++t) {
    auto next = stream->Next();
    FKC_CHECK(next.has_value()) << "stream exhausted at arrival " << t;
    const std::string& key =
        keys[static_cast<size_t>(t % static_cast<int64_t>(keys.size()))];
    if (burst_size > 0 && t % options.burst_every < burst_size) {
      burst.push_back({key, std::move(*next)});
      if (static_cast<int64_t>(burst.size()) >= burst_size) deliver_burst();
    } else {
      feeder.Add(key, std::move(*next));
    }
    ++report.updates;

    if (options.query_every > 0 && (t + 1) % options.query_every == 0) {
      deliver_burst();  // a query mid-cycle ships the partial burst first
      feeder.Flush();  // answers must reflect every arrival delivered so far
      Stopwatch timer;
      const auto answers = manager->QueryAll(options.objective);
      report.query_seconds += timer.ElapsedMillis() / 1e3;
      for (const serving::ShardAnswer& answer : answers) {
        FKC_CHECK(answer.solution.ok())
            << "shard '" << answer.key
            << "': " << answer.solution.status().ToString();
      }
      report.queries += static_cast<int64_t>(answers.size());
    }
  }
  deliver_burst();
  feeder.Flush();
  return report;
}

/// Schedule of an eviction-churn serving run: a large tenant population of
/// which only a small set is active at any moment, the active set sliding
/// over time so tenants go idle, get spilled by periodic EvictIdle sweeps
/// (into whichever SpillStore backend the manager was built with), and are
/// rehydrated if the schedule returns to them. Periodic delta captures feed
/// a compacting serving::DeltaLog, measuring how much smaller steady-state
/// deltas are than the full fleet blob and how often the chain re-bases.
struct ShardedChurnOptions {
  /// Total keyed arrivals fed across the run.
  int64_t stream_length = 0;
  /// Keyed arrivals per IngestBatch call.
  int64_t batch_size = 64;
  /// Tenant population the schedule cycles through.
  int64_t tenants = 32;
  /// Tenants receiving arrivals at any moment (arrival t goes to tenant
  /// (t / rotate_every + t % active) % tenants).
  int64_t active = 4;
  /// Arrivals between sliding the active set forward by one tenant.
  int64_t rotate_every = 1024;
  /// Arrivals between EvictIdle sweeps (0 = never evict).
  int64_t evict_every = 1024;
  /// Idle TTL handed to EvictIdle, in fleet-wide arrivals.
  int64_t idle_ttl = 4096;
  /// Arrivals between DeltaLog captures (0 = never).
  int64_t delta_every = 8192;
  /// DeltaLog chain-length budget: captures past this many chained deltas
  /// re-base on a full checkpoint.
  int64_t delta_chain_budget = 8;
};

/// Outcome of one churn run. The counters (updates, evictions,
/// rehydrations, shard/byte totals) are deterministic for a fixed stream
/// and schedule; the wall times are not.
struct ShardedChurnReport {
  int64_t updates = 0;
  int64_t evictions = 0;
  int64_t rehydrations = 0;
  int64_t total_shards = 0;      ///< live + spilled at the end
  int64_t live_shards = 0;       ///< live at the end (post final sweep)
  int64_t delta_checkpoints = 0;  ///< DeltaLog captures that shipped a delta
  int64_t delta_bytes = 0;       ///< summed over all delta captures
  int64_t rebases = 0;           ///< chain compactions (budget exceeded)
  int64_t log_bytes = 0;         ///< final DeltaLog size (base + chain)
  int64_t full_checkpoint_bytes = 0;  ///< one CheckpointAll at the end
  double update_seconds = 0.0;
  double maintenance_seconds = 0.0;  ///< EvictIdle + checkpoint time

  double UpdatesPerSecond() const {
    return update_seconds > 0.0 ? static_cast<double>(updates) / update_seconds
                                : 0.0;
  }
};

/// Drives a ShardManager through the churn schedule above. Every IngestBatch
/// status is checked OK (the schedule only produces valid arrivals).
ShardedChurnReport RunShardedChurn(serving::ShardManager* manager,
                                   PointStream* stream,
                                   const ShardedChurnOptions& options) {
  FKC_CHECK(manager != nullptr);
  FKC_CHECK(stream != nullptr);
  FKC_CHECK_GT(options.stream_length, 0);
  FKC_CHECK_GT(options.batch_size, 0);
  FKC_CHECK_GT(options.tenants, 0);
  FKC_CHECK_GT(options.active, 0);
  FKC_CHECK_GT(options.rotate_every, 0);

  ShardedChurnReport report;
  KeyedBatchFeeder feeder(manager, options.batch_size,
                          &report.update_seconds);
  serving::DeltaLog::Options log_options;
  log_options.max_chain_length = options.delta_chain_budget;
  serving::DeltaLog log(log_options);

  for (int64_t t = 0; t < options.stream_length; ++t) {
    auto next = stream->Next();
    FKC_CHECK(next.has_value()) << "stream exhausted at arrival " << t;
    // The active set slides forward one tenant per rotate_every arrivals;
    // tenants behind the set go idle and the periodic sweep spills them.
    const int64_t tenant =
        (t / options.rotate_every + t % options.active) % options.tenants;
    feeder.Add(StrFormat("tenant-%04lld", static_cast<long long>(tenant)),
               std::move(*next));
    ++report.updates;

    if (options.evict_every > 0 && (t + 1) % options.evict_every == 0) {
      feeder.Flush();
      Stopwatch timer;
      Status spill_status;
      manager->EvictIdle(options.idle_ttl, &spill_status);
      FKC_CHECK(spill_status.ok()) << spill_status.ToString();
      report.maintenance_seconds += timer.ElapsedMillis() / 1e3;
    }
    if (options.delta_every > 0 && (t + 1) % options.delta_every == 0) {
      feeder.Flush();
      Stopwatch timer;
      auto captured = log.Capture(manager);
      report.maintenance_seconds += timer.ElapsedMillis() / 1e3;
      FKC_CHECK(captured.ok()) << captured.status().ToString();
      if (!captured.value().rebased) {
        ++report.delta_checkpoints;
        report.delta_bytes += static_cast<int64_t>(captured.value().bytes);
      }
    }
  }
  feeder.Flush();

  Stopwatch timer;
  auto full = manager->CheckpointAll();
  FKC_CHECK(full.ok()) << full.status().ToString();
  report.full_checkpoint_bytes = static_cast<int64_t>(full.value().size());
  report.maintenance_seconds += timer.ElapsedMillis() / 1e3;
  report.log_bytes = static_cast<int64_t>(log.base_bytes()) + log.chain_bytes();
  report.rebases = log.rebases();
  report.evictions = manager->evictions();
  report.rehydrations = manager->rehydrations();
  report.total_shards = static_cast<int64_t>(manager->shard_count());
  report.live_shards = static_cast<int64_t>(manager->live_shard_count());
  return report;
}

/// Schedule of a multi-thread contention run: N client threads, each
/// ingesting a fixed number of pre-generated arrivals into its own tenant
/// shard, while a background thread runs continuous QueryAll rounds and a
/// maintenance thread runs eviction-sweep ticks. Measures how much ingest
/// the serving layer sustains while fleet-wide reads and maintenance hammer
/// it — the scenario per-shard locking exists for. With `global_mutex` the
/// same schedule wraps EVERY manager call in one external mutex, emulating
/// the old single-internal-mutex design as the baseline: there a QueryAll
/// round blocks all clients for the whole fleet scan.
struct ShardedContentionOptions {
  /// Client threads; client c ingests only into its own key ("client-c"),
  /// so client threads never contend with each other under per-shard
  /// locking, only with the fleet-wide readers.
  int client_threads = 8;
  /// Arrivals each client ingests (pre-generated before the clock starts,
  /// so stream synthesis is not measured).
  int64_t points_per_client = 0;
  /// Keyed arrivals per IngestBatch call.
  int64_t batch_size = 64;
  /// Think time between a client's batches, modelling a paced per-tenant
  /// arrival stream instead of an offline replay. The pacing leaves the
  /// fleet idle headroom — per-shard locking spends it on the background
  /// QueryAll scans without delaying any client, while the single-mutex
  /// baseline stalls every client for the full duration of each scan.
  /// 0 = hammer (clients replay as fast as the manager admits them).
  int64_t client_pause_ms = 2;
  /// Cold tenants: before the clock starts, each is filled with
  /// `idle_points` arrivals and spilled to the store (EvictIdle(0)). They
  /// never ingest again, but every background QueryAll round pays an
  /// ephemeral read — store Get + full state deserialization — for each
  /// one. That is what makes a fleet scan cost real time: under the
  /// single-mutex baseline the whole scan happens with every hot client
  /// blocked, while per-shard locking deserializes cold state outside any
  /// lock the clients need.
  int64_t idle_tenants = 24;
  /// Arrivals pre-ingested into each cold tenant (sets its spilled-state
  /// size, i.e. the per-shard cost of a fleet scan).
  int64_t idle_points = 1000;
  /// Pause between background QueryAll rounds. Deliberately non-zero: it
  /// also gives the single-mutex baseline its only ingest window — with a
  /// back-to-back query loop the global mutex would be re-acquired before
  /// any waiting client wakes, and the baseline would measure pure
  /// starvation instead of contention.
  int64_t query_pause_ms = 2;
  /// Pause between maintenance ticks (each = one eviction sweep).
  int64_t maintenance_pause_ms = 5;
  /// Idle TTL handed to the per-tick sweep. The default is large enough
  /// that the sweep scans but spills nothing — the contention scenario
  /// measures locking, not spill IO.
  int64_t idle_ttl = int64_t{1} << 30;
  /// Baseline mode: serialize every manager call behind one external
  /// mutex (ingest, QueryAll, and maintenance alike).
  bool global_mutex = false;
  /// Zipf skew of the key routing. 0 keeps the classic schedule (client c
  /// owns key "client-c", fully disjoint). s > 0 switches to a shared
  /// heavy-tailed tenant population: each client draws every arrival's key
  /// from Zipf(s) over `zipf_tenants` ranks (deterministically, seeded per
  /// client), so hot tenants are shared across clients. Measures the
  /// per-shard locks under realistic hot-key popularity instead of
  /// perfectly spread routing.
  double zipf_s = 0.0;
  /// Tenant population for the Zipf schedule; 0 = 4 * client_threads.
  int64_t zipf_tenants = 0;
  /// Create-heavy churn: every this many arrivals, a client rotates to a
  /// fresh never-seen key generation (key "client-c-gN" or a fresh Zipf
  /// rank namespace), so shard CREATION — the exclusive map-lock write
  /// path — stays on the hot path instead of happening once at warm-up.
  /// 0 = keys are stable for the whole run.
  int64_t create_every = 0;
};

/// Outcome of one contention run. updates and shards are deterministic;
/// everything else is wall-clock dependent (including query_rounds and
/// maintenance_ticks — background threads run as often as the clock lets
/// them).
struct ShardedContentionReport {
  int shards = 0;          ///< hot shards at the end (clients or Zipf ranks)
  int client_threads = 0;
  int idle_tenants = 0;    ///< cold spilled tenants scanned by every round
  int64_t updates = 0;
  int64_t query_rounds = 0;       ///< completed background QueryAll rounds
  int64_t maintenance_ticks = 0;  ///< completed background sweeps
  /// Pool iterations claimed while another fan-out was concurrently in
  /// flight (ThreadPool work sharing). Volatile, like query_rounds.
  int64_t pool_steals = 0;
  /// Wall time from releasing the clients to the last client finishing,
  /// with the background threads running throughout.
  double update_seconds = 0.0;

  double UpdatesPerSecond() const {
    return update_seconds > 0.0 ? static_cast<double>(updates) / update_seconds
                                : 0.0;
  }
};

/// Runs the contention schedule. Every IngestBatch status, QueryAll answer,
/// and maintenance tick is checked OK.
ShardedContentionReport RunShardedContention(
    serving::ShardManager* manager, PointStream* stream,
    const ShardedContentionOptions& options) {
  FKC_CHECK(manager != nullptr);
  FKC_CHECK(stream != nullptr);
  FKC_CHECK_GT(options.client_threads, 0);
  FKC_CHECK_GT(options.points_per_client, 0);
  FKC_CHECK_GT(options.batch_size, 0);

  ShardedContentionReport report;
  report.client_threads = options.client_threads;
  report.idle_tenants = static_cast<int>(options.idle_tenants);

  // The key schedule. Classic mode: client c owns "client-c", fully
  // disjoint. Zipf mode (zipf_s > 0): every arrival's key is a rank drawn
  // from a shared heavy-tailed tenant population, so hot tenants are
  // contended across clients. create_every rotates either schedule to a
  // fresh key generation mid-run, keeping shard creation on the measured
  // path.
  const int64_t zipf_tenants =
      options.zipf_s > 0.0
          ? (options.zipf_tenants > 0
                 ? options.zipf_tenants
                 : int64_t{4} * options.client_threads)
          : 0;
  std::unique_ptr<ZipfDistribution> zipf;
  if (options.zipf_s > 0.0) {
    zipf = std::make_unique<ZipfDistribution>(
        static_cast<size_t>(zipf_tenants), options.zipf_s);
  }
  auto key_for = [&](int client, int64_t i, Rng* rng) -> std::string {
    const long long generation =
        options.create_every > 0
            ? static_cast<long long>(i / options.create_every)
            : 0;
    if (zipf != nullptr) {
      const long long rank = static_cast<long long>(zipf->Next(rng));
      return generation == 0 ? StrFormat("hot-%04lld", rank)
                             : StrFormat("hot-g%lld-%04lld", generation, rank);
    }
    return generation == 0
               ? StrFormat("client-%02d", client)
               : StrFormat("client-%02d-g%lld", client, generation);
  };

  // Pre-generate every client's keyed arrivals before the clock starts:
  // stream synthesis (and Zipf sampling) must not be measured, and clients
  // must not contend on the stream itself. Deterministic per client: the
  // Zipf draws are seeded by the client index.
  std::vector<std::vector<serving::KeyedPoint>> per_client(
      static_cast<size_t>(options.client_threads));
  for (int c = 0; c < options.client_threads; ++c) {
    Rng rng(/*seed=*/777 + static_cast<uint64_t>(c));
    auto& arrivals = per_client[static_cast<size_t>(c)];
    arrivals.reserve(static_cast<size_t>(options.points_per_client));
    for (int64_t i = 0; i < options.points_per_client; ++i) {
      auto next = stream->Next();
      FKC_CHECK(next.has_value()) << "stream exhausted pre-generating points";
      arrivals.push_back({key_for(c, i, &rng), std::move(*next)});
    }
  }

  // Build the cold half of the fleet (also unmeasured): fill each idle
  // tenant, then spill all of them at once. They stay spilled for the whole
  // run — the hot keys are disjoint and the maintenance TTL is far larger
  // than the run — so every QueryAll round pays idle_tenants ephemeral
  // reads with full state deserialization.
  for (int64_t t = 0; t < options.idle_tenants; ++t) {
    const std::string key = StrFormat("idle-%02lld", static_cast<long long>(t));
    std::vector<serving::KeyedPoint> batch;
    batch.reserve(static_cast<size_t>(options.batch_size));
    for (int64_t i = 0; i < options.idle_points; ++i) {
      auto next = stream->Next();
      FKC_CHECK(next.has_value()) << "stream exhausted building idle tenants";
      batch.push_back({key, std::move(*next)});
      if (static_cast<int64_t>(batch.size()) == options.batch_size ||
          i + 1 == options.idle_points) {
        const Status status = manager->IngestBatch(std::move(batch));
        FKC_CHECK(status.ok()) << status.ToString();
        batch.clear();
        batch.reserve(static_cast<size_t>(options.batch_size));
      }
    }
  }
  // Warm up the generation-0 hot shards: one arrival each, so the measured
  // phase never pays their creation (later create_every generations pay it
  // on the hot path by design), and the fleet clock moves past every cold
  // tenant's last touch (EvictIdle counts a shard idle only when it is
  // STRICTLY older than the TTL). In Zipf mode the warm set is the whole
  // rank population — even the tail ranks a client may never draw.
  std::vector<std::string> warm_keys;
  if (zipf != nullptr) {
    for (int64_t rank = 0; rank < zipf_tenants; ++rank) {
      warm_keys.push_back(StrFormat("hot-%04lld", static_cast<long long>(rank)));
    }
  } else {
    for (int c = 0; c < options.client_threads; ++c) {
      warm_keys.push_back(StrFormat("client-%02d", c));
    }
  }
  for (const std::string& key : warm_keys) {
    auto next = stream->Next();
    FKC_CHECK(next.has_value()) << "stream exhausted warming hot shards";
    std::vector<serving::KeyedPoint> warmup;
    warmup.push_back({key, std::move(*next)});
    const Status status = manager->IngestBatch(std::move(warmup));
    FKC_CHECK(status.ok()) << status.ToString();
  }
  if (options.idle_tenants > 0) {
    // TTL = warm_keys - 1 separates the fleet exactly: every cold tenant
    // is at least warm_keys arrivals stale (the warmups above all came
    // later), while the oldest hot warmup is warm_keys - 1.
    Status spill_status;
    const int64_t spilled = manager->EvictIdle(
        static_cast<int64_t>(warm_keys.size()) - 1, &spill_status);
    FKC_CHECK(spill_status.ok()) << spill_status.ToString();
    FKC_CHECK_EQ(spilled, options.idle_tenants)
        << "cold tenants failed to spill";
  }

  // The baseline's "one internal mutex": every manager call — ingest,
  // QueryAll, maintenance — funnels through this lock when global_mutex is
  // set. With it off the lambda is pass-through and the manager's own
  // two-level locking is what's measured.
  std::mutex global_mu;
  auto locked = [&](auto&& fn) {
    if (options.global_mutex) {
      std::lock_guard<std::mutex> lock(global_mu);
      return fn();
    }
    return fn();
  };

  std::atomic<bool> done{false};
  std::atomic<int64_t> query_rounds{0};
  std::atomic<int64_t> maintenance_ticks{0};

  // Background QueryAll storm: rounds run back to back, separated only by
  // the configured pause (the baseline's ingest window — see
  // ShardedContentionOptions::query_pause_ms).
  std::thread query_thread([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const auto answers = locked([&] { return manager->QueryAll(); });
      for (const serving::ShardAnswer& answer : answers) {
        FKC_CHECK(answer.solution.ok())
            << "shard '" << answer.key
            << "': " << answer.solution.status().ToString();
      }
      query_rounds.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.query_pause_ms));
    }
  });
  std::thread maintenance_thread([&] {
    serving::MaintenanceOptions tick_options;
    tick_options.idle_ttl = options.idle_ttl;
    while (!done.load(std::memory_order_relaxed)) {
      const auto tick =
          locked([&] { return manager->RunMaintenanceTick(tick_options); });
      FKC_CHECK(tick.status.ok()) << tick.status.ToString();
      maintenance_ticks.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.maintenance_pause_ms));
    }
  });

  // Release the clients and time the whole concurrent phase: wall clock
  // from here to the last client finishing its fixed workload, with the
  // background threads hammering throughout.
  Stopwatch timer;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(options.client_threads));
  for (int c = 0; c < options.client_threads; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<serving::KeyedPoint>& arrivals =
          per_client[static_cast<size_t>(c)];
      for (size_t start = 0; start < arrivals.size();
           start += static_cast<size_t>(options.batch_size)) {
        const size_t end = std::min(
            arrivals.size(), start + static_cast<size_t>(options.batch_size));
        std::vector<serving::KeyedPoint> batch(arrivals.begin() + start,
                                               arrivals.begin() + end);
        const Status status =
            locked([&] { return manager->IngestBatch(std::move(batch)); });
        FKC_CHECK(status.ok()) << status.ToString();
        if (options.client_pause_ms > 0 &&
            end < arrivals.size()) {  // no tail padding after the last batch
          std::this_thread::sleep_for(
              std::chrono::milliseconds(options.client_pause_ms));
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  report.update_seconds = timer.ElapsedMillis() / 1e3;
  done.store(true, std::memory_order_relaxed);
  query_thread.join();
  maintenance_thread.join();

  report.updates = static_cast<int64_t>(options.client_threads) *
                   options.points_per_client;
  report.query_rounds = query_rounds.load();
  report.maintenance_ticks = maintenance_ticks.load();
  report.shards = static_cast<int>(manager->shard_count()) -
                  static_cast<int>(options.idle_tenants);
  report.pool_steals = manager->pool_shared_claims();
  return report;
}

}  // namespace
}  // namespace fkc

namespace {

struct RunResult {
  int shards = 0;
  fkc::ShardedThroughputReport report;
  int64_t memory_points = 0;
};

void PrintChurn(const char* backend, const fkc::ShardedChurnReport& churn) {
  std::printf(
      "# Eviction churn [%s spill]: %.0f updates/s, %lld evictions, "
      "%lld rehydrations, delta %lld B over %lld checkpoints "
      "(%lld rebases, log %lld B) vs %lld B full\n",
      backend, churn.UpdatesPerSecond(),
      static_cast<long long>(churn.evictions),
      static_cast<long long>(churn.rehydrations),
      static_cast<long long>(churn.delta_bytes),
      static_cast<long long>(churn.delta_checkpoints),
      static_cast<long long>(churn.rebases),
      static_cast<long long>(churn.log_bytes),
      static_cast<long long>(churn.full_checkpoint_bytes));
}

void WriteChurnJson(std::ofstream& out, const char* backend,
                    const fkc::ShardedChurnReport& churn) {
  out << "    \"" << backend << "\": {\"updates\": " << churn.updates
      << ", \"updates_per_s\": "
      << fkc::StrFormat("%.1f", churn.UpdatesPerSecond())
      << ", \"evictions\": " << churn.evictions
      << ", \"rehydrations\": " << churn.rehydrations
      << ", \"total_shards\": " << churn.total_shards
      << ", \"live_shards\": " << churn.live_shards
      << ", \"delta_checkpoints\": " << churn.delta_checkpoints
      << ", \"delta_bytes\": " << churn.delta_bytes
      << ", \"rebases\": " << churn.rebases
      << ", \"log_bytes\": " << churn.log_bytes
      << ", \"full_checkpoint_bytes\": " << churn.full_checkpoint_bytes
      << "}";
}

}  // namespace

int main(int argc, char** argv) {
  std::string dataset = "phones";
  std::string out_path = "BENCH_shard_scaling.json";
  int64_t points = 60000;
  int64_t window = 2000;
  int64_t max_shards = 8;
  int64_t threads = 0;  // all hardware threads
  int64_t batch = 64;
  int64_t query_every = 2048;
  double delta = 1.0;
  int64_t churn_tenants = 32;
  int64_t churn_active = 4;
  int64_t churn_cap = 8;
  int64_t churn_ttl = 4096;
  int64_t contention_clients = 8;
  int64_t contention_points = 1500;
  int64_t contention_query_pause_ms = 10;
  int64_t contention_client_pause_ms = 10;
  int64_t contention_idle_tenants = 24;
  int64_t contention_idle_points = 1500;
  int64_t contention_threads = 2;
  double contention_delta = 1.0;
  double zipf_s = 1.1;
  int64_t zipf_tenants = 0;
  int64_t create_every = 256;
  std::string objective = "fair-center";
  int64_t burst_every = 0;
  int64_t burst_size = 0;
  int64_t cross_tenants = 4;
  std::string spill_dir;

  fkc::FlagParser flags;
  flags.AddString("dataset", &dataset, "dataset name (see datasets/registry)");
  flags.AddString("out", &out_path, "output JSON path");
  flags.AddInt64("points", &points, "total keyed arrivals per run");
  flags.AddInt64("window", &window, "per-shard window size");
  flags.AddInt64("max_shards", &max_shards,
                 "sweep shard counts 1,2,4,... up to this");
  fkc::AddThreadsFlag(&flags, &threads);
  flags.AddInt64("batch", &batch, "keyed arrivals per IngestBatch");
  flags.AddInt64("query_every", &query_every,
                 "QueryAll fan-out period in arrivals (0 = never)");
  flags.AddDouble("delta", &delta, "coreset precision delta");
  flags.AddInt64("churn_tenants", &churn_tenants,
                 "tenant population of the eviction-churn scenario");
  flags.AddInt64("churn_active", &churn_active,
                 "simultaneously active tenants in the churn scenario");
  flags.AddInt64("churn_cap", &churn_cap,
                 "max_live_shards (LRU cap) in the churn scenario");
  flags.AddInt64("churn_ttl", &churn_ttl,
                 "EvictIdle TTL in arrivals for the churn scenario");
  flags.AddInt64("contention_clients", &contention_clients,
                 "client threads (= tenant shards) in the contention "
                 "scenario (0 = skip it)");
  flags.AddInt64("contention_points", &contention_points,
                 "arrivals each contention client ingests");
  flags.AddInt64("contention_query_pause_ms", &contention_query_pause_ms,
                 "pause between background QueryAll rounds in the "
                 "contention scenario");
  flags.AddInt64("contention_client_pause_ms", &contention_client_pause_ms,
                 "per-client think time between ingest batches in the "
                 "contention scenario (paced arrival streams)");
  flags.AddInt64("contention_idle_tenants", &contention_idle_tenants,
                 "cold spilled tenants each QueryAll round must scan in "
                 "the contention scenario");
  flags.AddInt64("contention_idle_points", &contention_idle_points,
                 "arrivals pre-ingested into each cold tenant (sets the "
                 "per-shard cost of a fleet scan)");
  flags.AddInt64("contention_threads", &contention_threads,
                 "manager pool threads in the contention scenario (the "
                 "work-sharing pool concurrent IngestBatch callers and "
                 "QueryAll rounds interleave on; 1 = no pool)");
  flags.AddDouble("contention_delta", &contention_delta,
                  "coreset precision delta for the contention scenario");
  flags.AddDouble("zipf_s", &zipf_s,
                  "Zipf skew of the skewed contention entry (heavy-tailed "
                  "tenant popularity; 0 = skip the skewed entry)");
  flags.AddInt64("zipf_tenants", &zipf_tenants,
                 "tenant population of the skewed entry (0 = 4x clients)");
  flags.AddInt64("create_every", &create_every,
                 "arrivals between key-generation rotations in the "
                 "create-heavy contention entry (0 = skip it)");
  flags.AddString("objective", &objective,
                  "objective the shard-count sweep's QueryAll fan-outs "
                  "answer: fair-center or k-median");
  flags.AddInt64("burst_every", &burst_every,
                 "burst-arrival period of the sweep in arrivals (0 = "
                 "steady batches, no bursts)");
  flags.AddInt64("burst_size", &burst_size,
                 "arrivals delivered as one oversized IngestBatch at the "
                 "start of each burst period (0 = 8x batch)");
  flags.AddInt64("cross_tenants", &cross_tenants,
                 "tenant shards in the cross-objective scenario (0 = "
                 "skip it)");
  flags.AddString("spill_dir", &spill_dir,
                  "directory for the FileSpillStore churn run (default: "
                  "<out>.spill, removed afterwards)");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage(argv[0]).c_str());
    return 0;
  }

  const fkc::EuclideanMetric metric;
  const fkc::JonesFairCenter jones;
  const int num_threads = fkc::ResolveThreadCount(threads);
  auto objective_kind = fkc::ParseObjectiveTag(objective);
  if (!objective_kind.ok()) {
    std::fprintf(stderr, "%s\n",
                 objective_kind.status().ToString().c_str());
    return 1;
  }

  // The canonical experiment configuration (sum k_i = 14, proportional
  // caps); adaptive range so no distance bounds are needed per tenant.
  const auto prepared = fkc::bench::Prepare(dataset, points, metric);

  std::printf(
      "# Shard-scaling throughput: %lld arrivals, window %lld, batch %lld, "
      "%d threads, QueryAll every %lld\n",
      static_cast<long long>(points), static_cast<long long>(window),
      static_cast<long long>(batch), num_threads,
      static_cast<long long>(query_every));
  std::printf("%-10s %8s %14s %14s %12s %12s %12s\n", "dataset", "shards",
              "updates_per_s", "queries_per_s", "updates", "queries",
              "memory_pts");

  std::vector<RunResult> results;
  for (int64_t shards = 1; shards <= max_shards; shards *= 2) {
    fkc::serving::ShardManagerOptions options;
    options.window.window_size = window;
    options.window.delta = delta;
    options.window.adaptive_range = true;
    options.num_threads = num_threads;
    fkc::serving::ShardManager manager(options, prepared.constraint, &metric,
                                       &jones);

    std::vector<std::string> keys;
    for (int64_t s = 0; s < shards; ++s) {
      keys.push_back(fkc::StrFormat("tenant-%02lld", static_cast<long long>(s)));
    }

    auto stream = fkc::datasets::MakeStream(prepared.dataset);
    fkc::ShardedRunOptions run_options;
    run_options.stream_length = points;
    run_options.batch_size = batch;
    run_options.query_every = query_every;
    run_options.objective = objective_kind.value();
    run_options.burst_every = burst_every;
    run_options.burst_size = burst_size;

    RunResult result;
    result.shards = static_cast<int>(shards);
    result.report = fkc::RunShardedThroughput(&manager, stream.get(), keys,
                                              run_options);
    result.memory_points = manager.TotalMemory().TotalPoints();
    results.push_back(result);

    std::printf("%-10s %8d %14.0f %14.1f %12lld %12lld %12lld\n",
                dataset.c_str(), result.shards,
                result.report.UpdatesPerSecond(),
                result.report.QueriesPerSecond(),
                static_cast<long long>(result.report.updates),
                static_cast<long long>(result.report.queries),
                static_cast<long long>(result.memory_points));
  }

  // --- Eviction-churn scenario: tenants arriving and expiring under an LRU
  // cap, with periodic EvictIdle sweeps and DeltaLog captures — once per
  // spill backend. The schedules are identical, so the deterministic
  // counters must agree between the two runs; the wall times show what
  // durability costs. ---
  std::printf(
      "# Eviction churn: %lld tenants (%lld active, cap %lld, ttl %lld)\n",
      static_cast<long long>(churn_tenants),
      static_cast<long long>(churn_active), static_cast<long long>(churn_cap),
      static_cast<long long>(churn_ttl));
  // Only a directory this run invented gets deleted afterwards: blowing
  // away a user-supplied --spill_dir (which may pre-exist and hold foreign
  // files) is not this bench's call.
  const bool owns_spill_dir = spill_dir.empty();
  if (owns_spill_dir) spill_dir = out_path + ".spill";
  auto run_churn = [&](std::shared_ptr<fkc::serving::SpillStore> store) {
    fkc::serving::ShardManagerOptions churn_options;
    churn_options.window.window_size = window;
    churn_options.window.delta = delta;
    churn_options.window.adaptive_range = true;
    churn_options.num_threads = num_threads;
    churn_options.max_live_shards = churn_cap;
    churn_options.spill_store = std::move(store);
    fkc::serving::ShardManager manager(churn_options, prepared.constraint,
                                       &metric, &jones);
    auto stream = fkc::datasets::MakeStream(prepared.dataset);
    fkc::ShardedChurnOptions churn_run;
    churn_run.stream_length = points;
    churn_run.batch_size = batch;
    churn_run.tenants = churn_tenants;
    churn_run.active = churn_active;
    churn_run.idle_ttl = churn_ttl;
    return fkc::RunShardedChurn(&manager, stream.get(), churn_run);
  };

  const fkc::ShardedChurnReport churn = run_churn(nullptr);  // in-memory
  PrintChurn("memory", churn);
  const fkc::ShardedChurnReport churn_file =
      run_churn(std::make_shared<fkc::serving::FileSpillStore>(spill_dir));
  PrintChurn("file", churn_file);
  if (owns_spill_dir) {
    std::error_code spill_cleanup;  // best-effort; the bench ran either way
    std::filesystem::remove_all(spill_dir, spill_cleanup);
  }

  // --- Contention scenarios. The same paced-clients schedule runs in
  // several configurations: per-shard locking vs the emulated single
  // global mutex, plus a Zipf-skewed entry (shared heavy-tailed tenants)
  // and a create-heavy entry (key generations rotating mid-run, so shard
  // creation stays on the measured path). `contention_threads` gives the
  // manager a pool the concurrent IngestBatch callers and QueryAll rounds
  // interleave on (work sharing). ---
  fkc::ShardedContentionReport contention, contention_global, contention_zipf,
      contention_create;
  if (contention_clients > 0) {
    // The contention runs replay prefixes of the same prepared dataset, so
    // fit the scenario to the stream: the cold setup may take at most half
    // of it, and the measured workload shares the rest. The warm-up set is
    // the larger of the client keys and the Zipf rank population.
    const int64_t zipf_warm =
        zipf_s > 0.0
            ? (zipf_tenants > 0 ? zipf_tenants : 4 * contention_clients)
            : 0;
    const int64_t warm_keys = std::max(contention_clients, zipf_warm);
    if (contention_idle_tenants > 0) {
      const int64_t max_idle = (points / 2) / contention_idle_tenants;
      if (contention_idle_points > max_idle) contention_idle_points = max_idle;
      FKC_CHECK_GT(contention_idle_points, 0)
          << "stream too short for cold tenants";
    }
    const int64_t setup_demand =
        contention_idle_tenants * contention_idle_points + warm_keys;
    if (contention_clients * contention_points + setup_demand > points) {
      contention_points = (points - setup_demand) / contention_clients;
      FKC_CHECK_GT(contention_points, 0);
    }
    std::printf(
        "# Contention: %lld clients x %lld arrivals (pause %lld ms), "
        "%lld cold tenants x %lld, QueryAll pause %lld ms, %lld pool "
        "threads\n",
        static_cast<long long>(contention_clients),
        static_cast<long long>(contention_points),
        static_cast<long long>(contention_client_pause_ms),
        static_cast<long long>(contention_idle_tenants),
        static_cast<long long>(contention_idle_points),
        static_cast<long long>(contention_query_pause_ms),
        static_cast<long long>(contention_threads));
    struct ContentionConfig {
      bool global_mutex = false;
      double zipf_s = 0.0;
      int64_t create_every = 0;
    };
    auto run_contention = [&](const ContentionConfig& config) {
      fkc::serving::ShardManagerOptions options;
      options.window.window_size = window;
      options.window.delta = contention_delta;
      options.window.adaptive_range = true;
      options.num_threads = static_cast<int>(contention_threads);
      fkc::serving::ShardManager manager(options, prepared.constraint,
                                         &metric, &jones);
      auto stream = fkc::datasets::MakeStream(prepared.dataset);
      fkc::ShardedContentionOptions contention_run;
      contention_run.client_threads = static_cast<int>(contention_clients);
      contention_run.points_per_client = contention_points;
      contention_run.batch_size = batch;
      contention_run.query_pause_ms = contention_query_pause_ms;
      contention_run.client_pause_ms = contention_client_pause_ms;
      contention_run.idle_tenants = contention_idle_tenants;
      contention_run.idle_points = contention_idle_points;
      contention_run.global_mutex = config.global_mutex;
      contention_run.zipf_s = config.zipf_s;
      contention_run.zipf_tenants = zipf_tenants;
      contention_run.create_every = config.create_every;
      return fkc::RunShardedContention(&manager, stream.get(),
                                       contention_run);
    };
    auto print_contention = [](const char* label,
                               const fkc::ShardedContentionReport& r) {
      std::printf(
          "#   %-16s %10.0f updates/s (%lld query rounds, %lld ticks, "
          "steals %lld)\n",
          label, r.UpdatesPerSecond(),
          static_cast<long long>(r.query_rounds),
          static_cast<long long>(r.maintenance_ticks),
          static_cast<long long>(r.pool_steals));
    };
    contention_global = run_contention({/*global_mutex=*/true});
    print_contention("global mutex:", contention_global);
    contention = run_contention({});
    print_contention("per shard:", contention);
    if (zipf_s > 0.0) {
      ContentionConfig config;
      config.zipf_s = zipf_s;
      contention_zipf = run_contention(config);
      print_contention("zipf skew:", contention_zipf);
    }
    if (create_every > 0) {
      ContentionConfig config;
      config.create_every = create_every;
      contention_create = run_contention(config);
      print_contention("create heavy:", contention_create);
    }
    const double speedup =
        contention_global.UpdatesPerSecond() > 0.0
            ? contention.UpdatesPerSecond() /
                  contention_global.UpdatesPerSecond()
            : 0.0;
    std::printf("#   per shard vs global %.2fx\n", speedup);
  }

  // --- Cross-objective scenario: the same keyed stream into one fleet per
  // objective, each queried for its own objective at the end. Objective
  // values, memory, and checkpoint bytes are deterministic; updates/s is
  // wall-clock. ---
  struct CrossObjectiveResult {
    std::string mode;
    fkc::ShardedThroughputReport report;
    int64_t memory_points = 0;
    int64_t checkpoint_bytes = 0;
    double objective_value_sum = 0.0;
    int64_t answered = 0;
  };
  std::vector<CrossObjectiveResult> cross_results;
  if (cross_tenants > 0) {
    auto run_cross = [&](const char* mode, fkc::ObjectiveKind kind) {
      fkc::serving::ShardManagerOptions options;
      options.window.window_size = window;
      options.window.delta = delta;
      options.window.adaptive_range = true;
      options.num_threads = num_threads;
      fkc::serving::ShardManager manager(options, prepared.constraint,
                                         &metric, &jones);
      std::vector<std::string> keys;
      for (int64_t s = 0; s < cross_tenants; ++s) {
        keys.push_back(
            fkc::StrFormat("tenant-%02lld", static_cast<long long>(s)));
      }
      auto stream = fkc::datasets::MakeStream(prepared.dataset);
      fkc::ShardedRunOptions run_options;
      run_options.stream_length = points;
      run_options.batch_size = batch;
      run_options.query_every = 0;  // one final query below, not periodic
      run_options.burst_every = burst_every;
      run_options.burst_size = burst_size;
      CrossObjectiveResult result;
      result.mode = mode;
      result.report =
          fkc::RunShardedThroughput(&manager, stream.get(), keys, run_options);
      for (const auto& answer : manager.QueryAll(kind)) {
        if (!answer.solution.ok()) continue;
        result.objective_value_sum += answer.solution.value().value;
        ++result.answered;
      }
      result.memory_points = manager.TotalMemory().TotalPoints();
      auto blob = manager.CheckpointAll();
      FKC_CHECK_OK(blob.status());
      result.checkpoint_bytes = static_cast<int64_t>(blob.value().size());
      return result;
    };
    std::printf("# Cross objective: %lld tenants, %lld arrivals\n",
                static_cast<long long>(cross_tenants),
                static_cast<long long>(points));
    cross_results.push_back(
        run_cross("fair_center", fkc::ObjectiveKind::kFairCenter));
    cross_results.push_back(
        run_cross("k_median", fkc::ObjectiveKind::kKMedian));
    for (const auto& r : cross_results) {
      std::printf(
          "#   %-12s %10.0f updates/s, value sum %.3f over %lld shards, "
          "%lld pts, checkpoint %lld B\n",
          r.mode.c_str(), r.report.UpdatesPerSecond(), r.objective_value_sum,
          static_cast<long long>(r.answered),
          static_cast<long long>(r.memory_points),
          static_cast<long long>(r.checkpoint_bytes));
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"bench\": \"shard_scaling\",\n";
  out << "  \"simd_kernels\": \"" << fkc::simd::ActiveKernels().name
      << "\",\n";
  out << "  \"dataset\": \"" << dataset << "\",\n";
  out << "  \"points\": " << points << ",\n  \"window\": " << window
      << ",\n  \"batch\": " << batch << ",\n  \"threads\": " << num_threads
      << ",\n  \"query_every\": " << query_every << ",\n";
  out << "  \"runs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    out << "    {\"shards\": " << r.shards
        << ", \"updates\": " << r.report.updates
        << ", \"queries\": " << r.report.queries
        << ", \"updates_per_s\": " << fkc::StrFormat(
               "%.1f", r.report.UpdatesPerSecond())
        << ", \"queries_per_s\": " << fkc::StrFormat(
               "%.1f", r.report.QueriesPerSecond())
        << ", \"memory_points\": " << r.memory_points << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"churn\": {\"tenants\": " << churn_tenants
      << ", \"active\": " << churn_active << ", \"cap\": " << churn_cap
      << ", \"ttl\": " << churn_ttl << ",\n";
  WriteChurnJson(out, "memory", churn);
  out << ",\n";
  WriteChurnJson(out, "file", churn_file);
  out << "\n  }";
  if (contention_clients > 0) {
    const double speedup =
        contention_global.UpdatesPerSecond() > 0.0
            ? contention.UpdatesPerSecond() /
                  contention_global.UpdatesPerSecond()
            : 0.0;
    auto write_contention = [&out](const char* name,
                                   const fkc::ShardedContentionReport& r) {
      out << "    \"" << name << "\": {\"updates\": " << r.updates
          << ", \"updates_per_s\": "
          << fkc::StrFormat("%.1f", r.UpdatesPerSecond())
          << ", \"shards\": " << r.shards
          << ", \"pool_steals\": " << r.pool_steals
          << ", \"query_rounds\": " << r.query_rounds
          << ", \"maintenance_ticks\": " << r.maintenance_ticks << "}";
    };
    out << ",\n  \"contention\": {\"client_threads\": " << contention_clients
        << ", \"points_per_client\": " << contention_points
        << ", \"idle_tenants\": " << contention_idle_tenants
        << ", \"idle_points\": " << contention_idle_points
        << ", \"client_pause_ms\": " << contention_client_pause_ms
        << ", \"query_pause_ms\": " << contention_query_pause_ms
        << ", \"pool_threads\": " << contention_threads
        << ", \"host_threads\": " << fkc::ThreadPool::HardwareThreads()
        << ", \"zipf_s\": " << fkc::StrFormat("%.2f", zipf_s)
        << ", \"create_every\": " << create_every << ",\n";
    write_contention("global_mutex", contention_global);
    out << ",\n";
    write_contention("per_shard", contention);
    if (zipf_s > 0.0) {
      out << ",\n";
      write_contention("zipf", contention_zipf);
    }
    if (create_every > 0) {
      out << ",\n";
      write_contention("create_heavy", contention_create);
    }
    out << ",\n    \"speedup\": " << fkc::StrFormat("%.2f", speedup)
        << "\n  }";
  }
  if (!cross_results.empty()) {
    out << ",\n  \"cross_objective\": {\"tenants\": " << cross_tenants
        << ", \"burst_every\": " << burst_every
        << ", \"burst_size\": " << burst_size << ",\n";
    for (size_t i = 0; i < cross_results.size(); ++i) {
      const CrossObjectiveResult& r = cross_results[i];
      out << "    \"" << r.mode << "\": {\"updates\": " << r.report.updates
          << ", \"updates_per_s\": "
          << fkc::StrFormat("%.1f", r.report.UpdatesPerSecond())
          << ", \"bursts\": " << r.report.bursts
          << ", \"shards\": " << r.answered
          << ", \"objective_value_sum\": "
          << fkc::StrFormat("%.3f", r.objective_value_sum)
          << ", \"memory_points\": " << r.memory_points
          << ", \"checkpoint_bytes\": " << r.checkpoint_bytes << "}"
          << (i + 1 < cross_results.size() ? "," : "") << "\n";
    }
    out << "  }";
  }
  out << "\n}\n";
  std::printf("# wrote %s\n", out_path.c_str());
  return 0;
}
