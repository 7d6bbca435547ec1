// Sharded multi-window serving front-end: one process, many independent
// sliding windows (per tenant, per sensor, per data stream), all driven
// through one shared thread pool.
//
// Each shard is a FairCenterSlidingWindow keyed by an opaque string. Shards
// share no state, so ingest batches and query multiplexing fan out across
// the pool with bit-identical per-shard results at any thread count — the
// same determinism contract as the core engine.
//
// The OBJECTIVE LAYER: a window's state does not depend on the objective it
// answers for, so the objective is a query-time choice recorded beside the
// window (Shard::kind), and one fleet can host mixed-objective tenants —
// fair-center dashboards beside k-median tenants on the same streams. The
// fleet default objective lives in ShardManagerOptions; per-tenant
// deviations are registered with SetTenantObjective before the tenant's
// first arrival, exactly like option overrides. The spill / delta /
// replication paths are untouched by the objective: every shard blob is a
// plain fkc-checkpoint-v1 window blob, and the fleet format's v3 objective
// tables are the only record of which objective a tenant answers for.
//
// Multi-tenant hardening on top of the basic routing:
//   * per-tenant options: a tenant key may carry its own SlidingWindowOptions
//     (window size, delta, beta, variant) applied when its shard is created;
//     overrides travel in the fleet checkpoint.
//   * bounded residency: EvictIdle(ttl) spills shards nobody has touched
//     (ingest or per-key query) for ttl arrivals fleet-wide, and an
//     optional LRU cap bounds the number of live shards;
//     a spilled shard is checkpointed into the configured SpillStore
//     (in-memory by default, on-disk via FileSpillStore — see
//     serving/spill_store.h) and transparently rehydrated on its next
//     touch, answering exactly as if it had never left.
//   * incremental checkpointing: every shard carries a dirty bit (set on
//     ingest, cleared on checkpoint); CheckpointDelta() serializes only the
//     dirty shards and ApplyDelta() folds such a delta into a fleet restored
//     from the matching base — steady-state fleets ship deltas, not the
//     whole blob. Full checkpoints use the fkc-shards-v2 format when every
//     tenant runs the default fair-center objective (so pure fair-center
//     fleets stay byte-identical to pre-objective builds) and fkc-shards-v3
//     — v2 plus the objective tag and per-tenant objective table — as soon
//     as any other objective is involved; Restore accepts v1/v2/v3 blobs
//     (v1/v2 restore unchanged, as all-fair-center). DeltaLog
//     (serving/delta_log.h) turns the delta stream into a replayable,
//     self-compacting log, held in memory or, given a directory, also
//     published crash-safely to disk.
//   * background maintenance: StartMaintenance(options) runs the eviction
//     sweep, DeltaLog capture, and spill-store GC on a timer thread instead
//     of caller-driven; StopMaintenance() (also run by the destructor)
//     joins it cleanly.
//
// Concurrency model (striped routing + per-shard locks). The manager
// serializes nothing behind one big mutex; instead:
//
//   * The routing layer is split into N hash-partitioned STRIPES. Each
//     stripe owns its slice of the shard map, its slice of the per-tenant
//     override tables (options and objectives), its own LRU index of live
//     shards, and the pin counts of its shards — all guarded by that
//     stripe's reader-writer lock (std::shared_mutex), held only for map
//     lookups and bookkeeping mutations (plus shard construction), never
//     across a window update, a query, a (de)serialization, or spill-store
//     IO. Pure lookups (TenantOptions, Keys, counts, memory/pin gauges,
//     eviction candidate scans) take it SHARED and run concurrently;
//     anything that mutates stripe state — routing (it bumps LRU/ops and
//     pins), creation, residency commits, override registration — takes it
//     EXCLUSIVE. Ingest and shard creation on keys in different stripes
//     never touch the same lock. The fleet-wide clock and the lifetime
//     counters are plain atomics.
//   * Each shard owns a PER-SHARD mutex guarding its window's contents and
//     its dirty-tracking state. Ingest and per-key queries touch only the
//     shards they route to, so two tenants never contend.
//   * Fleet-wide reads (QueryAll, CheckpointAll, CheckpointDelta) take
//     EPOCH-SNAPSHOT semantics: they acquire ALL stripe locks in ascending
//     index order, collect a stable key-ordered vector of shard refs
//     pinned against eviction via a per-shard refcount (and, for
//     checkpoints, snapshot the override table beside it), release every
//     stripe, then visit shards one at a time under their own locks. The
//     all-stripes hold covers bookkeeping only, so it is brief; the fleet
//     scan itself blocks ingest to one shard at a time, never the fleet.
//     Checkpoint bytes are identical at EVERY stripe count (including 1):
//     shards and overrides are always emitted in ascending key order, so a
//     striped fleet checkpoints byte-equal to a serially built one.
//   * Eviction (EvictIdle and the LRU cap) try-locks its victims and
//     SKIPS busy or pinned shards instead of stalling the world; a spill
//     re-checks the pin count after writing to the store and aborts if a
//     reader pinned the shard in the meantime, so rehydration stays
//     bit-exact and the staged-commit checkpoint invariants hold.
//
//   Lock order: a per-shard mutex is only ever acquired blocking while no
//   stripe lock is held (shared or exclusive); a stripe lock may be
//   acquired while holding a shard lock (residency commits); multiple
//   stripe locks are only ever taken in ascending stripe-index order;
//   under a stripe lock, shard mutexes are only try_lock'ed (eviction).
//   Shared and exclusive modes of one stripe's lock rank identically in
//   the order — the mode changes contention, not the hierarchy. Spill-
//   store writes and GC are additionally serialized by a GC mutex so a
//   sweep can never reap a blob spilled after it snapshotted the keep-set.
//   Full order: shard mu -> gc_mu_ -> stripe mu (ascending).
//
// Compound caller sequences are still not atomic, and a fleet-wide
// operation concurrent with ingest sees each shard's state at the moment
// its lock is taken (per-shard atomicity, not a fleet-wide point in time).
//
// Malformed input is rejected, never fatal: oversized keys, out-of-range or
// zero-cap colors, empty or non-finite coordinates, and dimension changes
// within a shard's stream all fail with kInvalidArgument (dropping only the
// offending arrivals) — each of those would otherwise CHECK-abort the
// process downstream or poison the next checkpoint into one Restore
// rejects. Corrupted or truncated checkpoint blobs (including shard blobs
// whose embedded constraint disagrees with the fleet's) fail
// Restore/ApplyDelta with a non-OK Status instead of aborting the process,
// and a failing spill backend (disk full, checksum mismatch) surfaces as a
// Status too — an unspillable shard simply stays live.
#ifndef FKC_SERVING_SHARD_MANAGER_H_
#define FKC_SERVING_SHARD_MANAGER_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/fair_center_sliding_window.h"
#include "serving/spill_store.h"

namespace fkc {
namespace serving {

class DeltaLog;

/// An arrival addressed to one shard.
struct KeyedPoint {
  std::string key;
  Point point;
};

/// Configuration of the serving layer.
struct ShardManagerOptions {
  /// Template for every shard's sliding window (tenants without an override
  /// use it verbatim). The per-shard `num_threads` is forced to 1:
  /// parallelism lives at the manager level (one pool fanned across
  /// shards), never nested inside a shard.
  SlidingWindowOptions window;

  /// Fleet-default clustering objective applied when a shard is created
  /// (per-tenant deviations via SetTenantObjective). Checkpointed: a
  /// non-default value (or any per-tenant objective override) switches the
  /// fleet blob to the fkc-shards-v3 format; all-fair-center fleets keep
  /// emitting v2 bytes, byte-identical to pre-objective builds.
  ObjectiveKind objective = ObjectiveKind::kFairCenter;

  /// Worker threads of the shared pool multiplexing ingest and queries over
  /// the shards. 1 = fully sequential; 0 = hardware concurrency. An
  /// execution knob: results are bit-identical at any value and it is not
  /// part of the checkpoint. Independent of EXTERNAL concurrency: any
  /// number of client threads may call the manager at num_threads = 1.
  int num_threads = 1;

  /// Routing stripes of the shard map (see the file comment). 0 = auto
  /// (scaled to the hardware concurrency); anything else is rounded UP to
  /// the next power of two (for mask-based key hashing) and clamped to
  /// [1, 256]. An execution knob like num_threads: per-shard state,
  /// checkpoint bytes, and answers are identical at every stripe count —
  /// only contention changes. Not checkpointed.
  int num_stripes = 0;

  /// Upper bound on simultaneously live (in-memory) shards; 0 = unlimited.
  /// When a create or rehydration would exceed it, the least-recently
  /// touched live shard is spilled. Enforced between ingest batches, so a
  /// single batch touching more distinct keys than the cap still works. A
  /// resource knob, not state: it is not checkpointed. Best-effort under
  /// concurrency: shards pinned by in-flight readers are skipped and
  /// swept by the next enforcement instead.
  int64_t max_live_shards = 0;

  /// Backend holding evicted-shard state. nullptr = a private
  /// InMemorySpillStore (the historical behaviour). Pass a FileSpillStore
  /// to bound resident memory by the live-shard cap regardless of fleet
  /// size. A resource knob, not state: it is not checkpointed.
  std::shared_ptr<SpillStore> spill_store;
};

/// What one maintenance tick did. Delivered to the on_tick test hook and
/// returned by RunMaintenanceTick.
struct MaintenanceTickReport {
  int64_t tick = 0;          ///< 1-based tick counter (across Start cycles)
  int64_t evicted = 0;       ///< shards spilled by the eviction sweep
  int64_t gc_removed = 0;    ///< spill-store entries removed by GC
  size_t capture_bytes = 0;  ///< delta (or rebase) bytes appended to the log
  bool rebased = false;      ///< the DeltaLog re-based this tick
  Status status;             ///< first error of the tick (OK when clean)
};

/// Schedule of the background maintenance thread.
struct MaintenanceOptions {
  /// Time between ticks. The thread wakes early on StopMaintenance, so
  /// shutdown never waits out a cadence.
  std::chrono::milliseconds cadence{1000};

  /// TTL handed to the per-tick EvictIdle sweep; negative = no sweep.
  int64_t idle_ttl = -1;

  /// When set, every tick captures into this log (CheckpointDelta while the
  /// chain budget holds, re-base otherwise — see DeltaLog). A log with a
  /// directory also publishes every appended base/delta before the tick
  /// reports, so a SIGKILL between ticks loses at most the arrivals since
  /// the last capture. The log must outlive the maintenance run (and a
  /// directory-backed one must be Open()ed first). Ticks with zero dirty
  /// shards skip the capture entirely. The per-shard dirty bit is a
  /// SINGLE-CONSUMER cursor: while a log captures on a cadence, nothing
  /// else may call CheckpointDelta/CheckpointAll on the same manager — a
  /// direct call marks shards clean and the log's next delta silently
  /// omits them.
  DeltaLog* delta_log = nullptr;

  /// Run spill-store GarbageCollect every this many ticks (0 = never).
  int64_t gc_every = 0;

  /// Test-visible tick hook, called after each tick outside every manager
  /// lock (so it may call back into the manager).
  std::function<void(const MaintenanceTickReport&)> on_tick;
};

/// Lifetime counts of backend failures the manager absorbed instead of
/// aborting (snapshot of internal atomics — see maintenance_stats()).
/// Durable-backend trouble is otherwise easy to miss: a failed spill
/// leaves the shard live, a failed rehydration answers with an error, and
/// both only surface as a Status the caller may drop. Operators alert on
/// these counters moving, then read the per-operation Status messages
/// (which name the path/key and the operation) for the diagnosis.
struct MaintenanceStats {
  /// Spill-store Put failures (eviction sweeps, LRU-cap enforcement, and
  /// restore-time cap spills). Each leaves the shard live and lossless.
  int64_t spill_write_failures = 0;
  /// Spill-store Get failures while rehydrating a spilled shard for a
  /// touch (ingest / per-key query / shard()).
  int64_t rehydration_failures = 0;
  /// Fleet checkpoints (CheckpointAll / CheckpointDelta, including
  /// DeltaLog captures) abandoned because a spilled shard's
  /// blob could not be read back. Dirty bits stay set — nothing is lost.
  int64_t checkpoint_failures = 0;
};

/// Per-shard answer of a fan-out query. `solution.value` is the shard's
/// objective value — covering radius for fair-center tenants, sum-of-
/// distances cost for k-median tenants (see ObjectiveSolution).
struct ShardAnswer {
  std::string key;
  Result<ObjectiveSolution> solution = ObjectiveSolution{};
  QueryStats stats;
};

/// Owns and serves N independent sliding windows keyed by tenant/sensor id.
///
/// Typical use:
///   ShardManager manager(options, constraint, &metric, &solver);
///   manager.SetTenantOptions("tenant-7", small_window);  // optional
///   manager.IngestBatch(keyed_arrivals);       // routed + fanned out
///   auto answer = manager.Query("tenant-7");   // one shard
///   auto all = manager.QueryAll();             // every shard, multiplexed
///   manager.EvictIdle(100000);                 // spill idle tenants
///   auto delta = manager.CheckpointDelta();    // dirty shards only
///   auto blob = manager.CheckpointAll();       // the whole fleet
///   auto restored = ShardManager::Restore(blob.value(), &metric, &solver);
///
/// Thread-safety: every public method is safe to call from any number of
/// threads concurrently, including while the background maintenance thread
/// runs. Ingest and per-key queries contend only on their key's routing
/// stripe and the shards they route to (striped two-level locking — see
/// the file comment); QueryAll and the checkpoint family are epoch
/// snapshots that lock shards one at a time.
/// Compound caller sequences are not atomic, and pointers returned by
/// shard() are not protected by any lock once returned — do not retain
/// them across other manager calls, and do not use the non-const shard()
/// accessor while other threads (or the maintenance tick) may spill the
/// pointed-to window. Do not move a manager that other threads are using
/// or whose maintenance thread is running.
class ShardManager {
 public:
  /// `metric` and `solver` must outlive the manager; they are shared by all
  /// shards (code, not state). Arrivals whose color has a zero cap are
  /// rejected at ingest (a single window CHECK-aborts on them instead).
  ShardManager(ShardManagerOptions options, ColorConstraint constraint,
               const Metric* metric, const FairCenterSolver* solver);
  ~ShardManager();  ///< stops the maintenance thread, if running

  ShardManager(ShardManager&& other) noexcept;
  ShardManager& operator=(ShardManager&& other) noexcept;

  /// Feeds one arrival to the shard of `key`, creating (or rehydrating) the
  /// shard on first sight. Per-shard clocks are independent: each shard
  /// sees its own arrivals as one logical time step each. Fails with
  /// kInvalidArgument — consuming nothing — for an oversized key, an
  /// out-of-range or zero-cap color, empty or non-finite coordinates, or a
  /// dimension differing from the shard's earlier arrivals (the first
  /// accepted arrival pins it); other tenants are unaffected. Holds only
  /// `key`'s stripe lock for routing and `key`'s shard lock during the
  /// window update.
  Status Ingest(const std::string& key, Point p);

  /// Routes a batch of keyed arrivals: partitions the batch by routing
  /// stripe (lock-free), then groups by key WITHIN each stripe concurrently
  /// over the pool (preserving per-key arrival order), creates/rehydrates
  /// missing shards, and finally fans the per-shard groups out over the
  /// pool, each shard consuming its group through the core UpdateBatch
  /// engine. Produces the same per-shard state as calling Ingest per
  /// arrival in order. Invalid arrivals (oversized key, out-of-range or
  /// zero-cap color, empty/non-finite coordinates, dimension mismatch) are
  /// dropped individually — every valid arrival in the batch is still
  /// consumed — and reported through a kInvalidArgument status describing
  /// the earliest offender (by batch position) and the drop count. Two
  /// batches touching disjoint key sets contend at most on shared stripes
  /// during the routing step, and not at all when their stripes are
  /// disjoint. The fleet clock advances once per SUBMITTED batch arrival
  /// (a dropped arrival still consumes its tick), keeping LRU/TTL
  /// bookkeeping deterministic under concurrent grouping.
  Status IngestBatch(std::vector<KeyedPoint> batch);

  /// Registers per-tenant options applied when `key`'s shard is created;
  /// until then the fleet template applies to everyone else. Must be called
  /// before the tenant's first arrival (kFailedPrecondition once the shard
  /// exists — options are fixed at creation, like the core's). Overrides
  /// identical to the template are not stored. `options.num_threads` is
  /// ignored (forced to 1). Overrides travel in v2 fleet checkpoints, so a
  /// restored manager applies them to tenants first seen after the restore.
  Status SetTenantOptions(const std::string& key, SlidingWindowOptions options);

  /// The override registered for `key`, or nullptr if the tenant uses the
  /// fleet template. The pointer is invalidated by SetTenantOptions,
  /// ApplyDelta, and destruction — under concurrency, copy what you need
  /// while no such call can interleave.
  const SlidingWindowOptions* TenantOptions(const std::string& key) const;

  /// Registers the clustering objective `key`'s shard will optimize,
  /// overriding the fleet default. Same lifecycle contract as
  /// SetTenantOptions: must precede the tenant's first arrival
  /// (kFailedPrecondition once the shard exists — a shard's objective is
  /// fixed at creation), and a registration equal to the fleet default is
  /// not stored. Objective overrides travel in v3 fleet checkpoints.
  Status SetTenantObjective(const std::string& key, ObjectiveKind objective);

  /// The objective `key`'s shard runs (or would run when created):
  /// the registered override, else the fleet default.
  ObjectiveKind TenantObjective(const std::string& key) const;

  /// Queries one shard, transparently rehydrating it if spilled. Fails with
  /// kNotFound for an unknown key. Holds only `key`'s shard lock during
  /// the query pipeline — concurrent ingest to other tenants proceeds.
  /// The solution's `value` is the shard's objective value (radius or
  /// k-median cost).
  Result<ObjectiveSolution> Query(const std::string& key,
                                  QueryStats* stats = nullptr);

  /// Queries every shard — live and spilled — multiplexed over the pool
  /// (each shard's query pipeline runs sequentially inside its task).
  /// An epoch snapshot: the shard set is collected (and pinned against
  /// eviction) under the stripe locks, then each shard is visited under
  /// its own lock — ingest to unrelated shards never waits on a
  /// fleet-wide query round. Spilled shards are answered from an ephemeral
  /// deserialization without changing their residency, so a fleet-wide
  /// dashboard query does not defeat eviction. Answers are ordered by key,
  /// deterministically; each answer reflects that shard's state at the
  /// moment its lock was taken. A spilled shard whose blob fails to load
  /// answers with that error.
  std::vector<ShardAnswer> QueryAll();

  /// Spills every live shard whose last touch is more than `idle_ttl`
  /// ticks ago, where the manager clock ticks once per ingested arrival
  /// fleet-wide. A touch is an ingest, a per-key Query, or shard() — a
  /// shard a dashboard keeps querying stays live even without arrivals
  /// (spilling it would only thrash rehydration); QueryAll's ephemeral
  /// reads deliberately do not touch. A spilled shard keeps answering
  /// (QueryAll) and is rehydrated in place by its next touch. Returns the
  /// number of shards spilled. idle_ttl = 0 spills everything not touched
  /// at the current clock; negative is a no-op. Shards whose lock is busy
  /// or that are pinned by an in-flight fleet read are SKIPPED, not waited
  /// for — the next sweep catches them. If the spill backend fails the
  /// sweep stops early (the shard stays live, nothing is lost) and the
  /// error is reported through `spill_status` when provided.
  int64_t EvictIdle(int64_t idle_ttl, Status* spill_status = nullptr);

  /// Serializes the fleet — template, constraint, tenant overrides (options
  /// and, in v3, objectives), and every shard (live or spilled) — into one
  /// self-describing blob, and marks every shard clean. The format is v2
  /// when the whole fleet is default fair-center (byte-identical to
  /// pre-objective builds) and v3 otherwise. An epoch snapshot like
  /// QueryAll: the shard
  /// set (and override table) is pinned under the stripe locks — all
  /// stripes held at once, acquired in ascending index order — then
  /// serialized one shard lock at a time in ascending key order, so the
  /// bytes are identical at every stripe count; shards created after the
  /// snapshot stay dirty for the next checkpoint, and arrivals landing on
  /// a shard after its segment was captured leave it dirty (the
  /// epoch-based clean mark records the captured state, not the latest).
  /// Spilled shards are written from their spill blob without rehydration;
  /// a spill blob that fails to load fails the whole checkpoint (leaving
  /// every dirty bit as it was — the next delta loses nothing).
  Result<std::string> CheckpointAll();

  /// Serializes only the shards dirtied since the last CheckpointAll /
  /// CheckpointDelta (plus the constraint and override table, which are
  /// cheap), and marks them clean. Applying the sequence of deltas, in
  /// order, onto a manager restored from the matching base reproduces the
  /// full fleet state. An idle fleet yields an empty delta (zero shards).
  /// Epoch-snapshot semantics identical to CheckpointAll.
  Result<std::string> CheckpointDelta();

  /// Folds a CheckpointDelta blob into this manager: replaces the override
  /// tables and upserts every contained shard as live-and-clean. Validates
  /// everything before mutating anything — on a non-OK return the manager
  /// is unchanged. The delta's constraint and fleet-default objective must
  /// match this manager's (forged tags reject); every contained shard takes
  /// the objective the delta's table assigns it.
  /// Shards are swapped in one at a time under their own locks; a
  /// concurrent QueryAll may observe a partially applied delta (per-shard
  /// atomicity), never a torn shard.
  Status ApplyDelta(const std::string& bytes);

  /// Reconstructs a manager from CheckpointAll output — v3, v2, or the
  /// earliest v1 format (v1/v2 restore as all-fair-center, unchanged).
  /// The restored fleet answers every query identically and
  /// behaves identically under any future ingest sequence. Shards come
  /// back live until `max_live_shards` is reached; past the cap the
  /// verbatim blob segment is handed to the spill store directly (never
  /// deserialized-then-reserialized), so a fleet far larger than the cap
  /// restores without ever being fully resident. `num_threads`,
  /// `num_stripes`, `max_live_shards`, and `spill_store` are
  /// execution/resource knobs supplied at restore time, like the metric
  /// and solver. Corrupted, truncated, or implausible blobs fail with
  /// kInvalidArgument, never a process abort.
  static Result<ShardManager> Restore(
      const std::string& bytes, const Metric* metric,
      const FairCenterSolver* solver, int num_threads = 1,
      int64_t max_live_shards = 0,
      std::shared_ptr<SpillStore> spill_store = nullptr, int num_stripes = 0);

  // --- Background maintenance. ---

  /// Spawns the maintenance thread: every `options.cadence` it runs one
  /// RunMaintenanceTick(options). kFailedPrecondition while a thread is
  /// running, kInvalidArgument for a non-positive cadence. A thread whose
  /// loop already exited via a hook-initiated StopMaintenance (which
  /// cannot join itself) is reaped here, so Stop-from-hook followed by a
  /// later Start works. Start/Stop/maintenance_running are serialized
  /// against each other by a dedicated admin mutex (never held while
  /// joining a still-running loop — Stop must not block behind an
  /// in-flight tick it is about to join).
  Status StartMaintenance(MaintenanceOptions options);

  /// Joins the maintenance thread; prompt (wakes the thread mid-sleep) and
  /// idempotent — concurrent Stops are safe. Any tick already executing
  /// finishes first. Calling it from inside an on_tick hook (i.e. on the
  /// maintenance thread itself) cannot join: it signals the loop to exit
  /// after the current tick and returns immediately; a later Stop or
  /// Start — or the destructor — on any other thread reaps the finished
  /// thread.
  void StopMaintenance();

  /// True while the maintenance loop is running (a hook-initiated
  /// self-stop counts as stopped once the loop has exited, even before
  /// the finished thread is reaped).
  bool maintenance_running() const;
  /// Ticks executed so far, across StartMaintenance cycles and manual
  /// RunMaintenanceTick calls.
  int64_t maintenance_ticks() const { return maintenance_ticks_.load(); }

  /// Runs one maintenance tick synchronously on the calling thread:
  /// eviction sweep (options.idle_ttl >= 0), DeltaLog capture
  /// (options.delta_log, skipped while no shard is dirty), spill-store GC
  /// (every options.gc_every ticks). The deterministic alternative to the
  /// timer for tests and single-threaded drivers; the timer thread calls
  /// exactly this. Composed of the ordinary locked public operations — the
  /// tick as a whole is not atomic against concurrent callers, and it
  /// skips busy shards rather than stalling them.
  MaintenanceTickReport RunMaintenanceTick(const MaintenanceOptions& options);

  /// Removes spill-store entries no longer backing a spilled shard, plus
  /// temp-file debris from interrupted writes. Returns entries removed.
  /// Cheap for the in-memory store; a directory scan for the file store.
  /// Serialized against concurrent spills by the GC mutex, so a blob
  /// spilled after the keep-set snapshot can never be reaped.
  Result<int64_t> GarbageCollectSpill();

  /// Shard keys — live and spilled — in deterministic (lexicographic)
  /// order, merged across stripes.
  std::vector<std::string> Keys() const;

  /// Direct access to one shard, transparently rehydrating it if spilled
  /// (nullptr for an unknown key or a spill blob that fails to load). The
  /// manager retains ownership. The returned pointer is NOT protected by
  /// any lock: when `max_live_shards` is set, any later mutating access
  /// (Ingest, IngestBatch, Query, shard, EvictIdle, ApplyDelta) — or a
  /// concurrent maintenance tick — may spill the pointed-to window, and
  /// concurrent ingest to the same key mutates it. Use the pointer before
  /// the next manager call, from the only thread driving this key, and
  /// not while the maintenance thread runs.
  FairCenterSlidingWindow* shard(const std::string& key);
  /// Const access never changes residency: returns nullptr for spilled as
  /// well as unknown keys.
  const FairCenterSlidingWindow* shard(const std::string& key) const;

  /// All shards the manager knows, live + spilled.
  size_t shard_count() const;
  size_t live_shard_count() const;
  size_t spilled_shard_count() const;
  /// Shards a CheckpointDelta() would serialize right now.
  size_t dirty_shard_count() const;

  /// Fleet-wide arrival count — the clock EvictIdle's TTL is measured in.
  int64_t clock() const { return clock_.load(std::memory_order_relaxed); }
  /// Lifetime spill / rehydration totals (EvictIdle + LRU-cap spills;
  /// ephemeral QueryAll reads of spilled shards count as neither).
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  int64_t rehydrations() const {
    return rehydrations_.load(std::memory_order_relaxed);
  }

  /// Lifetime backend-failure counters (see MaintenanceStats). Monotone;
  /// a healthy backend keeps every field at zero.
  MaintenanceStats maintenance_stats() const {
    MaintenanceStats stats;
    stats.spill_write_failures =
        spill_write_failures_.load(std::memory_order_relaxed);
    stats.rehydration_failures =
        rehydration_failures_.load(std::memory_order_relaxed);
    stats.checkpoint_failures =
        checkpoint_failures_.load(std::memory_order_relaxed);
    return stats;
  }

  /// Resolved routing-stripe count (a power of two, >= 1).
  int num_stripes() const { return static_cast<int>(stripes_.size()); }
  /// Routing operations (single-shard routes + batch groups) served per
  /// stripe since construction, index-aligned with the stripes. A load /
  /// skew gauge for benches: under Zipf-skewed keys the hot tenant's
  /// stripe dominates. Volatile under concurrency — never gate on it.
  std::vector<int64_t> StripeOps() const;
  /// Current pin totals per stripe (sum of Shard::pins). Quiescent
  /// managers must report all zeros — fleet snapshots unpin on every exit
  /// path; exposed so tests can assert exactly that.
  std::vector<int64_t> StripePins() const;
  /// Iterations the shared pool's workers claimed while another fan-out
  /// was concurrently in flight (ThreadPool::shared_claims; 0 without a
  /// pool). Volatile — a work-sharing gauge, not a counter to gate on.
  int64_t pool_shared_claims() const {
    return pool_ ? pool_->shared_claims() : 0;
  }

  /// Stored-point totals of the live (resident) shards — the paper's memory
  /// unit, here doubling as the resident-memory gauge eviction exists to
  /// bound. Spilled shards hold their points in serialized form only.
  MemoryStats TotalMemory() const;

  const ShardManagerOptions& options() const { return options_; }
  const ColorConstraint& constraint() const { return constraint_; }
  SpillStore* spill_store() const { return options_.spill_store.get(); }

  /// The stripe-count convention: 0 means "auto" (4x the hardware
  /// concurrency), anything else is taken as requested; the result is then
  /// rounded up to a power of two and clamped to [1, 256].
  static int ResolveStripeCount(int requested);

 private:
  /// One tenant's slot: a live window, or (live == nullptr) its serialized
  /// state parked in the spill store under the tenant key. Entries are
  /// never removed from their stripe's shard map (eviction only drops the
  /// live window), so Shard* pointers are stable for the manager's
  /// lifetime.
  ///
  /// Field guards:
  ///   * `mu` (the per-shard lock) guards the contents of `live` (every
  ///     Update/Query/SerializeState call), `spill_dirty`, and
  ///     `clean_epoch`.
  ///   * The owning stripe's lock (exclusive) guards `pins`, `last_touch`,
  ///     `dim`, and `kind`.
  ///   * The `live` POINTER itself (residency) changes only with BOTH the
  ///     stripe lock and `mu` held, so either lock suffices to read it.
  struct Shard {
    /// Per-shard lock. Blocking-acquired only while no stripe lock is
    /// held; try_lock'ed under the stripe lock by eviction. Mutable so
    /// const fleet accessors can lock shards they only read.
    mutable std::mutex mu;
    std::unique_ptr<FairCenterSlidingWindow> live;  ///< null when spilled
    /// The objective this shard's queries answer for. Fixed when the entry
    /// is created or restored (the fleet's objective table); ApplyDelta may
    /// replace it together with the whole window.
    ObjectiveKind kind = ObjectiveKind::kFairCenter;
    bool spill_dirty = false;  ///< spilled state not yet in a fleet blob
    /// Live shards: state_epoch() at the last fleet checkpoint;
    /// kNeverCheckpointed marks dirty-since-birth (or since a dirty spill
    /// was rehydrated, which resets the window's epoch counter).
    int64_t clean_epoch = kNeverCheckpointed;
    /// In-flight operations holding a reference (stripe lock). A pinned
    /// shard is never spilled: the spill path re-checks after its store
    /// write and aborts. Pins do not block rehydration.
    int pins = 0;
    int64_t last_touch = 0;  ///< manager clock at the last touch
    /// Coordinate dimension pinned by the first accepted arrival (or the
    /// restored state); -1 until then. Kept outside the window so a
    /// mismatched arrival is rejected without rehydrating a spilled shard.
    int64_t dim = -1;
  };

  /// One hash partition of the routing layer (see the file comment). All
  /// fields are guarded by `mu` — shared mode suffices for pure reads,
  /// every mutation holds it exclusive. Held in unique_ptrs so Stripe
  /// addresses are stable and the manager stays movable.
  struct Stripe {
    mutable std::shared_mutex mu;
    /// Shards keyed by tenant id; std::map for deterministic iteration AND
    /// stable Shard addresses (entries are never erased).
    std::map<std::string, Shard> shards;
    /// This stripe's slice of the per-tenant option overrides.
    std::map<std::string, SlidingWindowOptions> overrides;
    /// This stripe's slice of the per-tenant objective overrides (tenants
    /// deviating from options_.objective).
    std::map<std::string, ObjectiveKind> objective_overrides;
    /// (last_touch, key) of this stripe's live shards: the stripe-local
    /// LRU victim is begin(); the fleet-wide victim is the minimum of the
    /// stripes' fronts, preserving the global deterministic order.
    std::set<std::pair<int64_t, std::string>> live_lru;
    int64_t ops = 0;  ///< routing operations served (load/skew gauge)
  };

  /// One pinned entry of an epoch snapshot (QueryAll / checkpoints).
  struct PinnedShard {
    const std::string* key = nullptr;  ///< stable: map keys are never erased
    Shard* shard = nullptr;
    Stripe* stripe = nullptr;  ///< owner, for the unpin pass
  };

  /// Unpins a snapshot on scope exit, whatever the exit path.
  class FleetPin;

  /// What TrySpillShard did.
  enum class SpillAttempt { kSpilled, kSkipped };

  /// Timer-thread state; heap-allocated so the manager stays movable while
  /// no thread is running.
  struct MaintenanceState;

  static constexpr int64_t kNeverCheckpointed = -1;

  /// `key`'s routing stripe (stable hash partition; stripe count is fixed
  /// at construction).
  Stripe& StripeOf(const std::string& key) const;

  /// Requires the shard's `mu` (reads the live window's epoch counter).
  bool IsDirty(const Shard& shard) const;
  /// The offending-arrival checks shared by Ingest and IngestBatch:
  /// everything the core engine would CHECK-abort on, or that the
  /// checkpoint reader would later refuse to restore. `pinned_dim` is the
  /// dimension the arrival must have (-1 = not pinned yet).
  Status ValidateArrival(const std::string& key, const Point& p,
                         int64_t pinned_dim) const;
  /// `key`'s pinned coordinate dimension, or -1 for unknown keys.
  /// Requires `stripe`'s lock.
  int64_t PinnedDimensionLocked(const Stripe& stripe,
                                const std::string& key) const;
  /// Template or override for `key`, num_threads forced to 1. Requires
  /// `stripe`'s lock (reads the stripe's override slice).
  SlidingWindowOptions OptionsForKey(const Stripe& stripe,
                                     const std::string& key) const;
  /// Fleet default or registered objective override for `key`. Requires
  /// `stripe`'s lock (shared suffices).
  ObjectiveKind ObjectiveForKey(const Stripe& stripe,
                                const std::string& key) const;
  /// Routing step of every single-shard operation. Requires `stripe`'s
  /// lock: finds `key`'s entry (creating a live one when `create_missing`),
  /// and refreshes its last_touch to `touch`. Returns nullptr for an
  /// unknown key when not creating. The caller pins before releasing the
  /// stripe lock if it needs the shard past the lookup.
  Shard* RouteLocked(Stripe& stripe, const std::string& key,
                     bool create_missing, int64_t touch);
  /// Rehydrates `key`'s shard if spilled. Caller holds the shard's `mu`
  /// and NO stripe lock; the residency commit takes the stripe lock
  /// internally. On success the shard is live.
  Status EnsureLiveHeld(const std::string& key, Shard* shard);
  /// Sets a live shard's last_touch, keeping the stripe's LRU index in
  /// sync. Requires `stripe`'s lock.
  void TouchLive(Stripe& stripe, const std::string& key, Shard* shard,
                 int64_t touch);
  /// Attempts to spill `key`'s live shard right now, without blocking:
  /// kSkipped when the shard is unknown, already spilled, pinned, its lock
  /// is busy, or (idle_ttl >= 0) it is no longer idle by the time the
  /// stripe lock is held; a backend failure is returned as a Status and
  /// leaves the shard live. Caller must hold NO manager lock.
  Result<SpillAttempt> TrySpillShard(const std::string& key, int64_t idle_ttl);
  /// Spills least-recently-touched live shards (fleet-wide minimum of the
  /// stripes' LRU fronts; ties broken by smaller key, deterministically —
  /// the same global order the unstriped index had) until the cap holds.
  /// `exclude` (may be null) is never spilled; pinned or lock-busy shards
  /// are skipped (best-effort, like a failing spill backend). Caller must
  /// hold NO manager lock.
  void EnforceLiveCap(const std::string* exclude);
  /// Pins every current shard entry — all stripe locks held at once, taken
  /// in ascending index order — and returns the snapshot in deterministic
  /// (ascending key) order. When `overrides_out` / `objectives_out` are
  /// non-null, the merged override tables are copied out under the same
  /// hold, so they travel with the exact shard set they were snapshotted
  /// beside.
  std::vector<PinnedShard> PinFleet(
      std::map<std::string, SlidingWindowOptions>* overrides_out = nullptr,
      std::map<std::string, ObjectiveKind>* objectives_out = nullptr);
  void UnpinFleet(const std::vector<PinnedShard>& pinned);
  /// Shared body of CheckpointAll / CheckpointDelta (`dirty_only`).
  Result<std::string> CheckpointSnapshot(bool dirty_only);
  /// Runs fn(0..count) over the pool, or inline without one (or for a
  /// single task).
  void FanOut(int64_t count, const std::function<void(int64_t)>& fn);
  ThreadPool* Pool() { return pool_.get(); }
  /// `state` is passed explicitly: StopMaintenance detaches the state from
  /// the manager (under the admin mutex) before joining, so the loop must
  /// not read the member it was started from.
  void MaintenanceLoop(MaintenanceState* state);

  ShardManagerOptions options_;
  ColorConstraint constraint_;
  const Metric* metric_;
  const FairCenterSolver* solver_;

  /// The routing stripes (see file comment); stripe count is a power of
  /// two fixed at construction, so StripeOf is a hash + mask.
  std::vector<std::unique_ptr<Stripe>> stripes_;

  /// Serializes spill-store writes against GarbageCollectSpill's keep-set
  /// snapshot + sweep (lock order: shard mu -> gc_mu_ -> stripe mu).
  std::unique_ptr<std::mutex> gc_mu_;

  /// Live (resident) shards across all stripes; mutated only under the
  /// owning stripe's lock but read lock-free by the cap check.
  std::atomic<size_t> live_count_{0};

  /// Shared pool (nullptr when the effective size is 1), created eagerly
  /// so concurrent fan-outs never race a lazy construction.
  std::unique_ptr<ThreadPool> pool_;

  /// Guards maintenance_ lifecycle (Start/Stop/running); never held while
  /// joining a still-running loop, so a hook's re-entrant Stop cannot
  /// deadlock the join.
  std::unique_ptr<std::mutex> maintenance_admin_mu_;
  std::unique_ptr<MaintenanceState> maintenance_;
  std::atomic<int64_t> maintenance_ticks_{0};

  std::atomic<int64_t> clock_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> rehydrations_{0};

  /// Backend-failure counters behind maintenance_stats().
  std::atomic<int64_t> spill_write_failures_{0};
  std::atomic<int64_t> rehydration_failures_{0};
  std::atomic<int64_t> checkpoint_failures_{0};
};

}  // namespace serving
}  // namespace fkc

#endif  // FKC_SERVING_SHARD_MANAGER_H_
