// Sharded multi-window serving front-end: one process, many independent
// sliding windows (per tenant, per sensor, per data stream), all driven
// through one shared thread pool.
//
// Each shard is a FairCenterSlidingWindow keyed by an opaque string. Shards
// share no state, so ingest batches and query multiplexing fan out across
// the pool with bit-identical per-shard results at any thread count — the
// same determinism contract as the core engine.
//
// The OBJECTIVE is a query argument, not fleet state: a window's state does
// not depend on the objective it answers for, so Query and QueryAll take
// it per call (fair-center by default) and one shard answers a fair-center
// dashboard and a k-median query alike. Nothing the manager stores or
// checkpoints names an objective.
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
//     whole blob. Full checkpoints are fkc-shards-v2 and deltas
//     fkc-shards-delta-v2; every other fleet format is refused. DeltaLog
//     (serving/delta_log.h) turns the delta stream into a replayable,
//     self-compacting log, held in memory or, given a directory, also
//     published crash-safely to disk.
//   * background maintenance: StartMaintenance(options) runs the eviction
//     sweep, DeltaLog capture, and spill-store GC on a timer thread instead
//     of caller-driven; StopMaintenance() (also run by the destructor)
//     joins it cleanly.
//
// Concurrency model (one map lock + per-shard locks). The manager
// serializes nothing behind one big mutex; instead:
//
//   * One ROUTING STATE holds the shard map, the per-tenant option
//     overrides, the LRU index of live shards, and
//     the shards' pin counts, all guarded by one reader-writer lock (the
//     MAP LOCK, a std::shared_mutex). It is held only for map lookups and
//     bookkeeping mutations (plus shard construction), never across a
//     window update, a query, a (de)serialization, or spill-store IO.
//     Pure lookups (TenantOptions, Keys, counts, memory gauges, eviction
//     candidate scans) take it SHARED and run concurrently; anything that
//     mutates routing state — routing (it bumps LRU and pins), creation,
//     residency commits, override registration — takes it EXCLUSIVE. The
//     fleet-wide clock and the lifetime counters are plain atomics.
//   * Each shard owns a PER-SHARD mutex guarding its window's contents and
//     its dirty-tracking state. Ingest and per-key queries touch only the
//     shards they route to, so two tenants never contend on window work.
//   * Fleet-wide reads (QueryAll, CheckpointAll, CheckpointDelta) take
//     EPOCH-SNAPSHOT semantics: one map-lock hold collects the key-ordered
//     shard set, pins it against eviction via a per-shard refcount (and,
//     for checkpoints, copies the override table beside it), then shards
//     are visited one at a time under their own locks. The hold covers
//     bookkeeping only, so it is brief; the fleet scan itself blocks ingest
//     to one shard at a time, never the fleet. Shards and overrides are
//     always emitted in ascending key order, so a fleet built by racing
//     clients checkpoints byte-equal to a serially built one.
//   * Eviction (EvictIdle and the LRU cap) try-locks its victims and
//     SKIPS busy or pinned shards instead of stalling the world; a spill
//     re-checks the pin count after writing to the store and aborts if a
//     reader pinned the shard in the meantime, so rehydration stays
//     bit-exact and the staged-commit checkpoint invariants hold.
//
//   Lock order: shard mu -> gc_mu_ -> map lock. A per-shard mutex is only
//   ever acquired blocking while the map lock is not held (in either
//   mode); the map lock may be acquired while holding a shard lock
//   (residency commits); under the map lock, shard mutexes are only
//   try_lock'ed (eviction). Spill-store writes and GC are serialized by
//   gc_mu_ so a sweep can never reap a blob spilled after it snapshotted
//   the keep-set.
//
// Compound caller sequences are still not atomic, and a fleet-wide
// operation concurrent with ingest sees each shard's state at the moment
// its lock is taken (per-shard atomicity, not a fleet-wide point in time).
//
// Each shard transition has one body: every arrival goes through
// IngestBatch (Ingest is a batch of one), Query and shard() share one
// touch, rehydration and QueryAll's ephemeral read share one checked spill
// load, Restore and ApplyDelta share one install, and every path that may
// exceed the live-shard cap calls EnforceLiveCap.
//
// Malformed input is rejected, never fatal. Arrivals follow the window's
// own rules (core ValidateArrival), applied before routing against the
// dimension each shard records, so a rejected arrival neither creates nor
// rehydrates a shard; serving adds only the key-size rule. Offenders fail
// with kInvalidArgument and only they are dropped. Corrupted or truncated
// checkpoint blobs (including shard blobs whose embedded constraint
// disagrees with the fleet's) fail Restore/ApplyDelta with a non-OK Status
// instead of aborting the process, and a failing spill backend (disk full,
// checksum mismatch) surfaces as a Status too, with the backend's code —
// an unspillable shard simply stays live.
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

  /// Worker threads of the shared pool multiplexing ingest and queries over
  /// the shards. 1 = fully sequential; 0 = hardware concurrency. An
  /// execution knob: results are bit-identical at any value and it is not
  /// part of the checkpoint. Independent of EXTERNAL concurrency: any
  /// number of client threads may call the manager at num_threads = 1.
  int num_threads = 1;

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
  /// Spill-store Put failures (eviction sweeps and LRU-cap enforcement,
  /// including Restore's). Each leaves the shard live and lossless.
  int64_t spill_write_failures = 0;
  /// Spill-store Get failures while loading a spilled shard: a touch's
  /// rehydration (ingest / per-key query / shard()) or a QueryAll read.
  int64_t rehydration_failures = 0;
  /// Fleet checkpoints (CheckpointAll / CheckpointDelta, including
  /// DeltaLog captures) abandoned because a spilled shard's
  /// blob could not be read back. Dirty bits stay set — nothing is lost.
  int64_t checkpoint_failures = 0;
};

/// Per-shard answer of a fan-out query. `solution.value` is the value of
/// the queried objective — covering radius for fair-center, sum-of-
/// distances cost for k-median (see ObjectiveSolution).
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
/// runs. Ingest and per-key queries contend only on the brief map-lock
/// hold of their routing step and on the shards they route to (two-level
/// locking — see the file comment); QueryAll and the checkpoint family are
/// epoch snapshots that lock shards one at a time.
/// Compound caller sequences are not atomic, and pointers returned by
/// shard() are not protected by any lock once returned — do not retain
/// them across other manager calls, and do not use the non-const shard()
/// accessor while other threads (or the maintenance tick) may spill the
/// pointed-to window. Do not move a manager that other threads are using
/// or whose maintenance thread is running.
class ShardManager {
 public:
  /// `metric` and `solver` must outlive the manager; they are shared by all
  /// shards (code, not state).
  ShardManager(ShardManagerOptions options, ColorConstraint constraint,
               const Metric* metric, const FairCenterSolver* solver);
  ~ShardManager();  ///< stops the maintenance thread, if running

  ShardManager(ShardManager&& other) noexcept;
  ShardManager& operator=(ShardManager&& other) noexcept;

  /// Feeds one arrival to the shard of `key`, creating (or rehydrating) the
  /// shard on first sight: exactly IngestBatch of a one-arrival batch, so
  /// it has the same per-shard state, statuses and clock. Per-shard clocks
  /// are independent: each shard sees its own arrivals as one logical time
  /// step each. Fails with kInvalidArgument — consuming nothing but its
  /// fleet-clock tick — for an oversized key or an arrival the window's
  /// rules reject (the first accepted arrival pins the shard's dimension);
  /// a spill-store failure while rehydrating keeps its own code (e.g.
  /// kIoError). Other tenants are unaffected.
  Status Ingest(const std::string& key, Point p);

  /// Routes a batch of keyed arrivals: groups it by key (lock-free,
  /// preserving per-key arrival order), validates and routes the groups
  /// under one map-lock hold, creates/rehydrates missing shards, and fans
  /// the per-shard groups out over the pool, each shard consuming its
  /// group through the core UpdateBatch engine. Produces the same
  /// per-shard state as calling Ingest per
  /// arrival in order. Invalid arrivals (oversized key, or one the window's
  /// ValidateArrival rejects against the shard's pinned dimension) are
  /// dropped individually before routing — every valid arrival in the
  /// batch is still consumed — and so is every arrival of a shard whose
  /// rehydration fails. The status reports the drop count ("dropped X of
  /// N arrivals") and the earliest validation offender (by batch
  /// position), else the first rehydration failure, with that error's own
  /// code. Two batches touching disjoint key sets contend only on the map
  /// lock during the routing step. The fleet clock advances once per
  /// SUBMITTED arrival (a dropped arrival still consumes its tick), keeping
  /// LRU/TTL bookkeeping deterministic under concurrent batches.
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

  /// Queries one shard for `objective`, transparently rehydrating it if
  /// spilled. Fails with kNotFound for an unknown key. Holds only `key`'s
  /// shard lock during the query pipeline — concurrent ingest to other
  /// tenants proceeds. The solution's `value` is the objective's value
  /// (radius or k-median cost).
  Result<ObjectiveSolution> Query(
      const std::string& key, QueryStats* stats = nullptr,
      ObjectiveKind objective = ObjectiveKind::kFairCenter);

  /// Queries every shard — live and spilled — for `objective`, multiplexed
  /// over the pool
  /// (each shard's query pipeline runs sequentially inside its task).
  /// An epoch snapshot: the shard set is collected (and pinned against
  /// eviction) under the map lock, then each shard is visited under
  /// its own lock — ingest to unrelated shards never waits on a
  /// fleet-wide query round. Spilled shards are answered from an ephemeral
  /// deserialization without changing their residency, so a fleet-wide
  /// dashboard query does not defeat eviction. Answers are ordered by key,
  /// deterministically; each answer reflects that shard's state at the
  /// moment its lock was taken. A spilled shard is loaded under its lock
  /// through the same checks as a rehydration, and one whose blob fails to
  /// load (a backend error, a corrupt blob, a foreign constraint or
  /// dimension) answers with that error.
  std::vector<ShardAnswer> QueryAll(
      ObjectiveKind objective = ObjectiveKind::kFairCenter);

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

  /// Serializes the fleet — template, constraint, tenant option overrides,
  /// and every shard (live or spilled) — into one self-describing
  /// fkc-shards-v2 blob, and marks every shard clean. An epoch snapshot
  /// like QueryAll: the shard
  /// set (and override table) is pinned under one map-lock hold, then
  /// serialized one shard lock at a time in ascending key order, so the
  /// bytes do not depend on how concurrent callers interleaved; shards
  /// created after the
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

  /// Folds a CheckpointDelta blob (fkc-shards-delta-v2) into this manager:
  /// replaces the override table and upserts every contained shard as
  /// live-and-clean. Validates everything before mutating anything — on a
  /// non-OK return the manager is unchanged. The delta's constraint must
  /// match this manager's; any other magic fails with kInvalidArgument.
  /// Shards are swapped in one at a time under their own locks; a
  /// concurrent QueryAll may observe a partially applied delta (per-shard
  /// atomicity), never a torn shard.
  Status ApplyDelta(const std::string& bytes);

  /// Reconstructs a manager from CheckpointAll output (fkc-shards-v2). Any
  /// other magic, the retired fleet formats included, and fleets of
  /// fkc-checkpoint-v1 window blobs fail with kInvalidArgument.
  /// The restored fleet answers every query identically and
  /// behaves identically under any future ingest sequence. Every shard is
  /// deserialized and installed live, and the live-shard cap is enforced
  /// after each one, so a fleet far larger than `max_live_shards` restores
  /// without ever being fully resident: the over-cap shards are
  /// re-serialized into the spill store (for fkc-checkpoint-v2 segments
  /// the same bytes as the blob carried), and a store that refuses them
  /// fails the restore with its Status. `num_threads`,
  /// `max_live_shards`, and `spill_store` are
  /// execution/resource knobs supplied at restore time, like the metric
  /// and solver. Corrupted, truncated, or implausible blobs fail with
  /// kInvalidArgument, never a process abort.
  static Result<ShardManager> Restore(
      const std::string& bytes, const Metric* metric,
      const FairCenterSolver* solver, int num_threads = 1,
      int64_t max_live_shards = 0,
      std::shared_ptr<SpillStore> spill_store = nullptr);

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
  /// order.
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

 private:
  /// One tenant's slot: a live window, or (live == nullptr) its serialized
  /// state parked in the spill store under the tenant key. Entries are
  /// never removed from the shard map (eviction only drops the live
  /// window), so Shard* pointers are stable for the manager's lifetime.
  ///
  /// Field guards:
  ///   * `mu` (the per-shard lock) guards the contents of `live` (every
  ///     Update/Query/SerializeState call), `spill_dirty`, and
  ///     `clean_epoch`.
  ///   * The map lock (exclusive) guards `pins`, `last_touch`, and `dim`.
  ///   * The `live` POINTER itself (residency) changes only with BOTH the
  ///     map lock and `mu` held, so either lock suffices to read it.
  struct Shard {
    /// Per-shard lock. Blocking-acquired only while the map lock is not
    /// held; try_lock'ed under the map lock by eviction. Mutable so const
    /// fleet accessors can lock shards they only read.
    mutable std::mutex mu;
    std::unique_ptr<FairCenterSlidingWindow> live;  ///< null when spilled
    bool spill_dirty = false;  ///< spilled state not yet in a fleet blob
    /// Live shards: state_epoch() at the last fleet checkpoint;
    /// kNeverCheckpointed marks dirty-since-birth (or since a dirty spill
    /// was rehydrated, which resets the window's epoch counter).
    int64_t clean_epoch = kNeverCheckpointed;
    /// In-flight operations holding a reference (map lock). A pinned
    /// shard is never spilled: the spill path re-checks after its store
    /// write and aborts. Pins do not block rehydration.
    int pins = 0;
    int64_t last_touch = 0;  ///< manager clock at the last touch
    /// Coordinate dimension pinned by the first accepted arrival (or the
    /// restored state); -1 until then. Kept outside the window so a
    /// mismatched arrival is rejected without rehydrating a spilled shard.
    int64_t dim = -1;
  };

  /// The routing state (see the file comment). Every field is guarded by
  /// `mu`, the map lock — shared mode suffices for pure reads, every
  /// mutation holds it exclusive. Heap-allocated so the manager stays
  /// movable.
  struct Routing {
    mutable std::shared_mutex mu;
    /// Shards keyed by tenant id; std::map for deterministic iteration AND
    /// stable Shard addresses (entries are never erased).
    std::map<std::string, Shard> shards;
    /// Per-tenant option overrides.
    std::map<std::string, SlidingWindowOptions> overrides;
    /// (last_touch, key) of the live shards: begin() is the LRU victim,
    /// least recently touched with ties broken by smaller key.
    std::set<std::pair<int64_t, std::string>> live_lru;
  };

  /// One pinned entry of an epoch snapshot (QueryAll / checkpoints).
  struct PinnedShard {
    const std::string* key = nullptr;  ///< stable: map keys are never erased
    Shard* shard = nullptr;
  };

  /// Unpins a snapshot on scope exit, whatever the exit path.
  class FleetPin;

  /// What TrySpillShard did.
  enum class SpillAttempt { kSpilled, kSkipped };

  /// Timer-thread state; heap-allocated so the manager stays movable while
  /// no thread is running.
  struct MaintenanceState;

  static constexpr int64_t kNeverCheckpointed = -1;

  /// Requires the shard's `mu` (reads the live window's epoch counter).
  bool IsDirty(const Shard& shard) const;
  /// Template or override for `key`, num_threads forced to 1. Requires the
  /// map lock.
  SlidingWindowOptions OptionsForKey(const std::string& key) const;
  /// Routing step of every single-shard operation. Requires the map lock
  /// (exclusive): finds `key`'s entry (creating a live one when
  /// `create_missing`), and refreshes its last_touch to `touch`. Returns
  /// nullptr for an unknown key when not creating. The caller pins before
  /// releasing the map lock if it needs the shard past the lookup.
  Shard* RouteLocked(const std::string& key, bool create_missing,
                     int64_t touch);
  /// The one checked read of a spilled shard: spill-store Get (a failure
  /// counts as a rehydration failure), DeserializeState, then the
  /// fleet-constraint and pinned-dimension checks. Caller holds the
  /// shard's `mu` and not the map lock (reading `dim` takes it shared).
  Result<FairCenterSlidingWindow> LoadSpilled(const std::string& key,
                                              const Shard& shard);
  /// Rehydrates `key`'s shard if spilled. Caller holds the shard's `mu`
  /// and not the map lock; the residency commit takes the map lock
  /// internally. On success the shard is live.
  Status EnsureLiveHeld(const std::string& key, Shard* shard);
  /// Makes `window` the live, checkpoint-clean state of `key`'s entry,
  /// touched at the current clock (Restore and ApplyDelta). Requires the
  /// map lock, and the shard's `mu` once the entry is visible to other
  /// threads. Returns whether it was live.
  bool InstallLocked(const std::string& key, Shard* shard,
                     std::unique_ptr<FairCenterSlidingWindow> window);
  /// The single-key touch behind Query and shard(): routes `key` without
  /// creating it (kNotFound), pins it, rehydrates it under its lock and
  /// runs fn(shard) there, then unpins and enforces the live cap sparing
  /// `key`. Returns the routing or rehydration error; fn runs only on OK.
  template <typename Fn>
  Status TouchLiveShard(const std::string& key, Fn&& fn);
  /// Sets a live shard's last_touch, keeping the LRU index in sync.
  /// Requires the map lock (exclusive).
  void TouchLive(const std::string& key, Shard* shard, int64_t touch);
  /// Attempts to spill `key`'s live shard right now, without blocking:
  /// kSkipped when the shard is unknown, already spilled, pinned, its lock
  /// is busy, or (idle_ttl >= 0) it is no longer idle by the time the map
  /// lock is held; a backend failure is returned as a Status and leaves
  /// the shard live. Caller must hold NO manager lock.
  Result<SpillAttempt> TrySpillShard(const std::string& key, int64_t idle_ttl);
  /// Spills least-recently-touched live shards (LRU order; ties broken by
  /// smaller key, deterministically) until the cap holds. `exclude` (may
  /// be null) is never spilled; pinned or lock-busy shards are skipped. A
  /// failing spill backend ends the round and its Status is returned
  /// (Restore fails on it; the touch paths leave the cap to the next
  /// enforcement). Caller must hold NO manager lock.
  Status EnforceLiveCap(const std::string* exclude);
  /// Pins every current shard entry under one map-lock hold and returns
  /// the snapshot in ascending key order. When `overrides_out` is non-null,
  /// the override table is copied out under the same hold, so it travels
  /// with the exact shard set it was snapshotted beside.
  std::vector<PinnedShard> PinFleet(
      std::map<std::string, SlidingWindowOptions>* overrides_out = nullptr);
  void UnpinFleet(const std::vector<PinnedShard>& pinned);
  /// Every shard entry, collected under the map lock (shared) for the
  /// gauges that then read each shard under its own lock. Entries are
  /// never erased, so the pointers outlive the hold.
  std::vector<const Shard*> ShardSnapshot() const;
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

  /// The shard map and its bookkeeping, under the map lock.
  std::unique_ptr<Routing> routing_;

  /// Serializes spill-store writes against GarbageCollectSpill's keep-set
  /// snapshot + sweep (lock order: shard mu -> gc_mu_ -> map lock).
  std::unique_ptr<std::mutex> gc_mu_;

  /// Live (resident) shards; mutated only under the map lock but read
  /// lock-free by the cap check.
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
