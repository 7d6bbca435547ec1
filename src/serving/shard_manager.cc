#include "serving/shard_manager.h"

#include <condition_variable>
#include <sstream>
#include <thread>
#include <utility>

#include "common/checkpoint_io.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/options_io.h"
#include "serving/delta_log.h"

namespace fkc {
namespace serving {
namespace {

// Fleet formats: a full blob is the template, the constraint, the
// per-tenant override table and the shards; a delta omits the template.
// The retired v1 (no override table) is rejected by name, every other
// magic as a bad one.
constexpr const char* kMagic = "fkc-shards-v2";
constexpr const char* kDeltaMagic = "fkc-shards-delta-v2";

// Shard keys travel as length-prefixed raw segments in the fleet checkpoint
// (CheckpointReader::NextRaw); this cap keeps write and read sides agreeing
// on what a plausible key is, so CheckpointAll can never emit a blob that
// Restore rejects. Oversized keys are rejected at ingest with a Status —
// one tenant's garbage must never abort the fleet.
constexpr size_t kMaxKeyBytes = 1u << 20;

// Upper bounds on checkpointed table sizes, rejected before any allocation.
constexpr int64_t kMaxShards = 1 << 24;

void WriteOverrides(std::ostringstream* out,
                    const std::map<std::string, SlidingWindowOptions>& map) {
  *out << map.size() << ' ';
  for (const auto& [key, options] : map) {
    WriteCheckpointRaw(out, key);
    WriteSlidingWindowOptions(out, options);
  }
}

// Everything a fleet blob carries ahead of its shard segments.
struct FleetHeader {
  bool delta = false;
  SlidingWindowOptions window;  ///< the shard template (full blobs only)
  std::vector<int> caps;
  std::map<std::string, SlidingWindowOptions> overrides;
  int64_t shard_count = 0;
};

// Reads a full or delta fleet header, up to and including the
// plausibility-checked shard count.
Status ReadFleetHeader(CheckpointReader* cursor, bool delta,
                       FleetHeader* header) {
  const char* what = delta ? "delta" : "checkpoint";
  header->delta = delta;
  std::string magic;
  FKC_RETURN_IF_ERROR(cursor->NextToken(&magic));
  if (!delta && magic == "fkc-shards-v1") {
    return Status::InvalidArgument(
        "fkc-shards-v1 is a retired format; re-checkpoint with a build that "
        "reads it");
  }
  if (magic != (delta ? kDeltaMagic : kMagic)) {
    return Status::InvalidArgument(std::string("not an fkc shard ") + what +
                                   " (bad magic '" + magic + "')");
  }
  // ReadSlidingWindowOptions validates what it parses (window size, delta,
  // beta, variant, slack exponents, range bounds): a corrupted or
  // adversarial blob must fail here, not abort in a constructor CHECK.
  if (!delta) {
    FKC_RETURN_IF_ERROR(ReadSlidingWindowOptions(cursor, &header->window));
  }
  FKC_RETURN_IF_ERROR(ReadColorCaps(cursor, &header->caps));
  // The override table: "<count> { <raw key> <options> }*". Every entry
  // occupies well over one byte, so the remaining blob length bounds any
  // honest count.
  int64_t overrides = 0;
  FKC_RETURN_IF_ERROR(cursor->NextInt(&overrides));
  if (overrides < 0 || overrides > kMaxShards ||
      static_cast<size_t>(overrides) > cursor->Remaining()) {
    return Status::InvalidArgument("implausible override count in checkpoint");
  }
  for (int64_t i = 0; i < overrides; ++i) {
    std::string key;
    SlidingWindowOptions options;
    FKC_RETURN_IF_ERROR(cursor->NextRaw(&key, kMaxKeyBytes));
    FKC_RETURN_IF_ERROR(ReadSlidingWindowOptions(cursor, &options));
    options.num_threads = 1;
    if (!header->overrides.emplace(std::move(key), options).second) {
      return Status::InvalidArgument("duplicate override key in checkpoint");
    }
  }
  FKC_RETURN_IF_ERROR(cursor->NextInt(&header->shard_count));
  if (header->shard_count < 0 || header->shard_count > kMaxShards ||
      static_cast<size_t>(header->shard_count) > cursor->Remaining()) {
    return Status::InvalidArgument(std::string("implausible shard count in ") +
                                   what);
  }
  return Status::OK();
}

// One decoded shard segment.
struct FleetShard {
  std::string key;
  std::unique_ptr<FairCenterSlidingWindow> window;
};

// Reads the next shard segment after `header`: the raw key, the
// deserialized window blob, and the checks a forged blob could otherwise
// slip past. `seen_keys` accumulates the keys read so far.
Status ReadFleetShard(CheckpointReader* cursor, const FleetHeader& header,
                      const Metric* metric, const FairCenterSolver* solver,
                      std::set<std::string>* seen_keys, FleetShard* shard) {
  const char* what = header.delta ? "delta" : "checkpoint";
  std::string blob;
  FKC_RETURN_IF_ERROR(cursor->NextRaw(&shard->key, kMaxKeyBytes));
  FKC_RETURN_IF_ERROR(cursor->NextRaw(&blob));
  auto window = FairCenterSlidingWindow::DeserializeState(blob, metric, solver);
  if (!window.ok()) return window.status();
  // An interior-corrupt or forged shard blob under a different constraint
  // would restore fine and then reject in-range arrivals the fleet accepts
  // (the window checks colors against its own constraint).
  if (window.value().constraint().caps() != header.caps) {
    return Status::InvalidArgument(
        std::string("shard constraint does not match the fleet constraint "
                    "in ") +
        what);
  }
  // A repeated key would silently overwrite the earlier segment.
  if (!seen_keys->insert(shard->key).second) {
    return Status::InvalidArgument(std::string("duplicate shard key in ") +
                                   what);
  }
  shard->window =
      std::make_unique<FairCenterSlidingWindow>(std::move(window).value());
  return Status::OK();
}

}  // namespace

/// Timer-thread state. The condition variable makes StopMaintenance prompt:
/// the loop sleeps on it, not on a bare sleep_for.
struct ShardManager::MaintenanceState {
  MaintenanceOptions options;
  std::thread thread;
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  /// Set (under mu) by the loop as its last act. Distinguishes a finished
  /// thread awaiting its join (safe to reap, even from StartMaintenance)
  /// from a loop still executing ticks.
  bool exited = false;
};

/// Unpins an epoch snapshot on scope exit, whatever the exit path (normal
/// return, early error return) — a leaked pin would block that shard's
/// eviction forever.
class ShardManager::FleetPin {
 public:
  FleetPin(ShardManager* manager, const std::vector<PinnedShard>* pinned)
      : manager_(manager), pinned_(pinned) {}
  ~FleetPin() { manager_->UnpinFleet(*pinned_); }
  FleetPin(const FleetPin&) = delete;
  FleetPin& operator=(const FleetPin&) = delete;

 private:
  ShardManager* manager_;
  const std::vector<PinnedShard>* pinned_;
};

ShardManager::ShardManager(ShardManagerOptions options,
                           ColorConstraint constraint, const Metric* metric,
                           const FairCenterSolver* solver)
    : options_(std::move(options)),
      constraint_(std::move(constraint)),
      metric_(metric),
      solver_(solver),
      routing_(std::make_unique<Routing>()),
      gc_mu_(std::make_unique<std::mutex>()),
      maintenance_admin_mu_(std::make_unique<std::mutex>()) {
  FKC_CHECK(metric_ != nullptr);
  FKC_CHECK(solver_ != nullptr);
  // Shards run sequentially inside their manager-pool task; nesting pools
  // would oversubscribe and buys nothing (shard fan-out already covers the
  // cores).
  options_.window.num_threads = 1;
  if (options_.spill_store == nullptr) {
    options_.spill_store = std::make_shared<InMemorySpillStore>();
  }
  // Resolve and build the pool eagerly: concurrent fan-outs must never race
  // a lazy construction. num_threads = 0 on a single-core host resolves to
  // 1, in which case no pool is parked at all.
  const int resolved = options_.num_threads == 1
                           ? 1
                           : ThreadPool::ResolveThreadCount(options_.num_threads);
  if (resolved > 1) pool_ = std::make_unique<ThreadPool>(resolved);
}

namespace {

// Prefixes `context` to a failure's message, keeping its code: a backend
// failure gains the operation and addressing context an operator needs
// (which shard, which store, doing what) beside the backend's own message
// (which names the path); IngestBatch's drop summary keeps the code of the
// error it reports.
Status Annotate(const Status& inner, const std::string& context) {
  const std::string message = context + ": " + inner.message();
  switch (inner.code()) {
    case StatusCode::kNotFound:
      return Status::NotFound(message);
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(message);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(message);
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(message);
    case StatusCode::kInfeasible:
      return Status::Infeasible(message);
    case StatusCode::kIoError:
    case StatusCode::kOk:  // unreachable: only called on failures
      break;
  }
  return Status::IoError(message);
}

// Serving's one rule beyond ValidateArrival: shard keys travel as raw
// segments of the fleet checkpoint, which refuses keys this long.
Status ValidateKey(const std::string& key) {
  if (key.size() < kMaxKeyBytes) return Status::OK();
  return Status::InvalidArgument(StrFormat(
      "shard key of %zu bytes exceeds the checkpointable limit", key.size()));
}

}  // namespace

ShardManager::~ShardManager() { StopMaintenance(); }

ShardManager::ShardManager(ShardManager&& other) noexcept
    : options_(std::move(other.options_)),
      constraint_(std::move(other.constraint_)),
      metric_(other.metric_),
      solver_(other.solver_),
      routing_(std::move(other.routing_)),
      gc_mu_(std::move(other.gc_mu_)),
      live_count_(other.live_count_.load()),
      pool_(std::move(other.pool_)),
      maintenance_admin_mu_(std::move(other.maintenance_admin_mu_)),
      maintenance_(std::move(other.maintenance_)),
      maintenance_ticks_(other.maintenance_ticks_.load()),
      clock_(other.clock_.load()),
      evictions_(other.evictions_.load()),
      rehydrations_(other.rehydrations_.load()),
      spill_write_failures_(other.spill_write_failures_.load()),
      rehydration_failures_(other.rehydration_failures_.load()),
      checkpoint_failures_(other.checkpoint_failures_.load()) {
  // Moving a manager whose maintenance thread is running is unsupported
  // (the thread would keep the old `this`); Restore/Replay outputs — the
  // only places managers are moved — never have one. A finished
  // (self-stopped) thread is fine: it no longer touches the manager.
  FKC_CHECK(maintenance_ == nullptr || !maintenance_->thread.joinable() ||
            [&] {
              std::lock_guard<std::mutex> lock(maintenance_->mu);
              return maintenance_->exited;
            }());
}

ShardManager& ShardManager::operator=(ShardManager&& other) noexcept {
  if (this == &other) return *this;
  StopMaintenance();  // join our thread before its state is replaced
  options_ = std::move(other.options_);
  constraint_ = std::move(other.constraint_);
  metric_ = other.metric_;
  solver_ = other.solver_;
  routing_ = std::move(other.routing_);
  gc_mu_ = std::move(other.gc_mu_);
  live_count_.store(other.live_count_.load());
  pool_ = std::move(other.pool_);
  maintenance_admin_mu_ = std::move(other.maintenance_admin_mu_);
  maintenance_ = std::move(other.maintenance_);
  maintenance_ticks_.store(other.maintenance_ticks_.load());
  clock_.store(other.clock_.load());
  evictions_.store(other.evictions_.load());
  rehydrations_.store(other.rehydrations_.load());
  spill_write_failures_.store(other.spill_write_failures_.load());
  rehydration_failures_.store(other.rehydration_failures_.load());
  checkpoint_failures_.store(other.checkpoint_failures_.load());
  FKC_CHECK(maintenance_ == nullptr || !maintenance_->thread.joinable() ||
            [&] {
              std::lock_guard<std::mutex> lock(maintenance_->mu);
              return maintenance_->exited;
            }());
  return *this;
}

bool ShardManager::IsDirty(const Shard& shard) const {
  return shard.live ? shard.live->state_epoch() != shard.clean_epoch
                    : shard.spill_dirty;
}

SlidingWindowOptions ShardManager::OptionsForKey(const std::string& key) const {
  auto it = routing_->overrides.find(key);
  SlidingWindowOptions options =
      it == routing_->overrides.end() ? options_.window : it->second;
  options.num_threads = 1;
  return options;
}

ShardManager::Shard* ShardManager::RouteLocked(const std::string& key,
                                               bool create_missing,
                                               int64_t touch) {
  auto it = routing_->shards.find(key);
  if (it == routing_->shards.end()) {
    if (!create_missing) return nullptr;
    it = routing_->shards.try_emplace(key).first;
    it->second.live = std::make_unique<FairCenterSlidingWindow>(
        OptionsForKey(key), constraint_, metric_, solver_);
    live_count_.fetch_add(1, std::memory_order_relaxed);
  }
  Shard* shard = &it->second;
  if (shard->live != nullptr) {
    TouchLive(it->first, shard, touch);
  } else {
    // Spilled: refresh last_touch only — the LRU index tracks live shards.
    // If a later rehydration commits, it inserts this value.
    shard->last_touch = touch;
  }
  return shard;
}

Result<FairCenterSlidingWindow> ShardManager::LoadSpilled(
    const std::string& key, const Shard& shard) {
  auto blob = options_.spill_store->Get(key);
  if (!blob.ok()) {
    rehydration_failures_.fetch_add(1, std::memory_order_relaxed);
    return Annotate(blob.status(), "rehydrating shard '" + key +
                                       "' from the " +
                                       options_.spill_store->Name() +
                                       " spill store");
  }
  auto window =
      FairCenterSlidingWindow::DeserializeState(blob.value(), metric_, solver_);
  if (!window.ok()) return window.status();
  // Same forged-blob guards as Restore/ApplyDelta: with a durable backend
  // the bytes come from a directory two fleets could share (or anyone
  // could write — the FNV checksum is integrity, not authentication). A
  // shard under a different constraint, or of a different dimension,
  // would reject arrivals the fleet validated, or answer for another
  // fleet's points.
  if (window.value().constraint().caps() != constraint_.caps()) {
    return Status::InvalidArgument(
        "spilled shard's constraint does not match the fleet constraint");
  }
  // A pinned dimension never changes again, so a caller committing the
  // window under a later map-lock hold cannot race this check.
  int64_t pinned_dim;
  {
    std::shared_lock<std::shared_mutex> map_lock(routing_->mu);
    pinned_dim = shard.dim;
  }
  if (pinned_dim >= 0 && window.value().dimension() >= 0 &&
      window.value().dimension() != pinned_dim) {
    return Status::InvalidArgument(
        "spilled shard's dimension does not match its pinned dimension");
  }
  return window;
}

Status ShardManager::EnsureLiveHeld(const std::string& key, Shard* shard) {
  if (shard->live != nullptr) return Status::OK();
  auto window = LoadSpilled(key, *shard);
  if (!window.ok()) return window.status();
  {
    std::lock_guard<std::shared_mutex> map_lock(routing_->mu);
    shard->live =
        std::make_unique<FairCenterSlidingWindow>(std::move(window).value());
    if (shard->live->dimension() >= 0) shard->dim = shard->live->dimension();
    // A fresh deserialization restarts the epoch counter at 0; a clean
    // spill therefore rehydrates clean, a dirty one stays dirty via the
    // sentinel.
    shard->clean_epoch = shard->spill_dirty ? kNeverCheckpointed : 0;
    shard->spill_dirty = false;
    live_count_.fetch_add(1, std::memory_order_relaxed);
    rehydrations_.fetch_add(1, std::memory_order_relaxed);
    routing_->live_lru.insert({shard->last_touch, key});
  }
  // Best-effort, still under the shard lock (so a concurrent QueryAll
  // cannot read a half-erased entry): a failed erase only leaves a stale
  // store entry behind — never read again (the shard is live now) and
  // swept by the next GC.
  options_.spill_store->Erase(key);
  return Status::OK();
}

bool ShardManager::InstallLocked(
    const std::string& key, Shard* shard,
    std::unique_ptr<FairCenterSlidingWindow> window) {
  const bool was_live = shard->live != nullptr;
  shard->live = std::move(window);
  shard->dim = shard->live->dimension();
  // The shard now matches a fleet blob's state exactly.
  shard->clean_epoch = shard->live->state_epoch();
  shard->spill_dirty = false;
  if (!was_live) live_count_.fetch_add(1, std::memory_order_relaxed);
  TouchLive(key, shard, clock_.load(std::memory_order_relaxed));
  return was_live;
}

template <typename Fn>
Status ShardManager::TouchLiveShard(const std::string& key, Fn&& fn) {
  Shard* shard = nullptr;
  {
    std::lock_guard<std::shared_mutex> map_lock(routing_->mu);
    shard = RouteLocked(key, /*create_missing=*/false,
                        clock_.load(std::memory_order_relaxed));
    if (shard == nullptr) {
      return Status::NotFound("no shard for key '" + key + "'");
    }
    ++shard->pins;
  }
  Status status;
  {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    status = EnsureLiveHeld(key, shard);
    if (status.ok()) fn(*shard);
  }
  {
    std::lock_guard<std::shared_mutex> map_lock(routing_->mu);
    --shard->pins;
  }
  EnforceLiveCap(&key);
  return status;
}

void ShardManager::TouchLive(const std::string& key, Shard* shard,
                             int64_t touch) {
  // The erase is a no-op for a shard that just became live (its old
  // last_touch was removed from the index when it spilled, or never
  // inserted for a brand-new shard).
  routing_->live_lru.erase({shard->last_touch, key});
  shard->last_touch = touch;
  routing_->live_lru.insert({touch, key});
}

Result<ShardManager::SpillAttempt> ShardManager::TrySpillShard(
    const std::string& key, int64_t idle_ttl) {
  std::unique_lock<std::shared_mutex> map_lock(routing_->mu);
  auto it = routing_->shards.find(key);
  if (it == routing_->shards.end()) return SpillAttempt::kSkipped;
  Shard* shard = &it->second;
  if (shard->live == nullptr || shard->pins > 0) return SpillAttempt::kSkipped;
  // Re-check idleness under the map lock: the shard may have been
  // touched between the caller's candidate snapshot and now.
  if (idle_ttl >= 0 &&
      clock_.load(std::memory_order_relaxed) - shard->last_touch <= idle_ttl) {
    return SpillAttempt::kSkipped;
  }
  // Only ever try_lock a shard mutex under the map lock (lock-order
  // protocol): a busy shard is mid-ingest or mid-query — skip it, the
  // next sweep catches it.
  std::unique_lock<std::mutex> shard_lock(shard->mu, std::try_to_lock);
  if (!shard_lock.owns_lock()) return SpillAttempt::kSkipped;
  const bool dirty = IsDirty(*shard);
  FairCenterSlidingWindow* window = shard->live.get();
  map_lock.unlock();

  // Serialize and write outside the map lock (the shard lock keeps the
  // window stable). The GC mutex spans the write and the commit so a
  // concurrent GarbageCollectSpill, whose keep-set predates this spill,
  // can never reap the blob just written.
  std::string blob = window->SerializeState();
  std::lock_guard<std::mutex> gc(*gc_mu_);
  // Put before dropping the window: a failing backend must leave the shard
  // live and the fleet lossless.
  Status put = options_.spill_store->Put(key, std::move(blob));
  if (!put.ok()) {
    spill_write_failures_.fetch_add(1, std::memory_order_relaxed);
    return Annotate(
        put, "spilling shard '" + key + "' to the " +
                 options_.spill_store->Name() + " spill store");
  }

  map_lock.lock();
  if (shard->pins > 0) {
    // A fleet read pinned the shard while the blob was being written; the
    // reader expects live shards to stay live, so abort the spill and drop
    // the just-written entry (best-effort — GC would sweep it anyway).
    map_lock.unlock();
    options_.spill_store->Erase(key);
    return SpillAttempt::kSkipped;
  }
  shard->spill_dirty = dirty;
  shard->live.reset();
  shard->clean_epoch = kNeverCheckpointed;
  routing_->live_lru.erase({shard->last_touch, key});
  live_count_.fetch_sub(1, std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  return SpillAttempt::kSpilled;
}

Status ShardManager::EnforceLiveCap(const std::string* exclude) {
  if (options_.max_live_shards <= 0) return Status::OK();
  // Best-effort loop: each round picks the LRU victim — the front of the
  // live index, least recently touched with ties broken by smaller key —
  // and attempts the spill without any lock held. Victims whose attempt
  // failed are not retried, so the loop always terminates; pinned shards
  // are skipped but stay eligible for later rounds (their pin is
  // transient).
  std::set<std::string> attempted;
  for (;;) {
    if (live_count_.load(std::memory_order_relaxed) <=
        static_cast<size_t>(options_.max_live_shards)) {
      return Status::OK();
    }
    bool found = false;
    std::string victim;
    {
      std::shared_lock<std::shared_mutex> map_lock(routing_->mu);
      for (const auto& [touch, key] : routing_->live_lru) {
        if (exclude != nullptr && key == *exclude) continue;
        if (attempted.count(key) != 0) continue;
        if (routing_->shards.find(key)->second.pins > 0) continue;
        victim = key;
        found = true;
        break;
      }
    }
    // Everything left is excluded, pinned, or failed.
    if (!found) return Status::OK();
    attempted.insert(victim);
    auto spilled = TrySpillShard(victim, /*idle_ttl=*/-1);
    // Spill backend down: the cap is enforced best-effort until the backend
    // recovers. Nothing is lost.
    if (!spilled.ok()) return spilled.status();
  }
}

std::vector<ShardManager::PinnedShard> ShardManager::PinFleet(
    std::map<std::string, SlidingWindowOptions>* overrides_out) {
  // One hold, so the snapshot is a consistent cut of the routing state:
  // every shard that existed before the call is pinned, and the override
  // table travels with exactly that shard set. The map iterates in
  // ascending key order, which checkpoint byte-equality rests on.
  std::lock_guard<std::shared_mutex> map_lock(routing_->mu);
  std::vector<PinnedShard> pinned;
  pinned.reserve(routing_->shards.size());
  for (auto& [key, shard] : routing_->shards) {
    ++shard.pins;
    pinned.push_back(PinnedShard{&key, &shard});
  }
  if (overrides_out != nullptr) *overrides_out = routing_->overrides;
  return pinned;
}

void ShardManager::UnpinFleet(const std::vector<PinnedShard>& pinned) {
  if (pinned.empty()) return;
  std::lock_guard<std::shared_mutex> map_lock(routing_->mu);
  for (const PinnedShard& entry : pinned) --entry.shard->pins;
}

std::vector<const ShardManager::Shard*> ShardManager::ShardSnapshot() const {
  std::shared_lock<std::shared_mutex> map_lock(routing_->mu);
  std::vector<const Shard*> snapshot;
  snapshot.reserve(routing_->shards.size());
  for (const auto& [key, shard] : routing_->shards) snapshot.push_back(&shard);
  return snapshot;
}

Status ShardManager::Ingest(const std::string& key, Point p) {
  std::vector<KeyedPoint> batch;
  batch.push_back(KeyedPoint{key, std::move(p)});
  return IngestBatch(std::move(batch));
}

Status ShardManager::IngestBatch(std::vector<KeyedPoint> batch) {
  if (batch.empty()) return Status::OK();
  const int64_t n = static_cast<int64_t>(batch.size());
  // Reserve the whole batch's clock range up front: arrival i owns tick
  // base + i + 1, so LRU order and TTL bookkeeping are identical run to
  // run (and to the serial build) however concurrent batches interleave.
  // The flip side: an arrival dropped by validation still consumes its
  // tick — documented in the header; the clock is an ordering device, not
  // checkpointed state.
  const int64_t base = clock_.fetch_add(n, std::memory_order_relaxed);

  // One per-shard group: arrival order preserved within the key (the only
  // order that matters — shards share no state, so cross-key interleaving
  // is unobservable).
  struct Group {
    const std::string* key = nullptr;
    std::vector<int64_t> indices;  ///< batch positions, ascending
    std::vector<Point> points;     ///< the accepted arrivals, in order
    int64_t size = 0;              ///< accepted count, recorded BEFORE the move
    Shard* shard = nullptr;        ///< null when no arrival was accepted
    Status status;                 ///< the group's ingest outcome
  };

  // Phase 1: group batch positions by key. It allocates and reads no
  // shared state, so it runs before, not under, the exclusive map lock.
  std::map<std::string, Group> groups;
  for (int64_t i = 0; i < n; ++i) groups[batch[i].key].indices.push_back(i);
  for (auto& [key, group] : groups) {
    group.key = &key;
    group.points.reserve(group.indices.size());
  }

  // Phase 2: validate + route + pin under one map-lock hold. Validation
  // and dimension pinning happen in the same critical section that creates
  // the shard, so a racing batch on the same fresh key validates against
  // the dimension pinned here. A key's arrivals are validated in order
  // against its pinned dimension, then against the first accepted one's.
  int64_t dropped = 0;
  Status first_error;
  int64_t first_error_index = n;  ///< batch position of the earliest offender
  std::vector<Group*> work;
  work.reserve(groups.size());
  {
    std::lock_guard<std::shared_mutex> map_lock(routing_->mu);
    for (auto& [key, group] : groups) {
      auto it = routing_->shards.find(key);
      int64_t dim = it == routing_->shards.end() ? -1 : it->second.dim;
      int64_t last_clock = 0;
      for (int64_t i : group.indices) {
        Status status = ValidateKey(key);
        if (status.ok()) {
          status = ValidateArrival(batch[i].point, constraint_, dim);
        }
        if (!status.ok()) {
          ++dropped;
          if (i < first_error_index) {
            first_error = std::move(status);
            first_error_index = i;
          }
          continue;
        }
        dim = static_cast<int64_t>(batch[i].point.dimension());
        group.points.push_back(std::move(batch[i].point));
        last_clock = base + i + 1;
      }
      if (group.points.empty()) continue;
      group.size = static_cast<int64_t>(group.points.size());
      group.shard = RouteLocked(key, /*create_missing=*/true, last_clock);
      group.shard->dim = dim;
      ++group.shard->pins;
      work.push_back(&group);
    }
  }

  // Phase 3: fan the per-shard groups out over the pool. Each task blocks
  // only on its own shard's lock (held by nobody else routing a disjoint
  // key set).
  FanOut(static_cast<int64_t>(work.size()), [&](int64_t i) {
    Group* group = work[i];
    std::lock_guard<std::mutex> shard_lock(group->shard->mu);
    group->status = EnsureLiveHeld(*group->key, group->shard);
    if (group->status.ok()) {
      // Phase 2 applied the window's own rules against the shard's pinned
      // dimension, so this fails only if a concurrent ApplyDelta swapped in
      // a window of another dimension since: then it rejects every arrival
      // of the group, as the accounting below assumes.
      group->status = group->shard->live->UpdateBatch(std::move(group->points));
    }
  });

  // Phase 4: unpin and merge the accounting. The earliest validation
  // offender (by batch position) wins the reported error, else the first
  // failed group's; failed groups use the size recorded at routing time —
  // the points vector is unreliable after the std::move above.
  Status group_error;
  {
    std::lock_guard<std::shared_mutex> map_lock(routing_->mu);
    for (Group* group : work) {
      --group->shard->pins;
      // A failed group was dropped whole (points are only consumed on
      // success). Its code travels with it, so a backend failure stays a
      // backend failure.
      if (group->status.ok()) continue;
      dropped += group->size;
      if (group_error.ok()) group_error = group->status;
    }
  }
  if (first_error.ok()) first_error = std::move(group_error);
  // A batch feeding a single shard never spills that shard to make room.
  EnforceLiveCap(work.size() == 1 ? work[0]->key : nullptr);

  if (dropped > 0) {
    return Annotate(first_error,
                    StrFormat("dropped %lld of %lld arrivals; first error",
                              static_cast<long long>(dropped),
                              static_cast<long long>(n)));
  }
  return Status::OK();
}

Status ShardManager::SetTenantOptions(const std::string& key,
                                      SlidingWindowOptions options) {
  std::lock_guard<std::shared_mutex> map_lock(routing_->mu);
  FKC_RETURN_IF_ERROR(ValidateKey(key));
  FKC_RETURN_IF_ERROR(ValidateSlidingWindowOptions(options));
  if (routing_->shards.count(key) != 0) {
    return Status::FailedPrecondition(
        "shard '" + key + "' already exists; options are fixed at creation");
  }
  options.num_threads = 1;
  if (SameCheckpointedOptions(options, options_.window)) {
    routing_->overrides.erase(key);  // identical to the template: no store
  } else {
    routing_->overrides[key] = options;
  }
  return Status::OK();
}

const SlidingWindowOptions* ShardManager::TenantOptions(
    const std::string& key) const {
  std::shared_lock<std::shared_mutex> map_lock(routing_->mu);
  auto it = routing_->overrides.find(key);
  return it == routing_->overrides.end() ? nullptr : &it->second;
}

Result<ObjectiveSolution> ShardManager::Query(const std::string& key,
                                              QueryStats* stats,
                                              ObjectiveKind objective) {
  Result<ObjectiveSolution> answer = ObjectiveSolution{};
  FKC_RETURN_IF_ERROR(TouchLiveShard(key, [&](Shard& shard) {
    answer = shard.live->Query(objective, stats);
  }));
  return answer;
}

std::vector<ShardAnswer> ShardManager::QueryAll(ObjectiveKind objective) {
  // Epoch snapshot: pin the current shard set under one map-lock hold,
  // then answer shard by shard under per-shard locks only —
  // ingest to unrelated shards proceeds throughout the round.
  std::vector<PinnedShard> pinned = PinFleet();
  FleetPin unpin(this, &pinned);

  // Live shards answer in place; spilled shards answer from an ephemeral
  // deserialization so a fleet-wide query round does not defeat eviction.
  // Each spilled task fetches its own blob inside the fan-out and drops it
  // with the task: fetching the whole fleet's blobs up front would
  // transiently hold every spilled shard in memory, the exact condition a
  // durable store plus live-shard cap exists to prevent.
  std::vector<ShardAnswer> answers(pinned.size());
  FanOut(static_cast<int64_t>(pinned.size()), [&](int64_t i) {
    answers[i].key = *pinned[i].key;
    Shard* shard = pinned[i].shard;
    std::unique_lock<std::mutex> shard_lock(shard->mu);
    if (shard->live != nullptr) {
      answers[i].solution = shard->live->Query(objective, &answers[i].stats);
      return;
    }
    // The load happens under the shard lock (a concurrent rehydration
    // commits and erases the entry under the same lock); the query runs
    // outside every manager lock.
    auto window = LoadSpilled(answers[i].key, *shard);
    shard_lock.unlock();
    if (!window.ok()) {
      answers[i].solution = window.status();
      return;
    }
    answers[i].solution = window.value().Query(objective, &answers[i].stats);
  });
  return answers;
}

int64_t ShardManager::EvictIdle(int64_t idle_ttl, Status* spill_status) {
  if (spill_status != nullptr) *spill_status = Status::OK();
  if (idle_ttl < 0) return 0;
  // The LRU index orders live shards by (last_touch, key), so the idle
  // ones are exactly its prefix — snapshot those, then spill without any
  // lock held. TrySpillShard re-checks idleness (and pins, and the lock)
  // per victim, so a candidate touched after the snapshot is simply
  // skipped.
  const int64_t now = clock_.load(std::memory_order_relaxed);
  std::vector<std::string> candidates;
  {
    std::shared_lock<std::shared_mutex> map_lock(routing_->mu);
    for (const auto& [touch, key] : routing_->live_lru) {
      if (now - touch <= idle_ttl) break;
      candidates.push_back(key);
    }
  }
  int64_t evicted = 0;
  for (const std::string& key : candidates) {
    auto attempt = TrySpillShard(key, idle_ttl);
    if (!attempt.ok()) {
      // Backend down: stop the sweep, leave the remaining shards live.
      if (spill_status != nullptr) *spill_status = attempt.status();
      break;
    }
    if (attempt.value() == SpillAttempt::kSpilled) ++evicted;
  }
  return evicted;
}

Result<std::string> ShardManager::CheckpointSnapshot(bool dirty_only) {
  // Pin set and override table under ONE map-lock hold, so the table
  // travels with the shard set it was snapshotted beside. Both iterate
  // in ascending key order, as a serially built fleet's do — the
  // byte-equality contract under concurrent building.
  std::map<std::string, SlidingWindowOptions> overrides;
  std::vector<PinnedShard> pinned = PinFleet(&overrides);
  FleetPin unpin(this, &pinned);

  std::ostringstream out;
  out << (dirty_only ? kDeltaMagic : kMagic) << ' ';
  if (!dirty_only) {
    // The window template (needed to spawn shards for keys first seen
    // after a restore). num_threads, max_live_shards, and the spill store
    // are execution/resource knobs and are deliberately
    // excluded, like in the core checkpoint.
    WriteSlidingWindowOptions(&out, options_.window);
  }
  WriteColorCaps(&out, constraint_);
  WriteOverrides(&out, overrides);

  // Every captured shard: length-prefixed key, length-prefixed core
  // checkpoint, taken one shard lock at a time. A spilled shard's state is
  // its spill blob, verbatim. Clean marks are staged and committed only
  // after every blob is in hand — a failing spill read must not leave half
  // the fleet marked clean for a checkpoint that never existed. The epoch
  // recorded per live shard is the one at capture time, so arrivals
  // landing after a shard's segment was taken leave it dirty.
  struct CleanMark {
    Shard* shard;
    int64_t epoch;
    bool was_live;
  };
  std::vector<CleanMark> clean_marks;
  clean_marks.reserve(pinned.size());
  std::ostringstream body;
  int64_t written = 0;
  for (const PinnedShard& entry : pinned) {
    std::lock_guard<std::mutex> shard_lock(entry.shard->mu);
    if (dirty_only && !IsDirty(*entry.shard)) continue;
    WriteCheckpointRaw(&body, *entry.key);
    if (entry.shard->live) {
      WriteCheckpointRaw(&body, entry.shard->live->SerializeState());
      clean_marks.push_back(
          CleanMark{entry.shard, entry.shard->live->state_epoch(), true});
    } else {
      auto blob = options_.spill_store->Get(*entry.key);
      if (!blob.ok()) {
        checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
        return Annotate(
            blob.status(),
            std::string(dirty_only ? "delta checkpoint" : "full checkpoint") +
                " aborted reading spilled shard '" + *entry.key +
                "' from the " + options_.spill_store->Name() + " spill store");
      }
      WriteCheckpointRaw(&body, blob.value());
      clean_marks.push_back(CleanMark{entry.shard, kNeverCheckpointed, false});
    }
    ++written;
  }
  out << written << ' ' << body.str();

  // Commit the staged marks while still holding the pins: a was_live shard
  // is therefore still live (pinned shards are never spilled). A shard
  // captured spilled but rehydrated since keeps its dirty state —
  // conservative, the next delta simply re-ships it.
  for (const CleanMark& mark : clean_marks) {
    std::lock_guard<std::mutex> shard_lock(mark.shard->mu);
    if (mark.was_live) {
      mark.shard->clean_epoch = mark.epoch;
    } else if (mark.shard->live == nullptr) {
      mark.shard->spill_dirty = false;
    }
  }
  return out.str();
}

Result<std::string> ShardManager::CheckpointAll() {
  return CheckpointSnapshot(/*dirty_only=*/false);
}

Result<std::string> ShardManager::CheckpointDelta() {
  return CheckpointSnapshot(/*dirty_only=*/true);
}

size_t ShardManager::dirty_shard_count() const {
  size_t dirty = 0;
  for (const Shard* shard : ShardSnapshot()) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    if (IsDirty(*shard)) ++dirty;
  }
  return dirty;
}

Status ShardManager::ApplyDelta(const std::string& bytes) {
  // Parse and stage everything with NO manager lock held — the inputs
  // (constraint, metric, solver) are immutable after construction, and a
  // truncated or corrupt delta must leave the fleet exactly as it was.
  CheckpointReader cursor(bytes);
  FleetHeader header;
  FKC_RETURN_IF_ERROR(ReadFleetHeader(&cursor, /*delta=*/true, &header));
  if (header.caps != constraint_.caps()) {
    return Status::InvalidArgument(
        "delta constraint does not match this manager's");
  }
  // No reserve from the blob-supplied count: growth is paid only for
  // entries that actually parse.
  std::vector<FleetShard> staged;
  std::set<std::string> seen_keys;
  for (int64_t s = 0; s < header.shard_count; ++s) {
    FleetShard segment;
    FKC_RETURN_IF_ERROR(ReadFleetShard(&cursor, header, metric_, solver_,
                                       &seen_keys, &segment));
    staged.push_back(std::move(segment));
  }

  {
    std::lock_guard<std::shared_mutex> map_lock(routing_->mu);
    routing_->overrides = std::move(header.overrides);
  }
  // Swap each staged shard in under its own lock: per-shard atomicity (a
  // concurrent QueryAll may see a partially applied delta, never a torn
  // shard), and ingest to untouched tenants proceeds throughout.
  for (auto& [key, window] : staged) {
    Shard* shard = nullptr;
    {
      std::lock_guard<std::shared_mutex> map_lock(routing_->mu);
      auto [it, fresh] = routing_->shards.try_emplace(key);
      if (fresh) {
        // A tenant first seen in this delta: build the entry fully formed
        // under the map lock (nobody can hold its shard lock yet). A
        // visible entry without a window or a spill entry would read as a
        // spilled shard whose rehydration fails.
        InstallLocked(it->first, &it->second, std::move(window));
        continue;
      }
      shard = &it->second;
      ++shard->pins;
    }
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    bool was_live;
    {
      std::lock_guard<std::shared_mutex> map_lock(routing_->mu);
      was_live = InstallLocked(key, shard, std::move(window));
      --shard->pins;
    }
    if (!was_live) {
      // A previously spilled shard's store entry is superseded; drop it
      // under the shard lock (best-effort — a stale entry is never read
      // and GC sweeps it).
      options_.spill_store->Erase(key);
    }
  }
  EnforceLiveCap(nullptr);
  return Status::OK();
}

Result<ShardManager> ShardManager::Restore(
    const std::string& bytes, const Metric* metric,
    const FairCenterSolver* solver, int num_threads, int64_t max_live_shards,
    std::shared_ptr<SpillStore> spill_store) {
  CheckpointReader cursor(bytes);
  FleetHeader header;
  FKC_RETURN_IF_ERROR(ReadFleetHeader(&cursor, /*delta=*/false, &header));

  ShardManagerOptions options;
  options.num_threads = num_threads;
  options.max_live_shards = max_live_shards;
  options.spill_store = std::move(spill_store);
  options.window = header.window;

  ShardManager manager(options, ColorConstraint(header.caps), metric, solver);
  Routing& routing = *manager.routing_;

  std::set<std::string> seen_keys;
  for (int64_t s = 0; s < header.shard_count; ++s) {
    FleetShard segment;
    FKC_RETURN_IF_ERROR(ReadFleetShard(&cursor, header, metric, solver,
                                       &seen_keys, &segment));
    {
      std::lock_guard<std::shared_mutex> map_lock(routing.mu);
      // The key is new: ReadFleetShard rejects repeats.
      const auto pos = routing.shards.try_emplace(std::move(segment.key)).first;
      manager.InstallLocked(pos->first, &pos->second,
                            std::move(segment.window));
    }
    // Enforce the cap as shards stream in, not after: a fleet far larger
    // than max_live_shards must never be fully resident at once — that is
    // the exact condition the cap exists to prevent. Every shard is
    // touched at clock 0, so the survivors (the largest keys) match what
    // one sweep at the end would keep. A spill store that cannot absorb
    // the restore fails the restore, not the process.
    FKC_RETURN_IF_ERROR(manager.EnforceLiveCap(nullptr));
  }
  // The manager is not published to any other thread until Restore
  // returns, so its override table is filled directly.
  routing.overrides = std::move(header.overrides);
  return manager;
}

Status ShardManager::StartMaintenance(MaintenanceOptions options) {
  if (options.cadence <= std::chrono::milliseconds::zero()) {
    return Status::InvalidArgument("maintenance cadence must be positive");
  }
  std::lock_guard<std::mutex> admin(*maintenance_admin_mu_);
  if (maintenance_ != nullptr) {
    bool exited;
    {
      std::lock_guard<std::mutex> lock(maintenance_->mu);
      exited = maintenance_->exited;
    }
    if (!exited) {
      return Status::FailedPrecondition("maintenance thread already running");
    }
    // The previous loop already exited (a hook-initiated self-stop, which
    // cannot join itself): reap the finished thread here. The join is
    // prompt — the thread is past its last statement — and cannot be the
    // calling thread (a hook caller would still be inside the loop, with
    // `exited` unset).
    if (maintenance_->thread.joinable()) maintenance_->thread.join();
    maintenance_.reset();
  }
  maintenance_ = std::make_unique<MaintenanceState>();
  maintenance_->options = std::move(options);
  maintenance_->thread = std::thread(
      [this, state = maintenance_.get()] { MaintenanceLoop(state); });
  return Status::OK();
}

void ShardManager::StopMaintenance() {
  if (maintenance_admin_mu_ == nullptr) return;  // moved-from shell
  // Detach the state from the manager under the admin lock, then signal
  // and join WITHOUT it: the maintenance thread may itself be inside a
  // re-entrant StopMaintenance (an on_tick hook) waiting on the admin
  // mutex, and joining while holding it would deadlock both sides.
  std::unique_ptr<MaintenanceState> state;
  {
    std::lock_guard<std::mutex> admin(*maintenance_admin_mu_);
    if (maintenance_ == nullptr) return;
    if (maintenance_->thread.get_id() == std::this_thread::get_id()) {
      // Called from the maintenance thread (an on_tick hook): joining
      // oneself is impossible. Signal the loop to exit after this tick;
      // the thread stays attached until another thread's Stop or Start
      // (or the destructor) reaps it.
      std::lock_guard<std::mutex> lock(maintenance_->mu);
      maintenance_->stop = true;
      return;
    }
    state = std::move(maintenance_);
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->stop = true;
  }
  state->cv.notify_all();
  if (state->thread.joinable()) state->thread.join();
}

bool ShardManager::maintenance_running() const {
  std::lock_guard<std::mutex> admin(*maintenance_admin_mu_);
  if (maintenance_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(maintenance_->mu);
  return !maintenance_->exited;
}

void ShardManager::MaintenanceLoop(MaintenanceState* state) {
  std::unique_lock<std::mutex> lock(state->mu);
  for (;;) {
    // wait_for returns true only when stop was signalled — a prompt,
    // race-free shutdown even when StopMaintenance lands mid-sleep.
    if (state->cv.wait_for(lock, state->options.cadence,
                           [state] { return state->stop; })) {
      state->exited = true;
      return;
    }
    lock.unlock();
    RunMaintenanceTick(state->options);
    lock.lock();
  }
}

MaintenanceTickReport ShardManager::RunMaintenanceTick(
    const MaintenanceOptions& options) {
  MaintenanceTickReport report;
  report.tick = maintenance_ticks_.fetch_add(1) + 1;

  if (options.idle_ttl >= 0) {
    Status spill_status;
    report.evicted = EvictIdle(options.idle_ttl, &spill_status);
    if (report.status.ok()) report.status = spill_status;
  }

  if (options.delta_log != nullptr && dirty_shard_count() > 0) {
    auto captured = options.delta_log->Capture(this);
    if (captured.ok()) {
      report.capture_bytes = captured.value().bytes;
      report.rebased = captured.value().rebased;
    } else if (report.status.ok()) {
      report.status = captured.status();
    }
  }

  if (options.gc_every > 0 && report.tick % options.gc_every == 0) {
    auto removed = GarbageCollectSpill();
    if (removed.ok()) {
      report.gc_removed = removed.value();
    } else if (report.status.ok()) {
      report.status = removed.status();
    }
  }

  if (options.on_tick) options.on_tick(report);
  return report;
}

Result<int64_t> ShardManager::GarbageCollectSpill() {
  // The GC mutex is taken BEFORE the map lock (lock-order protocol) and
  // held across the whole sweep: no spill can commit between the keep-set
  // snapshot below and the store's delete pass, so the keep-set can never
  // under-approximate and reap a freshly spilled blob.
  std::lock_guard<std::mutex> gc(*gc_mu_);
  std::set<std::string> spilled;
  {
    std::shared_lock<std::shared_mutex> map_lock(routing_->mu);
    for (const auto& [key, shard] : routing_->shards) {
      if (!shard.live) spilled.insert(key);
    }
  }
  return options_.spill_store->GarbageCollect(spilled);
}

std::vector<std::string> ShardManager::Keys() const {
  std::shared_lock<std::shared_mutex> map_lock(routing_->mu);
  std::vector<std::string> keys;
  keys.reserve(routing_->shards.size());
  for (const auto& [key, shard] : routing_->shards) keys.push_back(key);
  return keys;
}

FairCenterSlidingWindow* ShardManager::shard(const std::string& key) {
  FairCenterSlidingWindow* window = nullptr;
  TouchLiveShard(key, [&](Shard& shard) { window = shard.live.get(); });
  return window;
}

const FairCenterSlidingWindow* ShardManager::shard(
    const std::string& key) const {
  std::shared_lock<std::shared_mutex> map_lock(routing_->mu);
  auto it = routing_->shards.find(key);
  return it == routing_->shards.end() ? nullptr : it->second.live.get();
}

size_t ShardManager::shard_count() const {
  std::shared_lock<std::shared_mutex> map_lock(routing_->mu);
  return routing_->shards.size();
}

size_t ShardManager::live_shard_count() const {
  return live_count_.load(std::memory_order_relaxed);
}

size_t ShardManager::spilled_shard_count() const {
  // Two relaxed reads; exact when quiescent, approximate under races (like
  // every fleet-wide count here).
  const size_t total = shard_count();
  const size_t live = live_count_.load(std::memory_order_relaxed);
  return total > live ? total - live : 0;
}

void ShardManager::FanOut(int64_t count,
                          const std::function<void(int64_t)>& fn) {
  ThreadPool* pool = Pool();
  if (pool == nullptr || count < 2) {
    for (int64_t i = 0; i < count; ++i) fn(i);
  } else {
    pool->ParallelFor(count, fn);
  }
}

MemoryStats ShardManager::TotalMemory() const {
  MemoryStats stats;
  for (const Shard* shard : ShardSnapshot()) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    if (shard->live) stats += shard->live->Memory();
  }
  return stats;
}

}  // namespace serving
}  // namespace fkc
