// A replayable, self-compacting log of fleet checkpoints: one full base
// blob (CheckpointAll) plus an ordered chain of incremental deltas
// (CheckpointDelta). Replay restores the base and applies the chain —
// bit-exactly the fleet that was captured, byte-equal per shard to a
// restore from a fresh full checkpoint.
//
// Without compaction a delta chain grows forever and replay cost grows with
// it, so the log re-bases itself: once the chain exceeds a configurable
// length or byte budget, the next Capture takes a full checkpoint as the
// new base and drops the chain. The budget trades capture cost (full blobs
// are expensive) against replay cost and log size. Each base opens a new
// generation (the first base is generation 1).
//
// The log lives in memory, and optionally also in a directory. Without a
// directory it is usable from construction and Open() is a no-op. With a
// directory, Open() must run first, and every entry is published to disk
// before Capture (or an append) reports success, so a SIGKILL'd leader
// reconstructs its entire ShardManager fleet on restart by replaying the
// on-disk chain. On-disk layout (all IO through common/fs_util's
// atomic-publish helpers):
//
//   <dir>/MANIFEST               fkc-replog-manifest-v1 <checksum> <gen>
//   <dir>/seg-<gen>-<index>.seg  fkc-replog-seg-v1 <checksum> <gen> <index>
//                                <length-prefixed payload>
//
// One segment file per entry: index 0 is the generation's base, indexes
// 1..N its deltas, in capture order. Each file embeds an FNV-1a checksum
// over everything after the checksum token, and is published with
// WriteFileAtomic (write temp, fsync, rename, fsync directory), so a crash
// mid-append leaves either the previous chain or the extended chain — never
// a half-written segment under a live name. A re-base writes generation
// G+1's base (and updates the MANIFEST) before generation G's files are
// retired with durable unlinks.
//
// Recovery (Open) trusts only what validates: it adopts the HIGHEST
// generation whose base segment decodes, then walks that generation's
// chain in index order and stops at the first missing or corrupt segment —
// the torn tail is truncated (the bad file deleted, later orphans swept)
// and the log continues from the surviving prefix, never aborting. The
// MANIFEST is an advisory fast-path and operator breadcrumb, not the
// source of truth: a torn or stale manifest is rebuilt from the scan.
// Because every Capture is atomic-published, the recovered prefix is
// always some exact capture boundary, and Replay of it is byte-equal (per
// shard) to the fleet as of that capture.
//
// Capture is exactly what the ShardManager's background maintenance thread
// feeds each tick (MaintenanceOptions::delta_log). The same class serves
// both ends of the wire: a LogSender streams EntriesFrom() to followers,
// and a follower's LogReceiver can AppendBase/AppendDelta received entries
// into its own directory-backed log so the follower survives ITS next kill
// too. Thread-safe: one internal mutex serializes Capture, appends, Replay
// and accessors (the manager calls it from the maintenance thread while
// tests read from the main thread).
//
// Under the manager's two-level locking, a Capture runs concurrently with
// ingest: CheckpointDelta/CheckpointAll are epoch snapshots that pin the
// shard set under the fleet lock and then serialize one shard lock at a
// time, so a capture never stalls ingest to unrelated tenants. Each
// captured shard segment is that shard's state at the moment its lock was
// taken; arrivals landing after a shard's segment was written leave the
// shard dirty for the NEXT capture (the epoch-based clean mark records
// what was captured, not what is latest), so a replayed log is always some
// prefix-consistent fleet, never a torn one.
#ifndef FKC_SERVING_DELTA_LOG_H_
#define FKC_SERVING_DELTA_LOG_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "serving/shard_manager.h"

namespace fkc {
namespace serving {

class DeltaLog {
 public:
  struct Options {
    /// Deltas tolerated in the chain before the next Capture re-bases;
    /// <= 0 re-bases on every capture (a chain of full blobs).
    int64_t max_chain_length = 16;
    /// Summed delta bytes tolerated before re-basing.
    int64_t max_chain_bytes = int64_t{1} << 26;  // 64 MiB
  };

  /// What one Capture call recorded.
  struct CaptureStats {
    bool rebased = false;   ///< this capture replaced the base
    size_t bytes = 0;       ///< bytes appended (delta or new base)
    size_t chain_length = 0;  ///< deltas in the chain afterwards
  };

  /// What Open() found (and repaired) on disk.
  struct RecoveryStats {
    int64_t recovered_entries = 0;   ///< base + deltas adopted from disk
    int64_t truncated_segments = 0;  ///< torn/corrupt tail files dropped
    int64_t swept_files = 0;  ///< stale-generation files + debris removed
    bool manifest_rebuilt = false;  ///< MANIFEST was absent, torn, or stale
  };

  /// One log entry, as shipped to followers. index 0 is the generation's
  /// base (CheckpointAll bytes); 1..N its deltas (CheckpointDelta bytes).
  struct Entry {
    int64_t generation = 0;
    int64_t index = 0;
    std::string payload;
  };

  /// An in-memory log (default Options).
  DeltaLog();
  explicit DeltaLog(Options options);
  /// A log backed by `directory`; an empty directory means in memory.
  explicit DeltaLog(std::string directory);
  DeltaLog(std::string directory, Options options);

  /// Recovers a directory-backed log from disk (creating the directory if
  /// absent) — see the file comment for the adoption rules. Must be called
  /// once before any other method; until it has returned OK every other
  /// call fails with kFailedPrecondition. Never fails on torn or corrupt
  /// segments (they are truncated away); only on directory-level IO
  /// trouble. A no-op for an in-memory log.
  Status Open();

  /// Captures `manager`'s current state into the log: the first call (and
  /// any call finding the chain over budget) takes a full checkpoint as
  /// the new base; every other call appends a CheckpointDelta. Marks the
  /// manager's shards clean either way, so consecutive captures ship only
  /// what changed in between. A failed checkpoint leaves the log unchanged
  /// (and, for a failed full checkpoint, the manager's dirty bits too).
  /// With a directory, the entry's segment file is published before the
  /// entry joins the in-memory chain; a failed publish leaves the chain
  /// unchanged, and since a delta's dirty bits are already consumed, it
  /// forces the next Capture to re-base — the full base is what carries the
  /// lost delta's changes into the log. A failed MANIFEST update after a
  /// published base is reported, but the base is kept (recovery does not
  /// need the manifest).
  /// The dirty bit is a single-consumer cursor: a manager feeding this log
  /// must not also serve direct CheckpointDelta/CheckpointAll callers, or
  /// the log's deltas will silently omit whatever those calls marked clean
  /// (Replay then reproduces a stale fleet until the next re-base).
  Result<CaptureStats> Capture(ShardManager* manager);

  /// Follower-side appends (the LogReceiver persisting what it applied).
  /// AppendBase opens `generation` (replacing any current chain, retiring
  /// the previous generation's files); AppendDelta must continue the
  /// current generation at exactly chain_length() + 1, else
  /// kFailedPrecondition (an out-of-order delivery — resync instead).
  Status AppendBase(int64_t generation, const std::string& payload);
  Status AppendDelta(int64_t generation, int64_t index,
                     const std::string& payload);

  /// Replays the log: Restore(base), then ApplyDelta for each chained
  /// delta in order. kFailedPrecondition while the log has no base. The
  /// execution/resource knobs mirror ShardManager::Restore.
  Result<ShardManager> Replay(
      const Metric* metric, const FairCenterSolver* solver,
      int num_threads = 1, int64_t max_live_shards = 0,
      std::shared_ptr<SpillStore> spill_store = nullptr) const;

  /// Entries at or after `from_index` of `generation`, in order — what a
  /// follower at that position still needs. A stale or unknown
  /// `generation` (and any from_index past the chain on it) returns the
  /// WHOLE current chain, base first: the resync-from-base rule.
  std::vector<Entry> EntriesFrom(int64_t generation,
                                 int64_t from_index) const;

  bool has_base() const;
  size_t base_bytes() const;
  /// Current generation number (0 while empty; the first base opens 1).
  int64_t generation() const;
  size_t chain_length() const;  ///< deltas in the current generation
  int64_t chain_bytes() const;
  /// Re-bases performed (the initial base does not count).
  int64_t rebases() const;
  RecoveryStats recovery_stats() const;

 private:
  Status OpenedLocked() const;  ///< kFailedPrecondition before Open()
  std::string SegmentPath(int64_t generation, int64_t index) const;
  /// Publishes one entry's segment file (atomic + durable); OK without
  /// touching disk for an in-memory log.
  Status PersistLocked(int64_t generation, int64_t index,
                       const std::string& payload) const;
  /// Publishes the MANIFEST for `generation`.
  Status WriteManifest(int64_t generation) const;
  /// Best-effort retirement of every on-disk segment except
  /// `keep_generation`'s base (one directory sync for the batch) — run
  /// after a base adoption, whose chain is by definition empty.
  void SweepOtherGenerationsLocked(int64_t keep_generation);
  /// Shared tail of AppendBase/Capture-rebase: adopt `payload` as the base
  /// of `new_generation` in memory and, with a directory, publish the
  /// manifest and retire old files. Requires mu_; the segment file must
  /// already be on disk.
  Status AdoptBaseLocked(int64_t new_generation, std::string payload);

  const std::string directory_;
  const Options options_;

  mutable std::mutex mu_;
  bool opened_ = false;
  /// Set by a failed delta publish: the bytes CheckpointDelta consumed
  /// never reached the chain, so only a full re-base recovers them.
  bool force_rebase_ = false;
  int64_t generation_ = 0;
  bool has_base_ = false;
  std::string base_;
  std::vector<std::string> chain_;
  int64_t chain_bytes_ = 0;
  int64_t rebases_ = 0;
  RecoveryStats recovery_stats_;
};

}  // namespace serving
}  // namespace fkc

#endif  // FKC_SERVING_DELTA_LOG_H_
