#include "serving/delta_log.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <utility>

#include "common/checkpoint_io.h"
#include "common/fs_util.h"
#include "common/string_util.h"

namespace fkc {
namespace serving {
namespace {

// Segment file layout (mirrors the spill-file convention):
//   fkc-replog-seg-v1 <checksum> <generation> <index> <raw payload>
// with <checksum> the hex FNV-1a 64 over everything after its trailing
// space. The generation/index travel INSIDE the checksummed body and must
// match the filename, so a renamed or cross-copied segment cannot be
// adopted at the wrong position.
constexpr const char* kSegmentMagic = "fkc-replog-seg-v1";
constexpr const char* kManifestMagic = "fkc-replog-manifest-v1";
constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kSegmentSuffix = ".seg";

std::string EncodeChecksummed(const char* magic, const std::string& body) {
  return StrFormat("%s %016llx ", magic,
                   static_cast<unsigned long long>(Fnv1a64(body))) +
         body;
}

// Validates "<magic> <checksum> " and the checksum over the remainder,
// which is returned through `body`.
Status DecodeChecksummed(const char* magic, const std::string& file,
                         std::string* body) {
  const std::string prefix = std::string(magic) + ' ';
  if (file.compare(0, prefix.size(), prefix) != 0) {
    return Status::InvalidArgument(std::string("bad magic (expected ") +
                                   magic + ")");
  }
  const size_t checksum_end = file.find(' ', prefix.size());
  if (checksum_end == std::string::npos) {
    return Status::InvalidArgument("truncated header");
  }
  const std::string checksum_hex =
      file.substr(prefix.size(), checksum_end - prefix.size());
  char* end = nullptr;
  const uint64_t checksum = std::strtoull(checksum_hex.c_str(), &end, 16);
  if (checksum_hex.empty() ||
      end != checksum_hex.c_str() + checksum_hex.size()) {
    return Status::InvalidArgument("unparsable checksum");
  }
  *body = file.substr(checksum_end + 1);
  if (Fnv1a64(*body) != checksum) {
    return Status::InvalidArgument("checksum mismatch (torn write/bit rot)");
  }
  return Status::OK();
}

std::string EncodeSegment(int64_t generation, int64_t index,
                          const std::string& payload) {
  std::ostringstream body;
  body << generation << ' ' << index << ' ';
  WriteCheckpointRaw(&body, payload);
  return EncodeChecksummed(kSegmentMagic, std::move(body).str());
}

// Full validation of a segment file's bytes against its expected position.
Status DecodeSegment(const std::string& file, int64_t expected_generation,
                     int64_t expected_index, std::string* payload) {
  std::string body;
  FKC_RETURN_IF_ERROR(DecodeChecksummed(kSegmentMagic, file, &body));
  CheckpointReader reader(body);
  int64_t generation = 0;
  int64_t index = 0;
  FKC_RETURN_IF_ERROR(reader.NextInt(&generation));
  FKC_RETURN_IF_ERROR(reader.NextInt(&index));
  if (generation != expected_generation || index != expected_index) {
    return Status::InvalidArgument(
        "segment position does not match its filename");
  }
  FKC_RETURN_IF_ERROR(reader.NextRaw(payload));
  return Status::OK();
}

// "seg-<gen>-<index>.seg" -> (gen, index); false for any other name.
bool ParseSegmentName(const std::string& name, int64_t* generation,
                      int64_t* index) {
  long long gen = 0;
  long long idx = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "seg-%lld-%lld.seg%n", &gen, &idx,
                  &consumed) != 2 ||
      static_cast<size_t>(consumed) != name.size() || gen < 1 || idx < 0) {
    return false;
  }
  *generation = gen;
  *index = idx;
  return true;
}

}  // namespace

DeltaLog::DeltaLog() : DeltaLog(Options()) {}

DeltaLog::DeltaLog(Options options) : DeltaLog(std::string(), options) {}

DeltaLog::DeltaLog(std::string directory)
    : DeltaLog(std::move(directory), Options()) {}

DeltaLog::DeltaLog(std::string directory, Options options)
    : directory_(std::move(directory)),
      options_(options),
      opened_(directory_.empty()) {}

Status DeltaLog::OpenedLocked() const {
  if (!opened_) {
    return Status::FailedPrecondition("delta log is not open");
  }
  return Status::OK();
}

std::string DeltaLog::SegmentPath(int64_t generation, int64_t index) const {
  return directory_ + "/" +
         StrFormat("seg-%lld-%lld%s", static_cast<long long>(generation),
                   static_cast<long long>(index), kSegmentSuffix);
}

Status DeltaLog::PersistLocked(int64_t generation, int64_t index,
                               const std::string& payload) const {
  if (directory_.empty()) return Status::OK();
  return WriteFileAtomic(SegmentPath(generation, index),
                         EncodeSegment(generation, index, payload));
}

Status DeltaLog::WriteManifest(int64_t generation) const {
  return WriteFileAtomic(
      directory_ + "/" + kManifestName,
      EncodeChecksummed(kManifestMagic,
                        StrFormat("%lld", static_cast<long long>(generation))));
}

void DeltaLog::SweepOtherGenerationsLocked(int64_t keep_generation) {
  std::vector<std::string> files;
  if (!ListDirectoryFiles(directory_, &files).ok()) return;  // best-effort
  bool removed_any = false;
  for (const std::string& name : files) {
    int64_t generation = 0;
    int64_t index = 0;
    if (!ParseSegmentName(name, &generation, &index)) continue;
    // Keep only the adopted base itself: a base adoption resets the chain
    // to empty, so same-generation delta files (possible when a follower
    // re-receives its current generation's base on resync) must go too —
    // a restart would otherwise re-adopt a chain the in-memory state no
    // longer describes.
    if (generation == keep_generation && index == 0) continue;
    if (RemoveFileIfExists(directory_ + "/" + name).ok()) removed_any = true;
  }
  // One directory sync for the whole batch; a failure only delays the
  // retirement to the next sweep or the next Open.
  if (removed_any) SyncDirectory(directory_);
}

Status DeltaLog::AdoptBaseLocked(int64_t new_generation, std::string payload) {
  if (has_base_) ++rebases_;
  generation_ = new_generation;
  base_ = std::move(payload);
  has_base_ = true;
  chain_.clear();
  chain_bytes_ = 0;
  force_rebase_ = false;
  if (directory_.empty()) return Status::OK();
  // The base segment is already durable, and recovery adopts the highest
  // valid base regardless of the manifest — so a manifest failure here
  // cannot lose the capture, only the fast-path breadcrumb. Old-generation
  // files are retired after the manifest flips, never before.
  Status manifest = WriteManifest(new_generation);
  SweepOtherGenerationsLocked(new_generation);
  return manifest;
}

Status DeltaLog::Open() {
  if (directory_.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  if (opened_) {
    return Status::FailedPrecondition("delta log is already open");
  }
  FKC_RETURN_IF_ERROR(EnsureDirectory(directory_));
  std::vector<std::string> files;
  FKC_RETURN_IF_ERROR(ListDirectoryFiles(directory_, &files));

  // Partition the directory: parsable segment names by (generation,
  // index), everything else (temp debris from a kill mid-publish,
  // unparsable names) is sweepable.
  std::map<int64_t, std::map<int64_t, std::string>> segments;
  std::vector<std::string> debris;
  bool manifest_present = false;
  for (const std::string& name : files) {
    if (name == kManifestName) {
      manifest_present = true;
      continue;
    }
    int64_t generation = 0;
    int64_t index = 0;
    if (ParseSegmentName(name, &generation, &index)) {
      segments[generation][index] = name;
    } else {
      debris.push_back(name);
    }
  }

  // The manifest is advisory; read it only to know whether it needs a
  // rebuild once the scan has decided.
  int64_t manifest_generation = -1;
  if (manifest_present) {
    std::string file;
    std::string body;
    if (ReadFileToString(directory_ + "/" + kManifestName, &file).ok() &&
        DecodeChecksummed(kManifestMagic, file, &body).ok()) {
      char* end = nullptr;
      const long long parsed = std::strtoll(body.c_str(), &end, 10);
      if (end != body.c_str() && *end == '\0' && parsed >= 1) {
        manifest_generation = parsed;
      }
    }
  }

  // Adopt the HIGHEST generation whose base decodes. A generation whose
  // base is torn is unusable no matter what deltas follow — fall through
  // to the previous one (present only when a crash interrupted a re-base
  // before its retirement sweep, which is exactly when falling back is
  // correct).
  std::vector<std::string> doomed;  // corrupt/orphan files to delete
  for (auto gen_it = segments.rbegin(); gen_it != segments.rend(); ++gen_it) {
    const int64_t generation = gen_it->first;
    auto& by_index = gen_it->second;
    auto base_it = by_index.find(0);
    if (base_it == by_index.end()) continue;  // base never published
    std::string file;
    if (!ReadFileToString(directory_ + "/" + base_it->second, &file).ok()) {
      // Unreadable (not provably corrupt): skip this generation without
      // deleting anything — a transient read failure must not destroy
      // the only copy.
      continue;
    }
    std::string payload;
    if (!DecodeSegment(file, generation, 0, &payload).ok()) {
      ++recovery_stats_.truncated_segments;
      doomed.push_back(base_it->second);
      continue;
    }
    // Base adopted; walk the chain and truncate at the first hole or
    // corrupt segment.
    generation_ = generation;
    has_base_ = true;
    base_ = std::move(payload);
    for (int64_t index = 1;; ++index) {
      auto seg_it = by_index.find(index);
      if (seg_it == by_index.end()) break;  // end of the published chain
      std::string seg_file;
      std::string seg_payload;
      if (!ReadFileToString(directory_ + "/" + seg_it->second, &seg_file)
               .ok() ||
          !DecodeSegment(seg_file, generation, index, &seg_payload).ok()) {
        // Torn tail: drop this segment and everything past it (orphans
        // behind a gap are unreachable by replay) and continue from the
        // surviving prefix.
        for (auto tail = seg_it; tail != by_index.end(); ++tail) {
          ++recovery_stats_.truncated_segments;
          doomed.push_back(tail->second);
        }
        break;
      }
      chain_bytes_ += static_cast<int64_t>(seg_payload.size());
      chain_.push_back(std::move(seg_payload));
    }
    break;
  }

  if (has_base_) {
    recovery_stats_.recovered_entries =
        1 + static_cast<int64_t>(chain_.size());
    // Retire every other generation's files (stale or too new to use).
    for (const auto& [generation, by_index] : segments) {
      if (generation == generation_) continue;
      for (const auto& [index, name] : by_index) {
        ++recovery_stats_.swept_files;
        doomed.push_back(name);
      }
    }
  }
  for (const std::string& name : debris) {
    ++recovery_stats_.swept_files;
    doomed.push_back(name);
  }
  bool removed_any = false;
  for (const std::string& name : doomed) {
    if (RemoveFileIfExists(directory_ + "/" + name).ok()) removed_any = true;
  }
  if (removed_any) SyncDirectory(directory_);

  if (has_base_ && manifest_generation != generation_) {
    recovery_stats_.manifest_rebuilt = true;
    WriteManifest(generation_);  // best-effort: advisory only
  } else if (!has_base_ && manifest_present) {
    // A manifest with no recoverable generation behind it only misleads.
    recovery_stats_.manifest_rebuilt = true;
    RemoveFileDurable(directory_ + "/" + kManifestName);
  }

  opened_ = true;
  return Status::OK();
}

Result<DeltaLog::CaptureStats> DeltaLog::Capture(ShardManager* manager) {
  // The log's own mutex guards only log state; the manager calls below are
  // epoch snapshots with their own locking, so holding mu_ across them
  // never blocks the manager's ingest or query paths (they take no lock of
  // ours) and cannot invert against the manager's fleet/shard order.
  std::lock_guard<std::mutex> lock(mu_);
  FKC_RETURN_IF_ERROR(OpenedLocked());
  CaptureStats stats;

  // Over-budget chains re-base instead of appending: replay cost and log
  // size stay bounded no matter how long the fleet runs.
  const bool rebase =
      !has_base_ || force_rebase_ ||
      static_cast<int64_t>(chain_.size()) >= options_.max_chain_length ||
      chain_bytes_ >= options_.max_chain_bytes;
  if (rebase) {
    auto full = manager->CheckpointAll();
    if (!full.ok()) return full.status();
    const int64_t new_generation = generation_ + 1;
    // Publish before adopting: a kill after this line recovers the new
    // generation, a kill before it recovers the old one — never neither.
    FKC_RETURN_IF_ERROR(PersistLocked(new_generation, 0, full.value()));
    stats.rebased = true;
    stats.bytes = full.value().size();
    FKC_RETURN_IF_ERROR(
        AdoptBaseLocked(new_generation, std::move(full).value()));
  } else {
    auto delta = manager->CheckpointDelta();
    if (!delta.ok()) return delta.status();
    const int64_t index = static_cast<int64_t>(chain_.size()) + 1;
    Status published = PersistLocked(generation_, index, delta.value());
    if (!published.ok()) {
      // CheckpointDelta already consumed the dirty bits, so these bytes
      // exist nowhere durable. Do NOT adopt them in memory (memory and
      // disk must describe the same chain); force the next Capture to
      // re-base, which re-ships the full fleet including these changes.
      force_rebase_ = true;
      return published;
    }
    stats.bytes = delta.value().size();
    chain_bytes_ += static_cast<int64_t>(delta.value().size());
    chain_.push_back(std::move(delta).value());
  }
  stats.chain_length = chain_.size();
  return stats;
}

Status DeltaLog::AppendBase(int64_t generation, const std::string& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  FKC_RETURN_IF_ERROR(OpenedLocked());
  if (generation < 1) {
    return Status::InvalidArgument("generation numbers start at 1");
  }
  FKC_RETURN_IF_ERROR(PersistLocked(generation, 0, payload));
  return AdoptBaseLocked(generation, payload);
}

Status DeltaLog::AppendDelta(int64_t generation, int64_t index,
                             const std::string& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  FKC_RETURN_IF_ERROR(OpenedLocked());
  if (!has_base_ || generation != generation_ ||
      index != static_cast<int64_t>(chain_.size()) + 1) {
    return Status::FailedPrecondition(StrFormat(
        "out-of-order append (%lld,%lld) onto generation %lld with %zu "
        "deltas — resync from the base instead",
        static_cast<long long>(generation), static_cast<long long>(index),
        static_cast<long long>(generation_), chain_.size()));
  }
  FKC_RETURN_IF_ERROR(PersistLocked(generation, index, payload));
  chain_bytes_ += static_cast<int64_t>(payload.size());
  chain_.push_back(payload);
  return Status::OK();
}

Result<ShardManager> DeltaLog::Replay(
    const Metric* metric, const FairCenterSolver* solver, int num_threads,
    int64_t max_live_shards, std::shared_ptr<SpillStore> spill_store) const {
  std::lock_guard<std::mutex> lock(mu_);
  FKC_RETURN_IF_ERROR(OpenedLocked());
  if (!has_base_) {
    return Status::FailedPrecondition("delta log has no base checkpoint yet");
  }
  auto manager =
      ShardManager::Restore(base_, metric, solver, num_threads,
                            max_live_shards, std::move(spill_store));
  if (!manager.ok()) return manager.status();
  for (const std::string& delta : chain_) {
    FKC_RETURN_IF_ERROR(manager.value().ApplyDelta(delta));
  }
  return manager;
}

std::vector<DeltaLog::Entry> DeltaLog::EntriesFrom(int64_t generation,
                                                   int64_t from_index) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> entries;
  if (!opened_ || !has_base_) return entries;
  int64_t start = from_index;
  if (generation != generation_ || start < 0 ||
      start > static_cast<int64_t>(chain_.size()) + 1) {
    start = 0;  // resync from the base
  }
  if (start == 0) {
    entries.push_back(Entry{generation_, 0, base_});
    start = 1;
  }
  for (int64_t index = start;
       index <= static_cast<int64_t>(chain_.size()); ++index) {
    entries.push_back(
        Entry{generation_, index, chain_[static_cast<size_t>(index - 1)]});
  }
  return entries;
}

bool DeltaLog::has_base() const {
  std::lock_guard<std::mutex> lock(mu_);
  return has_base_;
}

size_t DeltaLog::base_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_.size();
}

int64_t DeltaLog::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

size_t DeltaLog::chain_length() const {
  std::lock_guard<std::mutex> lock(mu_);
  return chain_.size();
}

int64_t DeltaLog::chain_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return chain_bytes_;
}

int64_t DeltaLog::rebases() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rebases_;
}

DeltaLog::RecoveryStats DeltaLog::recovery_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovery_stats_;
}

}  // namespace serving
}  // namespace fkc
