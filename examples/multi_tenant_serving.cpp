// Multi-tenant serving: one process keeping an independent fair-center
// sliding window per tenant, served through the ShardManager front-end.
//
// A fleet of tenants (think: one sensor deployment per customer) streams
// readings tagged with a tenant key. The manager routes every arrival to its
// tenant's shard, fans ingest batches and query rounds out over a shared
// thread pool, and checkpoints the whole fleet into one blob. The example
// demonstrates the full serving lifecycle:
//
//   1. register a per-tenant options override (one tenant runs a smaller
//      window than the fleet template), then route + ingest a keyed
//      stream across N tenants,
//   2. serve a QueryAll fan-out (one fair summary per tenant),
//   3. kill/restore: checkpoint every shard, rebuild the manager from the
//      blob, and verify the restored fleet answers identically,
//   4. keep ingesting into the restored fleet (business as usual),
//   5. spill idle tenants with EvictIdle and watch a spilled tenant answer
//      anyway (ephemeral in QueryAll, transparently rehydrated on Query),
//   6. replicate incrementally: a follower restored from the step-3 blob
//      catches up to the leader by applying one CheckpointDelta — a small
//      fraction of the full blob — and answers identically,
//   7. go durable and hands-off: a fleet whose evicted shards spill to
//      disk (FileSpillStore), with the background maintenance thread
//      running the eviction sweep, DeltaLog capture, and spill GC on a
//      cadence — then replay the log and verify the replayed fleet
//      answers identically,
//   8. serve concurrent clients: one ingest thread per tenant plus a
//      dashboard thread running QueryAll rounds, all against one manager
//      at once (striped routing + per-shard locking mean the tenants
//      never contend with each other and the dashboard never stalls
//      ingest) — then verify the concurrently-built fleet checkpoints
//      byte-identically to a serially-built one. --stripes picks the
//      routing-stripe count (0 = auto-size to the hardware); like
//      --threads it is an execution knob — answers and checkpoint bytes
//      are identical at every value,
//   9. survive a SIGKILL: the leader captures every tranche into a
//      directory-backed DeltaLog while a LogSender streams it over a unix
//      socket to a fault-injected follower (frames dropped, corrupted,
//      and truncated on a seeded schedule) that still converges to a
//      byte-equal checkpoint — then the leader "dies" and a fresh process
//      image reconstructs the whole fleet purely from the on-disk log.
//
// The replication phase doubles as the CI kill-and-recover smoke:
// --replication_only runs phase 9 alone (slowly, so a SIGKILL lands
// mid-stream) against --replication_log_dir, and --recover_only restarts
// from whatever that kill left on disk — torn tail included — and
// verifies the recovered fleet.
//
//   multi_tenant_serving [--tenants=4] [--threads=0] [--stripes=0]
//                        [--batch=32] [--window=1000] [--points=12000]
//                        [--spill_dir=<tmp>] [--replication_log_dir=<tmp>]
//                        [--replication_only] [--recover_only]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/string_util.h"
#include "datasets/phones_sim.h"
#include "matroid/color_constraint.h"
#include "metric/metric.h"
#include "sequential/jones_fair_center.h"
#include "serving/delta_log.h"
#include "serving/replication/fault_injector.h"
#include "serving/replication/transport.h"
#include "serving/shard_manager.h"
#include "serving/spill_store.h"

namespace {

bool SameSolution(const fkc::ObjectiveSolution& a,
                  const fkc::ObjectiveSolution& b) {
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

void PrintAnswers(const std::vector<fkc::serving::ShardAnswer>& answers) {
  for (const auto& answer : answers) {
    if (!answer.solution.ok()) {
      std::printf("  %-10s <error: %s>\n", answer.key.c_str(),
                  answer.solution.status().ToString().c_str());
      continue;
    }
    std::printf("  %-10s value=%8.3f centers=%2zu coreset=%3lld guess=%.3f\n",
                answer.key.c_str(), answer.solution.value().value,
                answer.solution.value().centers.size(),
                static_cast<long long>(answer.stats.coreset_size),
                answer.stats.guess);
  }
}

bool SameAnswers(const std::vector<fkc::serving::ShardAnswer>& a,
                 const std::vector<fkc::serving::ShardAnswer>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].solution.ok() != b[i].solution.ok() ||
        (a[i].solution.ok() &&
         !SameSolution(a[i].solution.value(), b[i].solution.value()))) {
      return false;
    }
  }
  return true;
}

// --recover_only: the restarted leader. Everything it knows comes from the
// log directory the kill left behind — possibly with a torn tail, which
// recovery truncates back to the last intact capture.
int RunRecovery(const std::string& log_dir, const fkc::EuclideanMetric& metric,
                const fkc::JonesFairCenter& jones, int num_threads) {
  fkc::serving::DeltaLog log(log_dir);
  auto opened = log.Open();
  if (!opened.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n", opened.ToString().c_str());
    return 1;
  }
  const auto stats = log.recovery_stats();
  std::printf("recovered log: generation %lld, %lld entries (%lld torn "
              "segments truncated, %lld stale files swept)\n",
              static_cast<long long>(log.generation()),
              static_cast<long long>(stats.recovered_entries),
              static_cast<long long>(stats.truncated_segments),
              static_cast<long long>(stats.swept_files));
  if (!log.has_base()) {
    std::fprintf(stderr, "nothing to recover: the log has no base\n");
    return 1;
  }
  auto replayed = log.Replay(&metric, &jones, num_threads);
  if (!replayed.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 replayed.status().ToString().c_str());
    return 1;
  }
  std::printf("replayed fleet (%zu shards):\n", replayed.value().shard_count());
  PrintAnswers(replayed.value().QueryAll());
  // Replay is deterministic: a second replay must checkpoint byte-equal.
  auto again = log.Replay(&metric, &jones, num_threads);
  auto first_blob = replayed.value().CheckpointAll();
  auto second_blob = again.ok() ? again.value().CheckpointAll()
                                : fkc::Result<std::string>(again.status());
  const bool deterministic = first_blob.ok() && second_blob.ok() &&
                             first_blob.value() == second_blob.value();
  std::printf("recovered checkpoint: %zu bytes; independent replay %s\n",
              first_blob.ok() ? first_blob.value().size() : size_t{0},
              deterministic ? "MATCHES" : "DIFFERS (bug!)");
  return deterministic ? 0 : 1;
}

// Phase 9 (and, with endless=true, the --replication_only kill target):
// crash-safe captures + wire replication to a fault-injected follower.
int RunReplicationPhase(const std::string& log_dir,
                        const fkc::EuclideanMetric& metric,
                        const fkc::JonesFairCenter& jones,
                        const fkc::ColorConstraint& constraint,
                        const fkc::serving::ShardManagerOptions& options,
                        const std::vector<fkc::Point>& trace,
                        const std::vector<std::string>& keys, int64_t batch,
                        bool endless) {
  namespace srv = fkc::serving;
  std::error_code cleanup;
  std::filesystem::remove_all(log_dir, cleanup);  // fresh leader log

  srv::ShardManager leader(options, constraint, &metric, &jones);
  srv::DeltaLog log(log_dir);
  auto opened = log.Open();
  if (!opened.ok()) {
    std::fprintf(stderr, "log open failed: %s\n", opened.ToString().c_str());
    return 1;
  }

  // The follower's link misbehaves on a seeded, budget-bounded schedule:
  // once the budget is spent every frame delivers, so convergence is
  // guaranteed, not lucky.
  srv::FaultInjector::Options fault_options;
  fault_options.seed = 2024;
  fault_options.drop_prob = 0.3;
  fault_options.corrupt_prob = 0.2;
  fault_options.truncate_prob = 0.1;
  fault_options.max_faults = 8;
  srv::FaultInjector injector(fault_options);

  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       fkc::StrFormat("fkc_mts_%lld.sock",
                      static_cast<long long>(
                          std::chrono::steady_clock::now().time_since_epoch()
                              .count() %
                          1000000)))
          .string();
  srv::LogSender::Options sender_options;
  sender_options.unix_socket_path = socket_path;
  sender_options.heartbeat_interval = std::chrono::milliseconds(20);
  sender_options.fault_injector = &injector;
  srv::LogSender sender(&log, sender_options);
  auto sender_started = sender.Start();
  if (!sender_started.ok()) {
    std::fprintf(stderr, "sender start failed: %s\n",
                 sender_started.ToString().c_str());
    return 1;
  }
  srv::LogReceiver::Options receiver_options;
  receiver_options.unix_socket_path = socket_path;
  receiver_options.receive_timeout = std::chrono::milliseconds(500);
  receiver_options.initial_backoff = std::chrono::milliseconds(5);
  receiver_options.max_backoff = std::chrono::milliseconds(100);
  srv::LogReceiver receiver(&metric, &jones, receiver_options);
  auto receiver_started = receiver.Start();
  if (!receiver_started.ok()) {
    std::fprintf(stderr, "receiver start failed: %s\n",
                 receiver_started.ToString().c_str());
    return 1;
  }

  // Stream in tranches, capturing after each. In --replication_only mode
  // the tranches are slowed down so an external SIGKILL reliably lands
  // mid-stream (the CI smoke polls for the MANIFEST, then kills).
  const int64_t tranches = endless ? 200 : 6;
  const int64_t tranche_points =
      std::max<int64_t>(static_cast<int64_t>(trace.size()) / 6, 1);
  std::vector<srv::KeyedPoint> pending;
  for (int64_t tranche = 0; tranche < tranches; ++tranche) {
    for (int64_t i = 0; i < tranche_points; ++i) {
      const size_t t = static_cast<size_t>(
          (tranche * tranche_points + i) % static_cast<int64_t>(trace.size()));
      pending.push_back({keys[t % keys.size()], trace[t]});
      if (static_cast<int64_t>(pending.size()) >= batch) {
        auto ingest_status = leader.IngestBatch(std::move(pending));
        pending = {};
        if (!ingest_status.ok()) {
          std::fprintf(stderr, "ingest failed: %s\n",
                       ingest_status.ToString().c_str());
          return 1;
        }
      }
    }
    if (!pending.empty()) {
      auto ingest_status = leader.IngestBatch(std::move(pending));
      pending = {};
      if (!ingest_status.ok()) {
        std::fprintf(stderr, "ingest failed: %s\n",
                     ingest_status.ToString().c_str());
        return 1;
      }
    }
    auto captured = log.Capture(&leader);
    if (!captured.ok()) {
      std::fprintf(stderr, "capture failed: %s\n",
                   captured.status().ToString().c_str());
      return 1;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(endless ? 50 : 5));
  }

  // Wait for the follower to drain the chain despite the fault schedule.
  const int64_t want_entries = 1 + static_cast<int64_t>(log.chain_length());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  srv::LogReceiver::StalenessBound bound;
  do {
    bound = receiver.staleness();
    if (bound.has_fleet && bound.entries_behind == 0 &&
        bound.applied_entries == want_entries) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  } while (std::chrono::steady_clock::now() < deadline);

  const auto counters = injector.counters();
  std::printf(
      "\nreplication: generation %lld, %zu chained deltas; follower applied "
      "%lld/%lld entries (staleness bound %lld), surviving %lld dropped + "
      "%lld corrupted + %lld truncated frames over %lld connects (%lld "
      "resyncs served)\n",
      static_cast<long long>(log.generation()), log.chain_length(),
      static_cast<long long>(bound.applied_entries),
      static_cast<long long>(want_entries),
      static_cast<long long>(bound.entries_behind),
      static_cast<long long>(counters.frames_dropped),
      static_cast<long long>(counters.frames_corrupted),
      static_cast<long long>(counters.frames_truncated),
      static_cast<long long>(receiver.stats().connects),
      static_cast<long long>(sender.stats().resyncs_served));
  if (bound.entries_behind != 0 || bound.applied_entries != want_entries) {
    std::fprintf(stderr, "follower never converged\n");
    return 1;
  }

  // Byte-equal convergence: both sides replay/checkpoint their own view.
  auto leader_fleet = log.Replay(&metric, &jones, options.num_threads);
  auto leader_blob = leader_fleet.ok()
                         ? leader_fleet.value().CheckpointAll()
                         : fkc::Result<std::string>(leader_fleet.status());
  auto follower_blob = receiver.CheckpointAll();
  const bool converged = leader_blob.ok() && follower_blob.ok() &&
                         leader_blob.value() == follower_blob.value();
  std::printf("follower checkpoint %s the leader's (%zu bytes)\n",
              converged ? "MATCHES" : "DIFFERS FROM (bug!)",
              leader_blob.ok() ? leader_blob.value().size() : size_t{0});
  receiver.Stop();
  sender.Stop();
  if (!converged) return 1;

  // Simulated SIGKILL: a second process image knows nothing but the
  // directory. Reconstruct and compare answers with the (still live
  // here, conveniently) leader.
  srv::DeltaLog risen(log_dir);
  if (!risen.Open().ok()) return 1;
  auto recovered = risen.Replay(&metric, &jones, options.num_threads);
  if (!recovered.ok()) {
    std::fprintf(stderr, "recovery replay failed: %s\n",
                 recovered.status().ToString().c_str());
    return 1;
  }
  const bool recovered_identical =
      SameAnswers(leader.QueryAll(), recovered.value().QueryAll());
  std::printf("fleet recovered from the on-disk log answers %s\n",
              recovered_identical ? "IDENTICALLY" : "DIFFERENTLY (bug!)");
  return recovered_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t tenants = 4;
  int64_t threads = 0;  // all hardware threads
  int64_t stripes = 0;  // auto-size the routing stripes
  int64_t batch = 32;
  int64_t window = 1000;
  int64_t points = 12000;
  std::string spill_dir;
  std::string replication_log_dir;
  std::string objective = "fair-center";
  bool replication_only = false;
  bool recover_only = false;

  fkc::FlagParser flags;
  flags.AddInt64("tenants", &tenants, "number of tenant shards");
  fkc::AddThreadsFlag(&flags, &threads);
  flags.AddInt64("stripes", &stripes,
                 "routing stripes of the shard map (0 = auto; rounded up "
                 "to a power of two)");
  flags.AddInt64("batch", &batch, "keyed arrivals per IngestBatch");
  flags.AddInt64("window", &window, "per-tenant window size");
  flags.AddInt64("points", &points, "total arrivals across all tenants");
  flags.AddString("objective", &objective,
                  "fleet-default clustering objective: fair-center or "
                  "k-median (per-tenant overrides still apply)");
  flags.AddString("spill_dir", &spill_dir,
                  "directory for the durable-spill phase (default: a "
                  "fresh ./multi_tenant_spill, removed afterwards)");
  flags.AddString("replication_log_dir", &replication_log_dir,
                  "directory for the replication phase's crash-safe log "
                  "(default: a fresh ./multi_tenant_replog, removed "
                  "afterwards)");
  flags.AddBool("replication_only", &replication_only,
                "run only the replication phase, slowed down so an external "
                "SIGKILL lands mid-stream (the CI kill-and-recover smoke)");
  flags.AddBool("recover_only", &recover_only,
                "restart from --replication_log_dir: recover the log (torn "
                "tail included), replay, and verify — no ingest at all");
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

  // Delete only a directory this run invented — never a user-supplied
  // path, which may pre-exist and hold foreign files. (--recover_only
  // deletes nothing: its whole input is what the kill left behind.)
  const bool owns_replication_dir = replication_log_dir.empty();
  if (owns_replication_dir) replication_log_dir = "multi_tenant_replog";

  if (recover_only) {
    return RunRecovery(replication_log_dir, metric, jones,
                       fkc::ResolveThreadCount(threads));
  }

  fkc::datasets::PhonesSimOptions data_options;
  data_options.num_points = points;
  const std::vector<fkc::Point> trace =
      fkc::datasets::GeneratePhonesSim(data_options);
  const fkc::ColorConstraint constraint =
      fkc::ColorConstraint::Proportional(trace, data_options.ell, 14);

  fkc::serving::ShardManagerOptions options;
  auto objective_kind = fkc::ParseObjectiveTag(objective);
  if (!objective_kind.ok()) {
    std::fprintf(stderr, "%s\n",
                 objective_kind.status().ToString().c_str());
    return 1;
  }
  options.objective = objective_kind.value();
  options.window.window_size = window;
  options.window.delta = 1.0;
  options.window.adaptive_range = true;  // tenant scales unknown a priori
  options.num_threads = fkc::ResolveThreadCount(threads);
  options.num_stripes = static_cast<int>(stripes);
  fkc::serving::ShardManager manager(options, constraint, &metric, &jones);

  std::vector<std::string> keys;
  for (int64_t s = 0; s < tenants; ++s) {
    keys.push_back(fkc::StrFormat("tenant-%02lld", static_cast<long long>(s)));
  }

  if (replication_only) {
    // The kill target: leave the log directory behind for --recover_only.
    return RunReplicationPhase(replication_log_dir, metric, jones, constraint,
                               options, trace, keys, batch, /*endless=*/true);
  }

  // --- 1. One tenant deviates from the fleet template: a quarter-size
  // window, registered before its first arrival and carried through every
  // checkpoint from here on. ---
  fkc::SlidingWindowOptions small = options.window;
  small.window_size = std::max<int64_t>(window / 4, 1);
  auto override_status = manager.SetTenantOptions(keys[0], small);
  if (!override_status.ok()) {
    std::fprintf(stderr, "override failed: %s\n",
                 override_status.ToString().c_str());
    return 1;
  }
  std::printf("override: %s runs window=%lld (fleet template %lld)\n\n",
              keys[0].c_str(), static_cast<long long>(small.window_size),
              static_cast<long long>(window));

  // The trace is generated clean, so a rejected arrival here is a bug in
  // the example itself — fail loudly instead of demoing an empty fleet.
  const auto must_ingest = [](const fkc::Status& ingest_status) {
    if (!ingest_status.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n",
                   ingest_status.ToString().c_str());
      std::exit(1);
    }
  };

  // --- Route the keyed stream, batched. ---
  std::vector<fkc::serving::KeyedPoint> pending;
  const int64_t first_phase = points / 2;
  for (int64_t t = 0; t < first_phase; ++t) {
    pending.push_back({keys[t % keys.size()], trace[t]});
    if (static_cast<int64_t>(pending.size()) >= batch) {
      must_ingest(manager.IngestBatch(std::move(pending)));
      pending = {};
    }
  }
  must_ingest(manager.IngestBatch(std::move(pending)));
  pending = {};

  // --- 2. Serve a fan-out query round. ---
  std::printf("fleet after %lld arrivals over %zu tenants (%lld pts stored):\n",
              static_cast<long long>(first_phase), manager.shard_count(),
              static_cast<long long>(manager.TotalMemory().TotalPoints()));
  const auto before = manager.QueryAll();
  PrintAnswers(before);

  // --- 3. Kill/restore cycle. ---
  auto checkpoint = manager.CheckpointAll();
  if (!checkpoint.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n",
                 checkpoint.status().ToString().c_str());
    return 1;
  }
  const std::string blob = std::move(checkpoint).value();
  auto restored = fkc::serving::ShardManager::Restore(
      blob, &metric, &jones, options.num_threads);
  if (!restored.ok()) {
    std::fprintf(stderr, "restore failed: %s\n",
                 restored.status().ToString().c_str());
    return 1;
  }
  auto after = restored.value().QueryAll();
  bool identical = before.size() == after.size();
  for (size_t i = 0; identical && i < before.size(); ++i) {
    identical = before[i].key == after[i].key &&
                before[i].solution.ok() == after[i].solution.ok() &&
                (!before[i].solution.ok() ||
                 SameSolution(before[i].solution.value(),
                              after[i].solution.value()));
  }
  std::printf("\ncheckpoint: %zu bytes for %zu shards; restored fleet answers "
              "%s\n",
              blob.size(), restored.value().shard_count(),
              identical ? "IDENTICALLY" : "DIFFERENTLY (bug!)");
  if (!identical) return 1;

  // --- 4. Business as usual on the restored fleet. ---
  for (int64_t t = first_phase; t < points; ++t) {
    pending.push_back({keys[t % keys.size()], trace[t]});
    if (static_cast<int64_t>(pending.size()) >= batch) {
      must_ingest(restored.value().IngestBatch(std::move(pending)));
      pending = {};
    }
  }
  must_ingest(restored.value().IngestBatch(std::move(pending)));
  pending = {};
  std::printf("\nfleet after %lld more arrivals into the restored manager:\n",
              static_cast<long long>(points - first_phase));
  PrintAnswers(restored.value().QueryAll());

  // --- 5. Idle-tenant eviction: spill everything idle, then watch the
  // spilled fleet keep answering — QueryAll reads spilled shards
  // ephemerally, a targeted Query rehydrates in place. ---
  fkc::serving::ShardManager& leader = restored.value();
  const int64_t evicted = leader.EvictIdle(/*idle_ttl=*/0);
  std::printf("\nEvictIdle(0): spilled %lld of %zu shards (%zu live)\n",
              static_cast<long long>(evicted), leader.shard_count(),
              leader.live_shard_count());
  PrintAnswers(leader.QueryAll());  // ephemeral: spilled shards stay spilled
  // A targeted Query on a spilled tenant rehydrates it in place (the const
  // accessor never rehydrates, so it doubles as a residency probe).
  const fkc::serving::ShardManager& probe = leader;
  std::string spilled_key = keys[0];
  for (const auto& key : keys) {
    if (probe.shard(key) == nullptr) {
      spilled_key = key;
      break;
    }
  }
  fkc::QueryStats stats;
  auto touched = leader.Query(spilled_key, &stats);
  std::printf("Query(%s) rehydrated its shard: %zu live, value=%.3f\n",
              spilled_key.c_str(), leader.live_shard_count(),
              touched.ok() ? touched.value().value : -1.0);

  // --- 6. Incremental replication: the follower (restored from the same
  // step-3 blob) missed the second half of the stream; one delta carries
  // exactly the dirty shards. ---
  auto follower = fkc::serving::ShardManager::Restore(
      blob, &metric, &jones, options.num_threads);
  if (!follower.ok()) {
    std::fprintf(stderr, "follower restore failed: %s\n",
                 follower.status().ToString().c_str());
    return 1;
  }
  auto compare = [&](const char* label, size_t dirty,
                     const std::string& delta) {
    auto applied = follower.value().ApplyDelta(delta);
    if (!applied.ok()) {
      std::fprintf(stderr, "ApplyDelta failed: %s\n",
                   applied.ToString().c_str());
      return false;
    }
    const auto leader_answers = leader.QueryAll();
    const auto follower_answers = follower.value().QueryAll();
    bool caught_up = leader_answers.size() == follower_answers.size();
    for (size_t i = 0; caught_up && i < leader_answers.size(); ++i) {
      caught_up = leader_answers[i].key == follower_answers[i].key &&
                  leader_answers[i].solution.ok() ==
                      follower_answers[i].solution.ok() &&
                  (!leader_answers[i].solution.ok() ||
                   SameSolution(leader_answers[i].solution.value(),
                                follower_answers[i].solution.value()));
    }
    std::printf("%s: %zu-byte delta (%zu dirty shards) vs %zu-byte full "
                "blob; follower answers %s\n",
                label, delta.size(), dirty, blob.size(),
                caught_up ? "IDENTICALLY" : "DIFFERENTLY (bug!)");
    return caught_up;
  };

  // First delta: every tenant took phase-4 arrivals, so it carries the
  // whole fleet. Steady state is different: only one tenant moves before
  // the second delta, which therefore ships one shard.
  std::printf("\n");
  const auto must_delta = [](fkc::Result<std::string> delta) {
    if (!delta.ok()) {
      std::fprintf(stderr, "CheckpointDelta failed: %s\n",
                   delta.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(delta).value();
  };
  size_t dirty = leader.dirty_shard_count();
  std::string delta = must_delta(leader.CheckpointDelta());
  if (!compare("catch-up delta", dirty, delta)) return 1;
  for (int64_t t = 0; t < window / 4; ++t) {
    must_ingest(leader.Ingest(keys[0], trace[static_cast<size_t>(t)]));
  }
  dirty = leader.dirty_shard_count();
  delta = must_delta(leader.CheckpointDelta());
  if (!compare("steady-state delta", dirty, delta)) return 1;

  // --- 7. Durable and hands-off: evicted shards spill to disk, and the
  // background maintenance thread does the sweeping, DeltaLog capture, and
  // spill GC — no maintenance calls in the ingest loop at all. ---
  // Delete only a directory this run invented — never a user-supplied
  // --spill_dir, which may pre-exist and hold foreign files.
  const bool owns_spill_dir = spill_dir.empty();
  if (owns_spill_dir) spill_dir = "multi_tenant_spill";
  fkc::serving::ShardManagerOptions durable_options = options;
  durable_options.max_live_shards = std::max<int64_t>(tenants / 2, 1);
  durable_options.spill_store =
      std::make_shared<fkc::serving::FileSpillStore>(spill_dir);
  fkc::serving::ShardManager durable(durable_options, constraint, &metric,
                                     &jones);
  fkc::serving::DeltaLog log;

  fkc::serving::MaintenanceOptions maintenance;
  maintenance.cadence = std::chrono::milliseconds(5);
  maintenance.idle_ttl = window;  // spill tenants idle for a full window
  maintenance.delta_log = &log;
  maintenance.gc_every = 4;
  auto started = durable.StartMaintenance(maintenance);
  if (!started.ok()) {
    std::fprintf(stderr, "StartMaintenance failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  for (int64_t t = 0; t < points; ++t) {
    pending.push_back({keys[t % keys.size()], trace[t]});
    if (static_cast<int64_t>(pending.size()) >= batch) {
      must_ingest(durable.IngestBatch(std::move(pending)));
      pending = {};
    }
  }
  must_ingest(durable.IngestBatch(std::move(pending)));
  pending = {};
  durable.StopMaintenance();
  // One final capture so the log reflects the last arrivals, then replay
  // the whole log and verify the replayed fleet answers identically.
  auto final_capture = log.Capture(&durable);
  if (!final_capture.ok()) {
    std::fprintf(stderr, "final capture failed: %s\n",
                 final_capture.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "\ndurable fleet: %lld maintenance ticks, %lld evictions (%zu live / "
      "%zu spilled via '%s'), delta log: %zu B base + %lld B over %zu "
      "chained deltas, %lld rebases\n",
      static_cast<long long>(durable.maintenance_ticks()),
      static_cast<long long>(durable.evictions()),
      durable.live_shard_count(), durable.spilled_shard_count(),
      durable.spill_store()->Name(), log.base_bytes(),
      static_cast<long long>(log.chain_bytes()), log.chain_length(),
      static_cast<long long>(log.rebases()));
  auto replayed = log.Replay(&metric, &jones, options.num_threads);
  if (!replayed.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 replayed.status().ToString().c_str());
    return 1;
  }
  const auto durable_answers = durable.QueryAll();
  const auto replayed_answers = replayed.value().QueryAll();
  bool replay_identical = durable_answers.size() == replayed_answers.size();
  for (size_t i = 0; replay_identical && i < durable_answers.size(); ++i) {
    replay_identical =
        durable_answers[i].key == replayed_answers[i].key &&
        durable_answers[i].solution.ok() ==
            replayed_answers[i].solution.ok() &&
        (!durable_answers[i].solution.ok() ||
         SameSolution(durable_answers[i].solution.value(),
                      replayed_answers[i].solution.value()));
  }
  std::printf("replayed fleet answers %s\n",
              replay_identical ? "IDENTICALLY" : "DIFFERENTLY (bug!)");
  if (owns_spill_dir) {
    std::error_code cleanup;  // best-effort
    std::filesystem::remove_all(spill_dir, cleanup);
  }
  if (!replay_identical) return 1;

  // --- 8. Concurrent clients: every tenant ingests from its own thread
  // while a dashboard thread runs fleet scans — no external locking, the
  // manager's per-shard locks carry it. Per-shard state depends only on
  // that tenant's own arrival order, so the result must checkpoint
  // byte-identically to a serially built fleet. ---
  fkc::serving::ShardManager live(options, constraint, &metric, &jones);
  std::atomic<bool> done{false};
  std::atomic<int64_t> scans{0};
  std::thread dashboard([&] {
    while (!done.load(std::memory_order_relaxed)) {
      for (const auto& answer : live.QueryAll()) {
        if (!answer.solution.ok() &&
            answer.solution.status().code() != fkc::StatusCode::kNotFound) {
          std::fprintf(stderr, "dashboard: %s\n",
                       answer.solution.status().ToString().c_str());
          std::exit(1);
        }
      }
      scans.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> clients;
  for (size_t c = 0; c < keys.size(); ++c) {
    clients.emplace_back([&, c] {
      std::vector<fkc::serving::KeyedPoint> chunk;
      for (int64_t t = static_cast<int64_t>(c); t < points;
           t += static_cast<int64_t>(keys.size())) {
        chunk.push_back({keys[c], trace[static_cast<size_t>(t)]});
        if (static_cast<int64_t>(chunk.size()) >= batch) {
          must_ingest(live.IngestBatch(std::move(chunk)));
          chunk = {};
        }
      }
      must_ingest(live.IngestBatch(std::move(chunk)));
    });
  }
  for (auto& client : clients) client.join();
  done.store(true, std::memory_order_relaxed);
  dashboard.join();

  fkc::serving::ShardManager serial(options, constraint, &metric, &jones);
  for (size_t c = 0; c < keys.size(); ++c) {
    for (int64_t t = static_cast<int64_t>(c); t < points;
         t += static_cast<int64_t>(keys.size())) {
      must_ingest(serial.Ingest(keys[c], trace[static_cast<size_t>(t)]));
    }
  }
  auto live_blob = live.CheckpointAll();
  auto serial_blob = serial.CheckpointAll();
  const bool concurrent_identical = live_blob.ok() && serial_blob.ok() &&
                                    live_blob.value() == serial_blob.value();
  std::printf(
      "\nconcurrent serving: %zu client threads + %lld dashboard scans "
      "against one manager (%d routing stripes); checkpoint %s a serially "
      "built fleet's\n",
      keys.size(), static_cast<long long>(scans.load()), live.num_stripes(),
      concurrent_identical ? "MATCHES" : "DIFFERS FROM (bug!)");
  if (!concurrent_identical) return 1;

  // --- 9. Crash-safe replication: leader captures into a durable log, a
  // fault-injected follower converges over the wire, and a SIGKILL'd
  // leader rises again from nothing but the log directory. ---
  const int replication_code =
      RunReplicationPhase(replication_log_dir, metric, jones, constraint,
                          options, trace, keys, batch, /*endless=*/false);
  if (owns_replication_dir) {
    std::error_code cleanup;  // best-effort
    std::filesystem::remove_all(replication_log_dir, cleanup);
  }
  return replication_code;
}
