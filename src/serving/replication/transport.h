// Leader -> follower streaming of a DeltaLog (serving/delta_log.h —
// usually directory-backed on the leader, so the leader itself is
// crash-safe) over a length-prefixed unix-socket or localhost-TCP
// connection (wire_format.h frames).
//
//   LogSender    runs on the leader: listens, and per accepted follower
//                streams the log — resync-from-base when the follower's
//                HELLO names a stale position, tail-of-chain otherwise —
//                plus heartbeats carrying the leader's position while the
//                log is idle. Sends are bounded by a timeout (a stuck
//                follower is disconnected, never blocks the leader), and
//                every outgoing frame can be routed through a
//                FaultInjector for the partition-and-resync suites.
//   LogReceiver  runs on a follower: maintains one connection (reconnect
//                with capped exponential backoff + seeded jitter), applies
//                BASE frames via ShardManager::Restore and DELTA frames
//                via ApplyDelta, answers QueryAll/CheckpointAll from the
//                replica for read scale-out, and reports a staleness bound
//                (entries behind the leader's last announced position).
//                Any framing damage — bad magic, failed checksum, an
//                index gap from a dropped frame, heartbeat silence — drops
//                the connection; the next connect's HELLO lets the leader
//                decide between tailing and a full resync. Optionally
//                persists every applied entry into the follower's own
//                directory-backed DeltaLog, making the replica itself
//                crash-safe.
//
// POSIX-only (sockets + poll); on _WIN32 both Start() calls return
// kUnimplemented. Thread model: the sender owns one accept thread plus one
// thread per follower connection; the receiver owns one connect/apply
// thread. Stop() (and the destructors) join everything.
#ifndef FKC_SERVING_REPLICATION_TRANSPORT_H_
#define FKC_SERVING_REPLICATION_TRANSPORT_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "serving/delta_log.h"
#include "serving/replication/fault_injector.h"
#include "serving/replication/wire_format.h"
#include "serving/shard_manager.h"

namespace fkc {
namespace serving {

/// Lifetime transport counters (monotone snapshots; volatile under
/// concurrency — gauges for tests and dashboards, not perf gates).
struct SenderStats {
  int64_t connections_accepted = 0;
  int64_t frames_sent = 0;      ///< delivered to the socket (incl. corrupt)
  int64_t heartbeats_sent = 0;
  int64_t resyncs_served = 0;   ///< connections answered with a full base
  int64_t send_errors = 0;      ///< timeouts + socket errors (conn dropped)
};

struct ReceiverStats {
  int64_t connects = 0;         ///< successful connections (first + re-)
  int64_t frames_received = 0;
  int64_t heartbeats_received = 0;
  int64_t bases_applied = 0;    ///< full resyncs absorbed
  int64_t deltas_applied = 0;
  int64_t decode_errors = 0;    ///< bad magic/checksum/gap -> reconnect
  int64_t gap_resyncs = 0;      ///< idle-link heartbeat proved a dropped tail
};

class LogSender {
 public:
  struct Options {
    /// Listen on this unix socket path when non-empty (the path is
    /// unlinked first; paths must fit sockaddr_un, ~100 bytes)…
    std::string unix_socket_path;
    /// …else on 127.0.0.1:tcp_port (0 = ephemeral; see port()).
    int tcp_port = 0;

    /// Leader position announcement cadence while the log is idle.
    std::chrono::milliseconds heartbeat_interval{100};
    /// Bound on one frame write: a follower stuck longer is disconnected
    /// (it reconnects and resyncs) so a slow consumer never wedges the
    /// leader's sender thread.
    std::chrono::milliseconds send_timeout{2000};
    /// How often a connection re-checks the log for new entries.
    std::chrono::milliseconds poll_interval{5};

    /// When set, every outgoing frame is routed through the injector's
    /// seeded drop/corrupt/truncate/delay schedule. Must outlive the
    /// sender.
    FaultInjector* fault_injector = nullptr;
  };

  /// `log` must outlive the sender; a directory-backed one must be
  /// Open()ed by the caller.
  LogSender(const DeltaLog* log, Options options);
  ~LogSender();  ///< Stop()s

  LogSender(const LogSender&) = delete;
  LogSender& operator=(const LogSender&) = delete;

  /// Binds, listens, and starts the accept thread. kFailedPrecondition if
  /// already started, kIoError when the address cannot be bound.
  Status Start();
  /// Joins the accept thread and every connection thread; idempotent.
  void Stop();

  /// The TCP port actually bound (after an ephemeral bind), 0 for unix
  /// sockets or before Start().
  int port() const;
  SenderStats stats() const;

 private:
  struct Connection;

  void AcceptLoop();
  void ServeConnection(Connection* connection);
  /// Encodes + (fault-injected) sends one frame within send_timeout.
  Status SendFrame(int fd, const Frame& frame);

  const DeltaLog* log_;
  const Options options_;

  mutable std::mutex mu_;
  bool started_ = false;
  bool stopping_ = false;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::vector<std::unique_ptr<Connection>> connections_;
  SenderStats stats_;
};

class LogReceiver {
 public:
  struct Options {
    /// Connect to this unix socket path when non-empty…
    std::string unix_socket_path;
    /// …else to 127.0.0.1:tcp_port.
    int tcp_port = 0;

    /// Max silence (no frame, not even a heartbeat) before the connection
    /// is presumed partitioned and re-dialed. Must exceed the sender's
    /// heartbeat_interval with margin.
    std::chrono::milliseconds receive_timeout{2000};

    /// Reconnect backoff: capped exponential with seeded jitter — attempt
    /// k sleeps uniform[0.5, 1) * min(initial_backoff * 2^k, max_backoff).
    std::chrono::milliseconds initial_backoff{10};
    std::chrono::milliseconds max_backoff{1000};
    uint64_t backoff_seed = 42;

    /// Execution/resource knobs of the replica fleet (as
    /// ShardManager::Restore).
    int num_threads = 1;
    int64_t max_live_shards = 0;
    std::shared_ptr<SpillStore> spill_store;

    /// When set, every applied BASE/DELTA is also AppendBase/AppendDelta'd
    /// into this log; with a directory (caller-Open()ed) the follower
    /// itself restarts from disk. Must outlive the receiver.
    DeltaLog* local_log = nullptr;
  };

  /// How far behind the leader this replica may be. `entries_behind`
  /// counts capture entries (deltas, plus the base on a pending resync)
  /// the leader has announced but the replica has not applied — an upper
  /// bound on the replica's staleness as of the last frame heard; 0 with
  /// `connected` means "caught up as of the last heartbeat".
  struct StalenessBound {
    bool connected = false;
    bool has_fleet = false;         ///< a base has been applied
    int64_t applied_generation = 0;
    int64_t applied_entries = 0;    ///< base + deltas applied (this gen)
    int64_t leader_generation = 0;  ///< last announced leader position
    int64_t leader_entries = 0;
    int64_t entries_behind = 0;
  };

  /// `metric`/`solver` must outlive the receiver (shared by every restored
  /// replica fleet, like ShardManager's).
  LogReceiver(const Metric* metric, const FairCenterSolver* solver,
              Options options);
  ~LogReceiver();  ///< Stop()s

  LogReceiver(const LogReceiver&) = delete;
  LogReceiver& operator=(const LogReceiver&) = delete;

  /// Starts the connect/apply thread. kFailedPrecondition if already
  /// started.
  Status Start();
  /// Joins the thread; idempotent.
  void Stop();

  /// Read scale-out: answers from the replica fleet (empty before the
  /// first base arrives). The staleness bound says how stale the answers
  /// may be.
  std::vector<ShardAnswer> QueryAll();
  /// The replica fleet's checkpoint — byte-equal to the leader's once the
  /// staleness bound reaches 0 (the convergence assertion of the
  /// fault-injection suite). kFailedPrecondition before the first base.
  Result<std::string> CheckpointAll();
  std::vector<std::string> Keys() const;

  StalenessBound staleness() const;
  ReceiverStats stats() const;

 private:
  void RunLoop();
  int Connect();  ///< -1 on failure
  /// One connected session: HELLO, then apply frames until damage/stop.
  void DrainConnection(int fd);
  std::chrono::milliseconds NextBackoff(int attempt);
  /// Interruptible sleep (wakes early on Stop).
  void SleepInterruptible(std::chrono::milliseconds duration);

  const Metric* metric_;
  const FairCenterSolver* solver_;
  const Options options_;

  mutable std::mutex mu_;  ///< guards everything below + the replica fleet
  std::condition_variable stop_cv_;
  bool started_ = false;
  bool stopping_ = false;
  int active_fd_ = -1;  ///< shut down by Stop() to unblock a mid-read loop
  std::thread thread_;
  std::unique_ptr<ShardManager> fleet_;
  Rng backoff_rng_;
  StalenessBound staleness_;
  ReceiverStats stats_;
};

}  // namespace serving
}  // namespace fkc

#endif  // FKC_SERVING_REPLICATION_TRANSPORT_H_
