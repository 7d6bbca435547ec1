#include "serving/replication/transport.h"

#include <utility>

#include "serving/replication/wire_format.h"

#ifndef _WIN32
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace fkc {
namespace serving {

#ifndef _WIN32

namespace {

using Clock = std::chrono::steady_clock;

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IoError("cannot set O_NONBLOCK on socket");
  }
  return Status::OK();
}

// Remaining milliseconds before `deadline` (clamped to >= 0).
int RemainingMs(Clock::time_point deadline) {
  const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return remaining.count() > 0 ? static_cast<int>(remaining.count()) : 0;
}

// Reads exactly `size` bytes from a non-blocking fd, polling for
// readability, within `timeout`. The bounded wait is what turns a silent
// partition into a detected one (the receiver's heartbeat liveness check).
Status ReadFull(int fd, char* buf, size_t size,
                std::chrono::milliseconds timeout) {
  const Clock::time_point deadline = Clock::now() + timeout;
  size_t done = 0;
  while (done < size) {
    const ssize_t got = ::recv(fd, buf + done, size - done, 0);
    if (got > 0) {
      done += static_cast<size_t>(got);
      continue;
    }
    if (got == 0) return Status::IoError("replication peer closed");
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      return Status::IoError("replication socket read failed");
    }
    const int wait = RemainingMs(deadline);
    if (wait == 0) return Status::IoError("replication read timed out");
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    ::poll(&pfd, 1, wait);  // the loop re-checks recv + the deadline
  }
  return Status::OK();
}

// Writes exactly `size` bytes within `timeout` (MSG_NOSIGNAL: a vanished
// peer must surface as a Status, not a SIGPIPE).
Status WriteFull(int fd, const char* buf, size_t size,
                 std::chrono::milliseconds timeout) {
  const Clock::time_point deadline = Clock::now() + timeout;
  size_t done = 0;
  while (done < size) {
    const ssize_t sent = ::send(fd, buf + done, size - done, MSG_NOSIGNAL);
    if (sent > 0) {
      done += static_cast<size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    if (sent < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      return Status::IoError("replication socket write failed");
    }
    const int wait = RemainingMs(deadline);
    if (wait == 0) return Status::IoError("replication send timed out");
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    ::poll(&pfd, 1, wait);
  }
  return Status::OK();
}

// Reads one whole frame (header + checksum-verified payload).
Status ReadFrame(int fd, std::chrono::milliseconds timeout, Frame* frame) {
  char header[kFrameHeaderBytes];
  FKC_RETURN_IF_ERROR(ReadFull(fd, header, sizeof(header), timeout));
  uint64_t payload_size = 0;
  uint64_t payload_checksum = 0;
  FKC_RETURN_IF_ERROR(DecodeFrameHeader(header, sizeof(header), frame,
                                        &payload_size, &payload_checksum));
  frame->payload.resize(static_cast<size_t>(payload_size));
  if (payload_size > 0) {
    FKC_RETURN_IF_ERROR(
        ReadFull(fd, frame->payload.data(), frame->payload.size(), timeout));
  }
  return CheckFramePayload(payload_size, payload_checksum, frame->payload);
}

}  // namespace

// --- LogSender. ---

struct LogSender::Connection {
  int fd = -1;
  std::thread thread;
};

LogSender::LogSender(const DeltaLog* log, Options options)
    : log_(log), options_(std::move(options)) {}

LogSender::~LogSender() { Stop(); }

Status LogSender::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) {
    return Status::FailedPrecondition("log sender already started");
  }
  int fd = -1;
  if (!options_.unix_socket_path.empty()) {
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (options_.unix_socket_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long");
    }
    std::strncpy(addr.sun_path, options_.unix_socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.unix_socket_path.c_str());
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Status::IoError("cannot create unix socket");
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(fd);
      return Status::IoError("cannot bind unix socket '" +
                             options_.unix_socket_path + "'");
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Status::IoError("cannot create TCP socket");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(fd);
      return Status::IoError("cannot bind 127.0.0.1 TCP port");
    }
    struct sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &len) ==
        0) {
      port_ = ntohs(bound.sin_port);
    }
  }
  if (::listen(fd, 16) < 0) {
    ::close(fd);
    return Status::IoError("cannot listen on replication socket");
  }
  Status nonblocking = SetNonBlocking(fd);
  if (!nonblocking.ok()) {
    ::close(fd);
    return nonblocking;
  }
  listen_fd_ = fd;
  started_ = true;
  stopping_ = false;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void LogSender::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
    // Break every in-flight poll/recv promptly; the fds are closed after
    // the joins.
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    for (auto& connection : connections_) {
      if (connection->fd >= 0) ::shutdown(connection->fd, SHUT_RDWR);
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept loop has exited, so connections_ is stable now.
  for (auto& connection : connections_) {
    if (connection->thread.joinable()) connection->thread.join();
    if (connection->fd >= 0) ::close(connection->fd);
  }
  connections_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  if (!options_.unix_socket_path.empty()) {
    ::unlink(options_.unix_socket_path.c_str());
  }
}

int LogSender::port() const {
  std::lock_guard<std::mutex> lock(mu_);
  return port_;
}

SenderStats LogSender::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void LogSender::AcceptLoop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
    }
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    if (::poll(&pfd, 1, 100) <= 0) continue;  // timeout/EINTR: re-check stop
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    ++stats_.connections_accepted;
    connections_.push_back(std::make_unique<Connection>());
    Connection* connection = connections_.back().get();
    connection->fd = fd;
    connection->thread =
        std::thread([this, connection] { ServeConnection(connection); });
  }
}

Status LogSender::SendFrame(int fd, const Frame& frame) {
  std::string bytes = EncodeFrame(frame);
  FaultInjector::FrameFate fate = FaultInjector::FrameFate::kDeliver;
  if (options_.fault_injector != nullptr) {
    fate = options_.fault_injector->NextFrameFate();
  }
  switch (fate) {
    case FaultInjector::FrameFate::kDrop:
      return Status::OK();  // "sent" into the void; the gap forces a resync
    case FaultInjector::FrameFate::kCorrupt:
      options_.fault_injector->CorruptFrame(&bytes);
      break;
    case FaultInjector::FrameFate::kTruncate: {
      const size_t cut = options_.fault_injector->TruncationPoint(bytes.size());
      Status partial =
          WriteFull(fd, bytes.data(), cut, options_.send_timeout);
      if (!partial.ok()) return partial;
      // A torn frame desyncs everything after it; fail the connection like
      // a real mid-frame connection loss would.
      return Status::IoError("injected frame truncation");
    }
    case FaultInjector::FrameFate::kDelay:
      std::this_thread::sleep_for(options_.fault_injector->delay());
      break;
    case FaultInjector::FrameFate::kDeliver:
      break;
  }
  return WriteFull(fd, bytes.data(), bytes.size(), options_.send_timeout);
}

void LogSender::ServeConnection(Connection* connection) {
  const int fd = connection->fd;
  // The follower opens with HELLO naming the next entry it wants.
  Frame hello;
  if (!ReadFrame(fd, options_.send_timeout, &hello).ok() ||
      hello.type != FrameType::kHello) {
    return;
  }
  // A follower that had ANY position (generation != 0) and needs the base
  // again is a resync; a brand-new follower is an initial sync.
  int64_t followed_generation = hello.generation;
  int64_t next_index = hello.index;
  Clock::time_point last_sent = Clock::now();
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
    }
    std::vector<DeltaLog::Entry> entries =
        log_->EntriesFrom(followed_generation, next_index);
    if (!entries.empty()) {
      for (const DeltaLog::Entry& entry : entries) {
        Frame frame;
        frame.type =
            entry.index == 0 ? FrameType::kBase : FrameType::kDelta;
        frame.generation = entry.generation;
        frame.index = entry.index;
        frame.chain_length = static_cast<int64_t>(log_->chain_length());
        frame.payload = entry.payload;
        const bool resync = entry.index == 0 && followed_generation != 0;
        Status sent = SendFrame(fd, frame);
        std::lock_guard<std::mutex> lock(mu_);
        if (!sent.ok()) {
          ++stats_.send_errors;
          return;
        }
        ++stats_.frames_sent;
        if (resync) ++stats_.resyncs_served;
        followed_generation = entry.generation;
        next_index = entry.index + 1;
        last_sent = Clock::now();
      }
      continue;  // more entries may have landed meanwhile
    }
    if (Clock::now() - last_sent >= options_.heartbeat_interval) {
      Frame heartbeat;
      heartbeat.type = FrameType::kHeartbeat;
      heartbeat.generation = log_->generation();
      heartbeat.chain_length = static_cast<int64_t>(log_->chain_length());
      Status sent = SendFrame(fd, heartbeat);
      std::lock_guard<std::mutex> lock(mu_);
      if (!sent.ok()) {
        ++stats_.send_errors;
        return;
      }
      ++stats_.frames_sent;
      ++stats_.heartbeats_sent;
      last_sent = Clock::now();
    }
    std::this_thread::sleep_for(options_.poll_interval);
  }
}

// --- LogReceiver. ---

LogReceiver::LogReceiver(const Metric* metric, const FairCenterSolver* solver,
                         Options options)
    : metric_(metric),
      solver_(solver),
      options_(std::move(options)),
      backoff_rng_(options_.backoff_seed) {}

LogReceiver::~LogReceiver() { Stop(); }

Status LogReceiver::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) {
    return Status::FailedPrecondition("log receiver already started");
  }
  started_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { RunLoop(); });
  return Status::OK();
}

void LogReceiver::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
    if (active_fd_ >= 0) ::shutdown(active_fd_, SHUT_RDWR);
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::chrono::milliseconds LogReceiver::NextBackoff(int attempt) {
  // Capped exponential with seeded jitter: uniform [0.5, 1) of the capped
  // envelope, so a herd of followers re-dialing a restarted leader spreads
  // out deterministically per seed.
  const int shift = attempt < 16 ? attempt : 16;
  int64_t envelope_ms = options_.initial_backoff.count() << shift;
  if (envelope_ms > options_.max_backoff.count() || envelope_ms <= 0) {
    envelope_ms = options_.max_backoff.count();
  }
  double jitter;
  {
    std::lock_guard<std::mutex> lock(mu_);
    jitter = 0.5 + 0.5 * backoff_rng_.NextDouble();
  }
  const int64_t ms = static_cast<int64_t>(envelope_ms * jitter);
  return std::chrono::milliseconds(ms > 0 ? ms : 1);
}

void LogReceiver::SleepInterruptible(std::chrono::milliseconds duration) {
  std::unique_lock<std::mutex> lock(mu_);
  stop_cv_.wait_for(lock, duration, [this] { return stopping_; });
}

int LogReceiver::Connect() {
  int fd = -1;
  if (!options_.unix_socket_path.empty()) {
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (options_.unix_socket_path.size() >= sizeof(addr.sun_path)) return -1;
    std::strncpy(addr.sun_path, options_.unix_socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      ::close(fd);
      return -1;
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      ::close(fd);
      return -1;
    }
  }
  if (!SetNonBlocking(fd).ok()) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void LogReceiver::RunLoop() {
  int failed_attempts = 0;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
    }
    const int fd = Connect();
    if (fd < 0) {
      SleepInterruptible(NextBackoff(failed_attempts++));
      continue;
    }
    failed_attempts = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        ::close(fd);
        return;
      }
      active_fd_ = fd;
      ++stats_.connects;
      staleness_.connected = true;
    }
    DrainConnection(fd);
    {
      std::lock_guard<std::mutex> lock(mu_);
      staleness_.connected = false;
      active_fd_ = -1;
    }
    ::close(fd);
    // Jittered pause before re-dialing a connection that dropped (a
    // fault-heavy sender would otherwise be re-dialed hot).
    SleepInterruptible(NextBackoff(0));
  }
}

void LogReceiver::DrainConnection(int fd) {
  Frame hello;
  hello.type = FrameType::kHello;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hello.generation = staleness_.applied_generation;
    // Entry indexes: 0 = base, deltas from 1. With a fleet applied, the
    // next entry wanted is delta (applied deltas + 1) = applied_entries;
    // without one, everything from the base.
    hello.index = staleness_.has_fleet ? staleness_.applied_entries : 0;
  }
  const std::string hello_bytes = EncodeFrame(hello);
  if (!WriteFull(fd, hello_bytes.data(), hello_bytes.size(),
                 options_.receive_timeout)
           .ok()) {
    return;
  }
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
    }
    Frame frame;
    Status read = ReadFrame(fd, options_.receive_timeout, &frame);
    if (!read.ok()) {
      // Timeout (heartbeat silence: presumed partition), peer close, or
      // framing/checksum damage — all resolved the same way: reconnect
      // and let HELLO negotiate a tail or a resync.
      if (read.code() == StatusCode::kInvalidArgument) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.decode_errors;
      }
      return;
    }
    // Every leader frame announces the leader's position — the staleness
    // bound updates even when the frame itself is just a heartbeat.
    std::unique_lock<std::mutex> lock(mu_);
    ++stats_.frames_received;
    staleness_.leader_generation = frame.generation;
    staleness_.leader_entries =
        frame.generation == 0 ? 0 : 1 + frame.chain_length;
    switch (frame.type) {
      case FrameType::kBase: {
        lock.unlock();  // Restore is heavy; rebuild outside the lock
        auto restored = ShardManager::Restore(
            frame.payload, metric_, solver_, options_.num_threads,
            options_.max_live_shards, options_.spill_store);
        lock.lock();
        if (!restored.ok()) {
          ++stats_.decode_errors;
          return;
        }
        if (options_.local_log != nullptr) {
          // Durability is best-effort on the replica: a failed local
          // append degrades follower crash-safety, not serving.
          options_.local_log->AppendBase(frame.generation, frame.payload);
        }
        fleet_ =
            std::make_unique<ShardManager>(std::move(restored).value());
        staleness_.has_fleet = true;
        staleness_.applied_generation = frame.generation;
        staleness_.applied_entries = 1;
        ++stats_.bases_applied;
        break;
      }
      case FrameType::kDelta: {
        const bool in_order =
            staleness_.has_fleet &&
            frame.generation == staleness_.applied_generation &&
            frame.index == staleness_.applied_entries;
        if (!in_order) {
          // A gap (dropped frame) or a generation we never based on:
          // applying would tear the replica. Reconnect and resync.
          ++stats_.decode_errors;
          return;
        }
        Status applied = fleet_->ApplyDelta(frame.payload);
        if (!applied.ok()) {
          ++stats_.decode_errors;
          return;
        }
        if (options_.local_log != nullptr) {
          options_.local_log->AppendDelta(frame.generation, frame.index,
                                          frame.payload);
        }
        ++staleness_.applied_entries;
        ++stats_.deltas_applied;
        break;
      }
      case FrameType::kHeartbeat:
        ++stats_.heartbeats_received;
        break;
      case FrameType::kHello:
        ++stats_.decode_errors;  // the leader never sends HELLO
        return;
    }
    const bool same_generation =
        staleness_.leader_generation == staleness_.applied_generation;
    staleness_.entries_behind =
        same_generation
            ? staleness_.leader_entries - staleness_.applied_entries
            : staleness_.leader_entries;
    if (staleness_.entries_behind < 0) staleness_.entries_behind = 0;
    if (frame.type == FrameType::kHeartbeat &&
        staleness_.entries_behind > 0) {
      // The sender only heartbeats a connection it believes caught up, and
      // TCP delivers in order — so a heartbeat announcing a position ahead
      // of what we applied proves the tail was dropped on the wire (its
      // sender-side cursor advanced past a frame we never got). Without
      // this, a replica behind an exhausted-fault link would stay
      // "connected" but stale until the next log append flushed the gap
      // out. Reconnect and let HELLO fetch the missing entries.
      ++stats_.gap_resyncs;
      return;
    }
  }
}

std::vector<ShardAnswer> LogReceiver::QueryAll() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fleet_ == nullptr) return {};
  return fleet_->QueryAll();
}

Result<std::string> LogReceiver::CheckpointAll() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fleet_ == nullptr) {
    return Status::FailedPrecondition("no base applied on this replica yet");
  }
  return fleet_->CheckpointAll();
}

std::vector<std::string> LogReceiver::Keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (fleet_ == nullptr) return {};
  return fleet_->Keys();
}

LogReceiver::StalenessBound LogReceiver::staleness() const {
  std::lock_guard<std::mutex> lock(mu_);
  return staleness_;
}

ReceiverStats LogReceiver::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

#else  // _WIN32: the transport is POSIX-only; everything degrades to
       // kUnimplemented so the rest of the serving layer still builds.

struct LogSender::Connection {};

LogSender::LogSender(const DeltaLog* log, Options options)
    : log_(log), options_(std::move(options)) {}
LogSender::~LogSender() {}
Status LogSender::Start() {
  return Status::Unimplemented("replication transport requires POSIX sockets");
}
void LogSender::Stop() {}
int LogSender::port() const { return 0; }
SenderStats LogSender::stats() const { return SenderStats{}; }
void LogSender::AcceptLoop() {}
void LogSender::ServeConnection(Connection*) {}
Status LogSender::SendFrame(int, const Frame&) {
  return Status::Unimplemented("replication transport requires POSIX sockets");
}

LogReceiver::LogReceiver(const Metric* metric, const FairCenterSolver* solver,
                         Options options)
    : metric_(metric),
      solver_(solver),
      options_(std::move(options)),
      backoff_rng_(options_.backoff_seed) {}
LogReceiver::~LogReceiver() {}
Status LogReceiver::Start() {
  return Status::Unimplemented("replication transport requires POSIX sockets");
}
void LogReceiver::Stop() {}
std::vector<ShardAnswer> LogReceiver::QueryAll() { return {}; }
Result<std::string> LogReceiver::CheckpointAll() {
  return Status::Unimplemented("replication transport requires POSIX sockets");
}
std::vector<std::string> LogReceiver::Keys() const { return {}; }
LogReceiver::StalenessBound LogReceiver::staleness() const {
  return StalenessBound{};
}
ReceiverStats LogReceiver::stats() const { return ReceiverStats{}; }
void LogReceiver::RunLoop() {}
int LogReceiver::Connect() { return -1; }
void LogReceiver::DrainConnection(int) {}
std::chrono::milliseconds LogReceiver::NextBackoff(int) {
  return std::chrono::milliseconds(0);
}
void LogReceiver::SleepInterruptible(std::chrono::milliseconds) {}

#endif  // _WIN32

}  // namespace serving
}  // namespace fkc
