#include "server/server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include "server/client.h"
#include "util/failpoint.h"

namespace wcoj {

namespace {

// The connection-layer failpoint seams chaos_test sweeps (count-then-
// inject): each is evaluated exactly once per unit of work — one accept,
// one request line, one reply, one admission attempt — so a sweep over
// k in [1, hits] provably exercises every injection site of a session.
FailPoint& AcceptFp() { return FailPoints::Register("server.accept"); }
FailPoint& ReadFp() { return FailPoints::Register("server.read"); }
FailPoint& WriteFp() { return FailPoints::Register("server.write"); }
FailPoint& EnqueueFp() { return FailPoints::Register("server.enqueue"); }

}  // namespace

Server::Server(std::map<std::string, const Relation*> relations,
               IndexCatalog* catalog, const ServerConfig& config)
    : relations_(std::move(relations)),
      catalog_(catalog),
      config_(config),
      admission_(AdmissionConfig{config.max_concurrency, config.max_queue}),
      cache_(relations_, catalog, config.heavy_log2_threshold,
             config.cache_capacity) {}

Server::~Server() { Drain(); }

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(config_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status s = ErrnoStatus("bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 128) != 0) {
    const Status s = ErrnoStatus("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  slot_scratch_.Reserve(config_.max_concurrency);
  started_.store(true, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  watchdog_thread_ = std::thread([this] { WatchdogLoop(); });
  return OkStatus();
}

void Server::AcceptLoop() {
  while (!draining_.load(std::memory_order_relaxed)) {
    ReapFinishedConnections();
    pollfd p{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&p, 1, 50);
    if (rc <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Injected accept-time failure: the daemon sheds the connection at
    // the door and keeps serving everyone else.
    if (WCOJ_FAILPOINT(AcceptFp())) {
      Count(&ServerStats::accept_faults);
      ::close(fd);
      continue;
    }
    if (draining_.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    Count(&ServerStats::connections_accepted);
    auto conn = std::make_unique<Connection>(&drain_cancel_);
    conn->fd = fd;
    Connection* cp = conn.get();
    {
      MutexLock lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    cp->thread = std::thread([this, cp] { ServeConnection(cp); });
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void Server::WatchdogLoop() {
  // Client-disconnect detection for *executing* connections: their
  // thread is inside an engine, so somebody else must notice the peer
  // hanging up and fire the connection token — that is what makes a
  // dropped client cancel its morsels promptly instead of computing
  // into the void. 0-timeout polls under the list lock: cheap, and the
  // lock means a connection can never close its fd mid-poll.
  while (!drained_.load(std::memory_order_relaxed)) {
    {
      MutexLock lock(conns_mu_);
      for (const auto& c : conns_) {
        if (!c->executing.load(std::memory_order_relaxed) ||
            c->done.load(std::memory_order_relaxed) || c->fd < 0) {
          continue;
        }
        pollfd p{c->fd, POLLIN, 0};
        if (::poll(&p, 1, 0) <= 0) continue;
        if ((p.revents & (POLLERR | POLLHUP)) != 0) {
          c->token.RequestStop();
          continue;
        }
        if ((p.revents & POLLIN) != 0) {
          char b;
          const ssize_t n =
              ::recv(c->fd, &b, 1, MSG_PEEK | MSG_DONTWAIT);
          if (n == 0) c->token.RequestStop();  // orderly shutdown
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

bool Server::WriteReply(Connection* conn, const std::string& line) {
  // Injected write fault: fires *before* the first byte, so the peer
  // observes a cleanly closed connection, never a torn reply line.
  if (WCOJ_FAILPOINT(WriteFp()) || !SendAll(conn->fd, line).ok()) {
    Count(&ServerStats::write_faults);
    return false;
  }
  return true;
}

std::string FormatServerStats(const ServerStats& s) {
  std::string out;
  for (const ServerStatsField& f : kServerStatsFields) {
    if (!out.empty()) out += ' ';
    out += f.key;
    out += '=';
    out += std::to_string(s.*f.value);
  }
  return out;
}

void Server::Count(uint64_t ServerStats::*field) {
  MutexLock lock(stats_mu_);
  ++(counts_.*field);
}

std::string Server::HandleQuery(Connection* conn, const ServerRequest& req) {
  // Busy for the whole request — queue wait included — so the watchdog
  // detects a client hanging up on a *queued* request too and its
  // Admit() returns kCancelled instead of holding the queue slot until
  // the deadline.
  conn->executing.store(true, std::memory_order_relaxed);
  struct BusyGuard {
    std::atomic<bool>& flag;
    ~BusyGuard() { flag.store(false, std::memory_order_relaxed); }
  } busy_guard{conn->executing};
  Status status;
  bool cache_hit = false;
  std::shared_ptr<const PreparedQuery> prepared =
      cache_.Get(req.engine, req.text, &status, &cache_hit);
  if (prepared == nullptr) {
    Count(&ServerStats::invalid);
    return FormatErrorReply(status);
  }
  Count(cache_hit ? &ServerStats::cache_hits : &ServerStats::cache_misses);
  // Injected enqueue failure behaves exactly like a full queue: the
  // request is shed with a structured hint, never accepted-then-lost.
  if (WCOJ_FAILPOINT(EnqueueFp())) {
    Count(&ServerStats::shed);
    return FormatShedReply(kRetryAfterBaseMs, admission_.queued(),
                           "injected enqueue fault (failpoint "
                           "server.enqueue)");
  }
  const int64_t deadline_ms =
      req.deadline_ms > 0 ? req.deadline_ms : config_.default_deadline_ms;
  const Deadline deadline = Deadline::AfterSeconds(deadline_ms / 1000.0);
  const AdmitResult admit =
      admission_.Admit(prepared->cls, deadline, &conn->token);
  switch (admit.outcome) {
    case AdmitOutcome::kShed:
      Count(&ServerStats::shed);
      return FormatShedReply(
          admit.retry_after_ms, admit.queued,
          draining_.load(std::memory_order_relaxed)
              ? "server draining"
              : std::string("admission queue full (class ") +
                    QueryClassName(prepared->cls) + ")");
    case AdmitOutcome::kCancelled:
      Count(&ServerStats::cancelled);
      return FormatErrorReply(
          Status(StatusCode::kCancelled, "cancelled while queued"));
    case AdmitOutcome::kDeadline:
      Count(&ServerStats::deadline_exceeded);
      return FormatErrorReply(Status(StatusCode::kDeadlineExceeded,
                                     "deadline expired while queued"));
    case AdmitOutcome::kAdmitted:
      break;
  }
  // Request-scoped cancellation: chained off the connection token (which
  // chains off the drain-cancel root), so client disconnect, drain
  // expiry, and this request's own wind-down each cancel exactly their
  // scope. Engines poll the token every frontier iteration.
  StopToken req_token(&conn->token);
  const int64_t budget_mb =
      req.budget_mb > 0 ? req.budget_mb : config_.default_budget_mb;
  MemoryBudget budget(static_cast<uint64_t>(budget_mb) * 1024 * 1024);
  ExecOptions opts;
  opts.deadline = deadline;
  opts.stop = &req_token;
  if (budget_mb > 0) opts.budget = &budget;
  opts.scratch = slot_scratch_.ForWorker(admit.slot);
  const ExecResult r = RunTimed(*prepared->engine, prepared->bound, opts);
  admission_.Release(admit.slot);
  const bool draining = draining_.load(std::memory_order_relaxed);
  if (r.ok()) {
    Count(&ServerStats::ok);
    if (draining) Count(&ServerStats::drain_completed);
    return FormatOkReply(r.count, r.seconds, cache_hit,
                         QueryClassName(prepared->cls), r.stats.seeks);
  }
  switch (r.status.code()) {
    case StatusCode::kBudgetExceeded:
      Count(&ServerStats::budget_exceeded);
      break;
    case StatusCode::kDeadlineExceeded:
      Count(&ServerStats::deadline_exceeded);
      break;
    case StatusCode::kCancelled:
      Count(&ServerStats::cancelled);
      if (draining) Count(&ServerStats::drain_cancelled);
      break;
    default:
      Count(&ServerStats::errors);
      break;
  }
  return FormatErrorReply(r.status);
}

void Server::ServeConnection(Connection* conn) {
  std::string buf;
  bool close_conn = false;
  while (!close_conn) {
    // Drain completed request lines first (clients may pipeline).
    size_t nl;
    while (!close_conn && (nl = buf.find('\n')) != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      // Injected read fault: the request is treated as a connection
      // I/O error — dropped whole, never half-processed.
      if (WCOJ_FAILPOINT(ReadFp())) {
        Count(&ServerStats::read_faults);
        close_conn = true;
        break;
      }
      Count(&ServerStats::requests);
      ServerRequest req;
      std::string parse_error;
      std::string reply;
      bool quit = false;
      if (!ParseRequestLine(line, &req, &parse_error)) {
        Count(&ServerStats::invalid);
        reply = FormatErrorReply(
            Status(StatusCode::kInvalidArgument, parse_error));
      } else {
        switch (req.kind) {
          case ServerRequest::Kind::kPing:
            reply = "OK pong";
            break;
          case ServerRequest::Kind::kStats:
            reply = "OK stats " + FormatServerStats(stats());
            break;
          case ServerRequest::Kind::kQuit:
            reply = "OK bye";
            quit = true;
            break;
          case ServerRequest::Kind::kQuery:
            reply = HandleQuery(conn, req);
            break;
        }
      }
      if (!WriteReply(conn, reply + "\n")) close_conn = true;
      if (quit) close_conn = true;
      // A draining server finishes the request it owes, then closes.
      if (draining_.load(std::memory_order_relaxed)) close_conn = true;
    }
    if (close_conn) break;
    if (conn->token.stop_requested()) break;
    if (draining_.load(std::memory_order_relaxed)) break;
    if (buf.size() > kMaxRequestLineBytes) {
      WriteReply(conn,
                 FormatErrorReply(Status(StatusCode::kInvalidArgument,
                                         "request line too long")) +
                     "\n");
      break;
    }
    pollfd p{conn->fd, POLLIN, 0};
    const int rc = ::poll(&p, 1, 50);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) continue;
    char chunk[4096];
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // EOF or error: client went away
    buf.append(chunk, static_cast<size_t>(n));
  }
  {
    // Close under the list lock so the watchdog can never poll a
    // recycled descriptor.
    MutexLock lock(conns_mu_);
    ::close(conn->fd);
    conn->fd = -1;
  }
  conn->done.store(true, std::memory_order_release);
}

void Server::ReapFinishedConnections() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    MutexLock lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->done.load(std::memory_order_acquire) &&
          (*it)->thread.joinable()) {
        finished.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : finished) conn->thread.join();
}

void Server::Drain() {
  if (!started_.load(std::memory_order_relaxed)) return;
  MutexLock drain_lock(drain_mu_);
  if (drained_.load(std::memory_order_relaxed)) return;
  // Phase 1: stop taking on work. The accept loop exits on its next
  // tick; queued admission waiters shed with RETRY_AFTER; connections
  // close after the request they are currently owed.
  draining_.store(true, std::memory_order_relaxed);
  admission_.BeginDrain();
  // Phase 2: let in-flight requests finish under the drain deadline.
  auto idle = [this] {
    const ServerStats s = stats();
    return s.inflight == 0 && s.connections_open == 0;
  };
  Stopwatch watch;
  while (watch.ElapsedMillis() < config_.drain_deadline_ms && !idle()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Phase 3: the deadline passed — cancel whatever is left through the
  // token chain. Engines wind down at their next frontier poll and the
  // stragglers reply ERR CANCELLED before closing.
  if (!idle()) drain_cancel_.RequestStop();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (;;) {
    ReapFinishedConnections();
    {
      MutexLock lock(conns_mu_);
      if (conns_.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  drained_.store(true, std::memory_order_relaxed);
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  // Phase 4: flush the catalog so the next process warm-starts from
  // everything this one built. A failed flush must not be swallowed:
  // the daemon keeps its answer-serving guarantees, but the operator
  // has to learn the next start will be cold — flush_status() carries
  // the cause (printed in serverd's drain-complete line, pinned by
  // server_test.DrainSurfacesCatalogFlushFailure).
  if (!config_.save_catalog_dir.empty()) {
    Status flush_status;
    catalog_->SaveTo(config_.save_catalog_dir, &flush_status);
    flush_status_ = flush_status;
  }
}

Status Server::flush_status() const {
  MutexLock lock(drain_mu_);
  return flush_status_;
}

ServerStats Server::stats() const {
  ServerStats s;
  {
    MutexLock lock(stats_mu_);
    s = counts_;
  }
  {
    MutexLock lock(conns_mu_);
    s.connections_open = static_cast<uint64_t>(std::count_if(
        conns_.begin(), conns_.end(), [](const auto& c) {
          return !c->done.load(std::memory_order_acquire);
        }));
  }
  s.inflight = static_cast<uint64_t>(admission_.running());
  s.queued = admission_.queued();
  return s;
}

}  // namespace wcoj
