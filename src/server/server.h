#ifndef WCOJ_SERVER_SERVER_H_
#define WCOJ_SERVER_SERVER_H_

// wcoj_serverd's engine room: a long-lived TCP query server over one
// shared dataset + IndexCatalog, with per-request robustness guarantees
// built from the PR 8 primitives.
//
// Request lifecycle:
//
//   read line ──► prepared cache (parse/bind once) ──► classify (AGM)
//        │                                                   │
//        │              ┌────────────────────────────────────┘
//        ▼              ▼
//   admission: slot free? queue? full → ERR RETRY_AFTER (shed)
//        │ admitted (slot s)
//        ▼
//   ExecOptions{deadline, budget, stop = request token} ──► RunTimed on
//   slot s's warm ExecScratch ──► one-line reply
//
// Cancellation chain: drain-cancel token ◄─ connection token ◄─ request
// token (StopToken parents). A client disconnect fires the connection
// token (a watchdog polls executing connections for hangup), deadline
// expiry is polled by the engines, and the drain deadline fires the
// root token — each cancels exactly the scope below it and nothing
// else.
//
// Budgets: every request runs under its own MemoryBudget (request or
// server default); a blown budget surfaces as a sticky structured
// `ERR BUDGET_EXCEEDED` reply on a connection that stays open — a
// governed failure is an answer, not a dropped socket.
//
// Graceful drain (SIGTERM): stop accepting, shed the queue, let
// in-flight requests finish for up to drain_deadline_ms, then cancel
// stragglers via the token chain (they reply ERR CANCELLED), join every
// thread, and flush the catalog to save_catalog_dir when configured.
//
// Failpoint seams (chaos-tested, see util/failpoint.h):
//   server.accept   accepted socket dropped at the door
//   server.read     request read fails after a full line arrived
//   server.write    reply write fails before any byte is sent
//   server.enqueue  admission enqueue fails → load-shed reply

#include <atomic>
#include <cstdint>
#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "server/admission.h"
#include "server/prepared_cache.h"
#include "server/protocol.h"
#include "storage/catalog.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"

namespace wcoj {

struct ServerConfig {
  int port = 0;  // 0 = ephemeral; see Server::port() after Start()
  int max_concurrency = 4;
  int max_queue = 16;  // per class (cheap / heavy)
  int64_t default_deadline_ms = 60000;
  int64_t default_budget_mb = 0;  // 0 = ungoverned by default
  int64_t drain_deadline_ms = 2000;
  double heavy_log2_threshold = 20.0;  // AGM bound >= 2^20 rows = heavy
  size_t cache_capacity = 128;
  // Flushed (IndexCatalog::SaveTo) at the end of a drain when set.
  std::string save_catalog_dir;
};

// The daemon's one outcome record: monotonic counters plus the gauges
// connections_open, inflight and queued. Snapshot via Server::stats().
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_open = 0;
  uint64_t requests = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t cancelled = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t budget_exceeded = 0;
  uint64_t invalid = 0;
  uint64_t errors = 0;  // every other non-OK outcome
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t accept_faults = 0;  // server.accept failpoint fires
  uint64_t read_faults = 0;    // server.read fires / torn request reads
  uint64_t write_faults = 0;   // server.write fires / reply write errors
  uint64_t inflight = 0;       // admitted, not yet released
  uint64_t queued = 0;         // admission queue depth
  uint64_t drain_completed = 0;  // in-flight finished OK during drain
  uint64_t drain_cancelled = 0;  // in-flight cancelled by drain deadline
};

// Every ServerStats field keyed by its own name, in declaration order:
// the one list both reports print, the STATS reply and wcoj_serverd's
// drain line.
struct ServerStatsField {
  const char* key;
  uint64_t ServerStats::*value;
};
inline constexpr ServerStatsField kServerStatsFields[] = {
    {"connections_accepted", &ServerStats::connections_accepted},
    {"connections_open", &ServerStats::connections_open},
    {"requests", &ServerStats::requests},
    {"ok", &ServerStats::ok},
    {"shed", &ServerStats::shed},
    {"cancelled", &ServerStats::cancelled},
    {"deadline_exceeded", &ServerStats::deadline_exceeded},
    {"budget_exceeded", &ServerStats::budget_exceeded},
    {"invalid", &ServerStats::invalid},
    {"errors", &ServerStats::errors},
    {"cache_hits", &ServerStats::cache_hits},
    {"cache_misses", &ServerStats::cache_misses},
    {"accept_faults", &ServerStats::accept_faults},
    {"read_faults", &ServerStats::read_faults},
    {"write_faults", &ServerStats::write_faults},
    {"inflight", &ServerStats::inflight},
    {"queued", &ServerStats::queued},
    {"drain_completed", &ServerStats::drain_completed},
    {"drain_cancelled", &ServerStats::drain_cancelled},
};
static_assert(sizeof(ServerStats) ==
                  std::size(kServerStatsFields) * sizeof(uint64_t),
              "every ServerStats field has an entry in kServerStatsFields");

// "key=value" for every entry of kServerStatsFields, space-separated.
std::string FormatServerStats(const ServerStats& s);

class Server {
 public:
  // `relations`/`catalog` must outlive the server; the catalog is the
  // shared resident-index store every request executes against.
  Server(std::map<std::string, const Relation*> relations,
         IndexCatalog* catalog, const ServerConfig& config);
  ~Server();  // Drain()s if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds 127.0.0.1:<port>, spawns the accept + watchdog threads.
  Status Start();
  int port() const { return port_; }

  // Graceful drain (blocking; idempotent): stop accepting, shed the
  // queue, wait up to drain_deadline_ms for in-flight work, cancel the
  // rest, join all threads, flush the catalog. Safe from any thread.
  void Drain();

  ServerStats stats() const;

  // Outcome of the drain-time catalog flush (OK when no save_catalog_dir
  // is configured or the drain has not run). A non-OK value means the
  // next process cold-starts; serverd prints it in the drain log.
  Status flush_status() const WCOJ_EXCLUDES(drain_mu_);

 private:
  struct Connection {
    int fd = -1;
    StopToken token;  // parent: server drain-cancel token
    std::atomic<bool> executing{false};
    std::atomic<bool> done{false};
    std::thread thread;
    explicit Connection(const StopToken* parent) : token(parent) {}
  };

  void AcceptLoop();
  void WatchdogLoop();
  void ServeConnection(Connection* conn);
  // Executes one parsed query request; returns the reply line.
  std::string HandleQuery(Connection* conn, const ServerRequest& req);
  // Adds one to a counter of the outcome record.
  void Count(uint64_t ServerStats::*field) WCOJ_EXCLUDES(stats_mu_);
  // Writes a reply line through SendAll; false = close the connection
  // (peer gone, or a server.write fault injected before the first byte).
  bool WriteReply(Connection* conn, const std::string& line);
  void ReapFinishedConnections();

  const std::map<std::string, const Relation*> relations_;
  IndexCatalog* const catalog_;
  const ServerConfig config_;

  AdmissionController admission_;
  PreparedQueryCache cache_;
  // One warm ExecScratch per admission slot: slot s always reuses the
  // same CDS arena, so the steady state is allocation-free per slot —
  // the serving analogue of query_runner --repeat.
  ExecScratchPool slot_scratch_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::thread watchdog_thread_;

  // Root of the cancellation chain: fired only when the drain deadline
  // passes with work still in flight (or at destruction).
  StopToken drain_cancel_;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};
  mutable Mutex drain_mu_;  // serializes concurrent Drain() callers and
                            // guards the flush outcome below
  Status flush_status_ WCOJ_GUARDED_BY(drain_mu_);

  // Guards the connection list AND each Connection's fd lifecycle
  // transitions (close + set to -1), so the watchdog can never poll a
  // recycled descriptor. A Connection's own thread reads its fd
  // lock-free: it is the only writer, and both its writes happen-before
  // any other thread can observe the Connection (thread creation) or
  // after it (done flag release/acquire).
  mutable Mutex conns_mu_;
  std::list<std::unique_ptr<Connection>> conns_ WCOJ_GUARDED_BY(conns_mu_);

  // The outcome record's counters. stats() reads its gauges from their
  // owners, so nothing is counted twice: connections_open from conns_,
  // inflight (the running slots) and queued from admission_.
  mutable Mutex stats_mu_;
  ServerStats counts_ WCOJ_GUARDED_BY(stats_mu_);
};

}  // namespace wcoj

#endif  // WCOJ_SERVER_SERVER_H_
