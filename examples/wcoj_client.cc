// wcoj_client: line-protocol client for wcoj_serverd.
//
// Single-query mode sends one request and maps the structured reply to
// the shared CLI exit-code contract (CliExitCode, util/status.h — the
// codes query_runner returns for the same failures), so shell drills
// can assert each failure class:
//
//   0  OK
//   1  other error (CANCELLED, INTERNAL, ...), dropped connection, garbage
//   2  usage / connect failure, or ERR INVALID_ARGUMENT / NOT_FOUND /
//      IO_ERROR / DATA_LOSS (bad input)
//   3  ERR BUDGET_EXCEEDED
//   4  ERR DEADLINE_EXCEEDED
//   5  shed (ERR RETRY_AFTER) even after --retries attempts
//
// A shed reply is retried up to --retries times, backing off
// max(server retry_after_ms hint, --backoff-ms) with exponential
// doubling — the cooperative half of the server's load shedding.
//
// Load mode (--clients K --repeat M) opens K concurrent connections,
// sends M requests each (RunLoad, server/client.h), and prints an
// aggregate line whose latencies and qps cover OK replies only:
//
//   load: sent=N ok=N shed=N err=N count=N counts_agree=0|1 p50_ms=X
//         p99_ms=X qps=X
//
// where count is the first OK reply's count. It exits 0 iff every
// request got an OK or shed reply (sheds count as answered — that is
// the contract under overload) and every OK reply carried that count.
//
//   $ ./wcoj_client --port 43211 "edge(a,b), edge(b,c)"
//   $ ./wcoj_client --port 43211 --deadline-ms 1 "..."   ; echo $?  # 4
//   $ ./wcoj_client --port 43211 --clients 16 --repeat 50 "..."

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "server/client.h"
#include "server/protocol.h"

int main(int argc, char** argv) {
  using namespace wcoj;

  int port = 0;
  ServerRequest req;
  req.engine = "ms";
  long retries = 0;
  long backoff_ms = 25;
  long clients = 1;
  long repeat = 1;
  std::string query;
  for (int i = 1; i < argc; ++i) {
    auto next_long = [&](long* out) {
      if (i + 1 >= argc) return false;
      *out = std::strtol(argv[++i], nullptr, 10);
      return true;
    };
    long v = 0;
    if (std::strcmp(argv[i], "--port") == 0 && next_long(&v)) {
      port = static_cast<int>(v);
    } else if (std::strcmp(argv[i], "--engine") == 0 && i + 1 < argc) {
      req.engine = argv[++i];
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && next_long(&v)) {
      req.deadline_ms = v;
    } else if (std::strcmp(argv[i], "--budget-mb") == 0 && next_long(&v)) {
      req.budget_mb = v;
    } else if (std::strcmp(argv[i], "--retries") == 0 && next_long(&v)) {
      retries = v;
    } else if (std::strcmp(argv[i], "--backoff-ms") == 0 && next_long(&v)) {
      backoff_ms = std::max(1L, v);
    } else if (std::strcmp(argv[i], "--clients") == 0 && next_long(&v)) {
      clients = std::max(1L, v);
    } else if (std::strcmp(argv[i], "--repeat") == 0 && next_long(&v)) {
      repeat = std::max(1L, v);
    } else if (argv[i][0] != '-' && query.empty()) {
      query = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: %s --port N [--engine NAME] [--deadline-ms N] "
                   "[--budget-mb N] [--retries N] [--backoff-ms N] "
                   "[--clients K] [--repeat M] \"<query>\"\n",
                   argv[0]);
      return 2;
    }
  }
  if (port <= 0 || query.empty()) {
    std::fprintf(stderr, "wcoj_client: --port and a query are required\n");
    return 2;
  }
  req.kind = ServerRequest::Kind::kQuery;
  req.text = query;
  const std::string request_line = FormatRequestLine(req);

  if (clients == 1 && repeat == 1) {
    long backoff = backoff_ms;
    for (long attempt = 0;; ++attempt) {
      ServerClient conn;
      const Status connected = conn.Connect(port);
      const StatusOr<ServerReply> got =
          connected.ok() ? conn.Call(request_line) : connected;
      if (!got.ok()) {  // connect failure 2, dropped or garbage reply 1
        std::fprintf(stderr, "wcoj_client: %s\n",
                     got.status().ToString().c_str());
        return connected.ok() ? 1 : 2;
      }
      const ServerReply& r = got.value();
      if (r.ok) {
        std::printf("OK count=%llu seconds=%.4f class=%s cached=%d "
                    "seeks=%llu\n",
                    static_cast<unsigned long long>(r.count), r.seconds,
                    r.query_class.c_str(), r.cached ? 1 : 0,
                    static_cast<unsigned long long>(r.seeks));
        return 0;
      }
      if (r.shed() && attempt < retries) {
        const long wait = std::max<long>(backoff, r.retry_after_ms);
        std::fprintf(stderr,
                     "shed (queued=%llu); retrying in %ld ms "
                     "(attempt %ld/%ld)\n",
                     static_cast<unsigned long long>(r.queued), wait,
                     attempt + 1, retries);
        std::this_thread::sleep_for(std::chrono::milliseconds(wait));
        backoff *= 2;
        continue;
      }
      std::printf("ERR %s msg=%s\n", r.code.c_str(), r.message.c_str());
      return r.shed() ? 5 : CliExitCode(r.status());
    }
  }

  const LoadResult load = RunLoad(port, request_line, static_cast<int>(clients),
                                  static_cast<int>(repeat));
  std::printf("load: sent=%llu ok=%llu shed=%llu err=%llu count=%llu "
              "counts_agree=%d p50_ms=%.2f p99_ms=%.2f qps=%.1f\n",
              static_cast<unsigned long long>(clients * repeat),
              static_cast<unsigned long long>(load.ok),
              static_cast<unsigned long long>(load.shed),
              static_cast<unsigned long long>(load.err),
              static_cast<unsigned long long>(load.count),
              load.counts_agree ? 1 : 0, Percentile(load.ok_ms, 0.50),
              Percentile(load.ok_ms, 0.99),
              load.wall_seconds > 0 ? load.ok / load.wall_seconds : 0.0);
  return load.err == 0 && load.counts_agree ? 0 : 1;
}
