// wcoj_serverd: the admission-controlled query-serving daemon.
//
// Serves the same dataset bundle as query_runner (Rmat graph; relations
// edge, edge_lt, node, v1..v4) over a line-based TCP protocol on
// 127.0.0.1. One process start pays for graph generation and (with
// --load-catalog) mmaps the resident index catalog; every client request
// then executes against shared warm state through the prepared-query
// cache. See src/server/README.md and docs/ARCHITECTURE.md ("Serving
// layer") for the protocol and the admission / deadline / budget /
// drain semantics.
//
//   $ ./wcoj_serverd --port 0 --max-concurrency 4 &
//   wcoj_serverd listening on 127.0.0.1 port=43211 pid=12345
//   $ ./wcoj_client --port 43211 "edge(a,b), edge(b,c)"
//
// SIGTERM/SIGINT triggers the graceful drain: stop accepting, shed the
// queue, finish in-flight work under --drain-deadline-ms, cancel the
// rest through the token chain, flush the catalog when --save-catalog
// is set, then exit 0.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench_util/workloads.h"
#include "server/server.h"
#include "util/failpoint.h"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port N] [--max-concurrency N] [--queue-depth N]\n"
      "          [--default-deadline-ms N] [--default-budget-mb N]\n"
      "          [--drain-deadline-ms N] [--heavy-log2 X]\n"
      "          [--load-catalog DIR] [--save-catalog DIR]\n"
      "\n"
      "Serves the query_runner dataset over TCP on 127.0.0.1 (port 0 =\n"
      "ephemeral; the bound port is printed on stdout as port=N).\n"
      "SIGTERM drains gracefully and exits 0.\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wcoj;

  ServerConfig config;
  std::string load_catalog_dir;
  auto long_flag = [&](int* i, const char* name, long* out) {
    if (std::strcmp(argv[*i], name) != 0 || *i + 1 >= argc) return false;
    *out = std::strtol(argv[++*i], nullptr, 10);
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    long v = 0;
    if (long_flag(&i, "--port", &v)) {
      config.port = static_cast<int>(v);
    } else if (long_flag(&i, "--max-concurrency", &v) && v >= 1) {
      config.max_concurrency = static_cast<int>(v);
    } else if (long_flag(&i, "--queue-depth", &v) && v >= 0) {
      config.max_queue = static_cast<int>(v);
    } else if (long_flag(&i, "--default-deadline-ms", &v) && v >= 1) {
      config.default_deadline_ms = v;
    } else if (long_flag(&i, "--default-budget-mb", &v) && v >= 0) {
      config.default_budget_mb = v;
    } else if (long_flag(&i, "--drain-deadline-ms", &v) && v >= 1) {
      config.drain_deadline_ms = v;
    } else if (std::strcmp(argv[i], "--heavy-log2") == 0 && i + 1 < argc) {
      config.heavy_log2_threshold = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--load-catalog") == 0 && i + 1 < argc) {
      load_catalog_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--save-catalog") == 0 && i + 1 < argc) {
      config.save_catalog_dir = argv[++i];
    } else {
      Usage(argv[0]);
      return 2;
    }
  }

  const int armed = FailPoints::ArmFromEnv();
  if (armed > 0) std::printf("failpoints armed: %d\n", armed);

  ToolsDataset data;
  if (!load_catalog_dir.empty() &&
      !LoadCatalogReported(&data.rels, load_catalog_dir).ok()) {
    return 2;
  }

  Server server(data.rels.Map(), data.rels.catalog(), config);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("wcoj_serverd listening on 127.0.0.1 port=%d pid=%d\n",
              server.port(), static_cast<int>(getpid()));
  std::fflush(stdout);

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);
  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("draining (deadline %ld ms)...\n",
              static_cast<long>(config.drain_deadline_ms));
  std::fflush(stdout);
  server.Drain();
  std::printf("drain complete: %s\n",
              FormatServerStats(server.stats()).c_str());
  // A failed drain-time catalog flush is an operator-visible event (the
  // next start is cold), not a daemon failure: report, exit 0.
  const Status flush = server.flush_status();
  if (!flush.ok()) {
    std::fprintf(stderr, "catalog flush failed: %s\n",
                 flush.ToString().c_str());
  }
  return 0;
}
