// Serving-layer harness: what does putting the admission-controlled
// daemon in front of the engines cost, and what does it buy under
// overload?
//
// Three sections, emitted to BENCH_serving.json:
//
//   direct    in-process RunTimed over the warm catalog — the floor.
//   served    the same query through a socket + prepared cache +
//             admission slot; reports p50/p99, qps, and the admission
//             overhead (served p50 - direct p50) in milliseconds.
//   overload  K client threads hammering a 1-slot server; every offered
//             request must be answered (exact OK or structured shed),
//             and the shed rate + OK-latency tail quantify the
//             controller's behavior at saturation.
//
// Both socket sections run RunLoad (server/client.h), the storm behind
// wcoj_client's load mode.
//
// Standalone main (no google-benchmark): the interesting numbers are
// end-to-end request latencies, not nanosecond microbenchmarks.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/workloads.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "query/parser.h"
#include "query/query.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace wcoj {
namespace {

constexpr char kQueryText[] = "edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)";
constexpr int kServedReps = 200;
constexpr int kOverloadClients = 8;
constexpr int kOverloadPerClient = 40;

// Starts a server over `rels`, storms it through RunLoad, drains it.
LoadResult Storm(DatasetRelations& rels, const ServerConfig& config,
                 const std::string& line, int clients, int repeat) {
  Server server(rels.Map(), rels.catalog(), config);
  const Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  LoadResult load = RunLoad(server.port(), line, clients, repeat);
  server.Drain();
  return load;
}

int Run() {
  Graph graph = Rmat(/*scale=*/10, /*num_edges=*/20000, 0.45, 0.2, 0.2,
                     /*seed=*/7);
  DatasetRelations rels(graph);
  rels.Resample(/*selectivity=*/10.0, /*seed=*/1);

  // --- direct: in-process floor over the warm catalog -----------------
  const Query parsed = MustParseQuery(kQueryText);
  BoundQuery bq = Bind(parsed, rels.Map(), parsed.Variables());
  bq.catalog = rels.catalog();
  std::unique_ptr<Engine> engine = CreateEngine("lftj");
  ExecScratch scratch;
  ExecOptions opts;
  opts.scratch = &scratch;
  uint64_t direct_count = 0;
  std::vector<double> direct_ms;
  (void)RunTimed(*engine, bq, opts);  // cold build outside the timings
  for (int i = 0; i < kServedReps; ++i) {
    const ExecResult r = RunTimed(*engine, bq, opts);
    if (!r.ok()) {
      std::fprintf(stderr, "direct run failed: %s\n",
                   r.status.ToString().c_str());
      return 1;
    }
    direct_count = r.count;
    direct_ms.push_back(r.seconds * 1e3);
  }
  const double direct_p50_ms = Percentile(direct_ms, 0.5);

  // --- served: the same query through the daemon ----------------------
  ServerRequest req;
  req.kind = ServerRequest::Kind::kQuery;
  req.engine = "lftj";
  req.text = kQueryText;
  const std::string query_line = FormatRequestLine(req);

  ServerConfig served_config;
  served_config.max_concurrency = 2;
  const LoadResult served =
      Storm(rels, served_config, query_line, /*clients=*/1, kServedReps);
  // Every served request must come back OK with the direct count.
  const bool served_counts_equal =
      served.ok == static_cast<uint64_t>(kServedReps) &&
      served.counts_agree && served.count == direct_count;
  const double served_p50_ms = Percentile(served.ok_ms, 0.5);
  const double served_p99_ms = Percentile(served.ok_ms, 0.99);
  const double served_qps = kServedReps / served.wall_seconds;

  // --- overload: K clients vs one slot, bounded queue -----------------
  ServerConfig over_config;
  over_config.max_concurrency = 1;
  over_config.max_queue = 2;
  over_config.retry_after_base_ms = 5;
  const LoadResult over = Storm(rels, over_config, query_line,
                                kOverloadClients, kOverloadPerClient);
  const uint64_t offered =
      static_cast<uint64_t>(kOverloadClients) * kOverloadPerClient;
  const bool over_counts_equal =
      over.counts_agree && (over.ok == 0 || over.count == direct_count);
  const double over_p50_ms = Percentile(over.ok_ms, 0.5);
  const double over_p99_ms = Percentile(over.ok_ms, 0.99);
  const double over_qps = over.ok / over.wall_seconds;

  const char* path = "BENCH_serving.json";
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"query\": \"%s\",\n", kQueryText);
  std::fprintf(out, "  \"count\": %llu,\n",
               static_cast<unsigned long long>(direct_count));
  std::fprintf(out, "  \"direct\": {\"p50_ms\": %.4f, \"reps\": %d},\n",
               direct_p50_ms, kServedReps);
  std::fprintf(out,
               "  \"served\": {\"p50_ms\": %.4f, \"p99_ms\": %.4f, "
               "\"qps\": %.1f, \"admission_overhead_ms\": %.4f, "
               "\"counts_equal\": %s},\n",
               served_p50_ms, served_p99_ms, served_qps,
               served_p50_ms - direct_p50_ms,
               served_counts_equal ? "true" : "false");
  std::fprintf(out,
               "  \"overload\": {\"clients\": %d, \"offered\": %llu, "
               "\"ok\": %llu, \"shed\": %llu, \"errors\": %llu, "
               "\"shed_rate\": %.3f, \"qps\": %.1f, \"p50_ms\": %.4f, "
               "\"p99_ms\": %.4f, \"counts_equal\": %s}\n",
               kOverloadClients, static_cast<unsigned long long>(offered),
               static_cast<unsigned long long>(over.ok),
               static_cast<unsigned long long>(over.shed),
               static_cast<unsigned long long>(over.err),
               offered > 0 ? static_cast<double>(over.shed) / offered : 0.0,
               over_qps, over_p50_ms, over_p99_ms,
               over_counts_equal ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);

  std::printf(
      "serving: direct_p50=%.3fms served_p50=%.3fms p99=%.3fms "
      "overhead=%.3fms qps=%.0f counts_equal=%d\n",
      direct_p50_ms, served_p50_ms, served_p99_ms,
      served_p50_ms - direct_p50_ms, served_qps, served_counts_equal);
  std::printf(
      "overload: offered=%llu ok=%llu shed=%llu errors=%llu "
      "shed_rate=%.2f ok_p50=%.3fms ok_p99=%.3fms counts_equal=%d\n",
      static_cast<unsigned long long>(offered),
      static_cast<unsigned long long>(over.ok),
      static_cast<unsigned long long>(over.shed),
      static_cast<unsigned long long>(over.err),
      offered > 0 ? static_cast<double>(over.shed) / offered : 0.0,
      over_p50_ms, over_p99_ms, over_counts_equal);
  // The harness's own pass/fail: every request answered, counts exact.
  if (over.err != 0 || !served_counts_equal || !over_counts_equal) {
    std::fprintf(stderr, "serving_bench: FAILED invariants\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace wcoj

int main() { return wcoj::Run(); }
