// Runs an arbitrary query (paper notation) against a generated graph.
// Relations in scope: edge (symmetric), edge_lt (oriented u<v), node,
// and samples v1..v4 — the same bundle the benchmarks use.
//
//   $ ./query_runner "edge_lt(a,b), edge_lt(b,c), edge_lt(a,c), a<b<c"
//   $ ./query_runner "edge(a,b), edge(b,c)" lftj
//   $ ./query_runner "edge(a,b), edge(b,c)" ms --repeat 8
//   $ ./query_runner "edge(a,b), edge(b,c)" ms --threads 4 --repeat 8
//
// The GAO is the order of first appearance of the variables.
//
// --repeat N executes the query N times over one warm ExecScratch (and
// the shared index catalog), demonstrating the steady-state regime from
// the CLI: iteration 1 builds the CDS arena, and single-threaded every
// later iteration reports cds_alloc=0 — zero CDS heap allocations on
// warm memory. The closing line prints the largest cds_alloc of the warm
// iterations; under --threads it need not be 0, because which morsels a
// worker's warm arena has seen depends on which worker claims which
// morsel.
//
// --threads N (N > 1) runs each iteration through the morsel scheduler:
// skew-aware var0 morsels claimed from one shared cursor by a
// persistent WorkerPool, with per-worker scratch arenas that stay warm
// across the repeats. A 60s deadline per iteration demonstrates the cancellation
// contract — one timed-out morsel stops the whole run.
//
// --load-catalog DIR mmaps a previously saved index catalog before the
// first run (stale/corrupt entries are counted, logged with a per-file
// reason, and rebuild in memory), and --save-catalog DIR writes the
// resident indexes after the last run.
// A second process started with --load-catalog answers with
// index_builds=0 — the persistent warm start:
//
//   $ ./query_runner "edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)" ms
//         --save-catalog /tmp/cat
//   $ ./query_runner "edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)" ms
//         --load-catalog /tmp/cat
//
// Resource governance: --mem-budget-mb N installs a per-query
// MemoryBudget (CDS arenas, index builds, intermediates all charge it;
// an over-budget query fails closed with BUDGET_EXCEEDED) and
// --deadline-ms N shortens the default 60s deadline, which bounds each
// --repeat iteration on its own. The WCOJ_FAILPOINTS environment
// variable ("persist.write=2,arena.slab=5") arms named failpoints for
// fault-injection drills; see util/failpoint.h.
//
// Exit codes follow the shared CLI contract (CliExitCode, util/status.h)
// so wrappers can pick a remedy without parsing stderr:
//   0  answer printed
//   1  other failure (cancelled, internal, ...)
//   2  bad input: usage/parse errors, missing or corrupt catalog files
//   3  memory budget exceeded (retry with a bigger --mem-budget-mb)
//   4  deadline expired (retry with a longer --deadline-ms)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util/workloads.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "parallel/partitioned_run.h"
#include "parallel/worker_pool.h"
#include "query/parser.h"
#include "util/failpoint.h"
#include "util/mem_budget.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  using namespace wcoj;

  // Split --repeat N / --threads N out of the positional arguments.
  long repeat = 1;
  long threads = 1;
  long mem_budget_mb = 0;   // 0 = unlimited
  long deadline_ms = 60000;
  std::string save_catalog_dir;
  std::string load_catalog_dir;
  std::vector<const char*> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--save-catalog") == 0 && i + 1 < argc) {
      save_catalog_dir = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--load-catalog") == 0 && i + 1 < argc) {
      load_catalog_dir = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::strtol(argv[++i], nullptr, 10);
      if (repeat < 1) {
        std::fprintf(stderr, "--repeat wants a positive count\n");
        return 2;
      }
      continue;
    }
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::strtol(argv[++i], nullptr, 10);
      if (threads < 1) {
        std::fprintf(stderr, "--threads wants a positive count\n");
        return 2;
      }
      continue;
    }
    if (std::strcmp(argv[i], "--mem-budget-mb") == 0 && i + 1 < argc) {
      mem_budget_mb = std::strtol(argv[++i], nullptr, 10);
      if (mem_budget_mb < 0) {
        std::fprintf(stderr, "--mem-budget-mb wants a nonnegative count\n");
        return 2;
      }
      continue;
    }
    if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      deadline_ms = std::strtol(argv[++i], nullptr, 10);
      if (deadline_ms < 1) {
        std::fprintf(stderr, "--deadline-ms wants a positive count\n");
        return 2;
      }
      continue;
    }
    args.push_back(argv[i]);
  }

  // A query and an engine at most: anything else is a mistyped or
  // unknown flag, which must not run silently with the defaults.
  if (args.empty() || args.size() > 2) {
    std::fprintf(stderr,
                 "usage: %s \"<query>\" [engine] [--repeat N] [--threads N] "
                 "[--mem-budget-mb N] [--deadline-ms N] "
                 "[--save-catalog DIR] [--load-catalog DIR]\n"
                 "exit codes: 0 ok, 1 other failure, 2 bad input or "
                 "catalog files, 3 budget exceeded, 4 deadline expired\n",
                 argv[0]);
    return 2;
  }
  const ParseResult parsed = ParseQuery(args[0]);
  if (!parsed.ok) {
    std::fprintf(stderr, "parse error: %s\n", parsed.error.c_str());
    return 2;
  }
  const std::string engine_name = args.size() > 1 ? args[1] : "ms";
  std::unique_ptr<Engine> engine = CreateEngine(engine_name);
  if (engine == nullptr) {
    std::fprintf(stderr, "unknown engine '%s'; known:", engine_name.c_str());
    for (const std::string& n : EngineNames())
      std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }

  const Graph g = Rmat(/*scale=*/12, /*num_edges=*/40000, 0.45, 0.2, 0.2,
                       /*seed=*/7);
  DatasetRelations rels(g);
  rels.Resample(/*selectivity=*/10.0, /*seed=*/1);

  // Bind() trusts its input (in-process callers), so vet the query here
  // at the untrusted CLI boundary.
  const auto rel_map = rels.Map();
  const Status vetted = CheckBindable(parsed.query, rel_map);
  if (!vetted.ok()) {
    std::fprintf(stderr, "%s", vetted.message().c_str());
    if (vetted.message().rfind("unknown relation", 0) == 0) {
      std::fprintf(stderr, "; known:");
      for (const auto& [name, rel] : rel_map)
        std::fprintf(stderr, " %s/%d", name.c_str(), rel->arity());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  BoundQuery bq = Bind(parsed.query, rel_map, parsed.query.Variables());
  bq.catalog = rels.catalog();  // execute over shared resident indexes

  // Fault-injection drills: arm named failpoints from the environment
  // ("name=k[,name=k]" — fire on the k-th pass through each point).
  // Armed before any catalog IO so persist.* faults cover --load-catalog
  // and --save-catalog as well as query execution.
  const int armed = FailPoints::ArmFromEnv();
  if (armed > 0) std::printf("failpoints armed: %d\n", armed);

  if (!load_catalog_dir.empty()) {
    CatalogOpenStats open_stats;
    const size_t n = rels.LoadCatalog(load_catalog_dir, &open_stats);
    if (!open_stats.status.ok()) {
      std::fprintf(stderr, "load-catalog: %s\n",
                   open_stats.status.ToString().c_str());
      return CliExitCode(open_stats.status);
    }
    std::printf(
        "loaded catalog: %zu mmap-backed indexes from %s "
        "(catalog_open_skipped=%zu)\n",
        n, load_catalog_dir.c_str(), open_stats.skipped);
    for (const std::string& line : open_stats.skip_log) {
      std::fprintf(stderr, "load-catalog skip: %s\n", line.c_str());
    }
  }


  ExecScratch scratch;  // warm CDS arena shared across the repeats
  MemoryBudget budget(static_cast<uint64_t>(mem_budget_mb) * 1024 * 1024);
  ExecOptions opts;
  opts.scratch = &scratch;
  if (mem_budget_mb > 0) opts.budget = &budget;
  // Morsel mode: persistent worker pool + per-worker scratch
  // slots, both warm across the repeats (opts.scratch is ignored by
  // PartitionedExecute — concurrent jobs cannot share one scratch).
  WorkerPool pool(static_cast<int>(threads));
  ExecScratchPool scratch_pool;
  double warm_best = -1.0;
  uint64_t warm_max_alloc = 0;
  for (long it = 0; it < repeat; ++it) {
    opts.deadline = Deadline::AfterSeconds(deadline_ms / 1000.0);
    ExecResult r;
    if (threads > 1) {
      r = PartitionedExecute(*engine, bq, opts, static_cast<int>(threads),
                             /*granularity=*/8, &scratch_pool, &pool);
    } else {
      r = RunTimed(*engine, bq, opts);
    }
    if (!r.ok()) {
      std::printf("%s: no answer (%s)\n", engine->name().c_str(),
                  r.status.ToString().c_str());
      // Structured exit codes (CliExitCode): budget refusals (3) and
      // expired deadlines (4) are distinguishable from each other and
      // from cancellation, so wrappers can retry with more memory or
      // more time respectively.
      return CliExitCode(r.status);
    }
    if (opts.budget != nullptr) {
      std::printf("budget: peak=%.1f MiB of %ld MiB\n",
                  r.stats.peak_budget_bytes / (1024.0 * 1024.0),
                  mem_budget_mb);
    }
    std::printf(
        "%s: count=%llu in %.4fs (seeks=%llu, constraints=%llu, "
        "free_tuples=%llu, gap_cache_hits=%llu, "
        "cds_alloc=%llu, cds_recycled=%llu, index_builds=%llu)\n",
        engine->name().c_str(), static_cast<unsigned long long>(r.count),
        r.seconds, static_cast<unsigned long long>(r.stats.seeks),
        static_cast<unsigned long long>(r.stats.constraints_inserted),
        static_cast<unsigned long long>(r.stats.free_tuples),
        static_cast<unsigned long long>(r.stats.gap_cache_hits),
        static_cast<unsigned long long>(r.stats.cds_nodes_allocated),
        static_cast<unsigned long long>(r.stats.cds_nodes_recycled),
        static_cast<unsigned long long>(r.stats.index_builds));
    if (it > 0) {
      warm_best = warm_best < 0 ? r.seconds : std::min(warm_best, r.seconds);
      warm_max_alloc = std::max(warm_max_alloc, r.stats.cds_nodes_allocated);
    }
  }
  if (repeat > 1 && warm_best >= 0) {
    std::printf("warm steady state: best %.4fs over %ld iterations "
                "(max cds_alloc=%llu after the first)\n",
                warm_best, repeat - 1,
                static_cast<unsigned long long>(warm_max_alloc));
  }
  if (!save_catalog_dir.empty()) {
    Status save_status;
    const size_t n = rels.SaveCatalog(save_catalog_dir, &save_status);
    if (!save_status.ok()) {
      std::fprintf(stderr, "save-catalog: %s\n",
                   save_status.ToString().c_str());
      return CliExitCode(save_status);
    }
    std::printf("saved catalog: %zu index files to %s\n", n,
                save_catalog_dir.c_str());
  }
  return 0;
}
