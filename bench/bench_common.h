#ifndef WCOJ_BENCH_BENCH_COMMON_H_
#define WCOJ_BENCH_BENCH_COMMON_H_

// Shared plumbing for the per-table/figure harnesses.
//
// Protocol knobs mirror §5.1 scaled to one core:
//   WCOJ_SCALE    dataset scale multiplier (default 1.0)
//   WCOJ_TIMEOUT  per-cell timeout in seconds (default 5; paper used 1800)
// Cells that exceed the timeout render as "-" exactly like the paper's
// tables; unsupported engine/query combinations do too.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/table.h"
#include "bench_util/workloads.h"
#include "core/atom_index.h"
#include "core/engine.h"
#include "graph/datasets.h"

namespace wcoj::bench {

inline double CellTimeoutSeconds() {
  const char* env = std::getenv("WCOJ_TIMEOUT");
  if (env == nullptr) return 5.0;
  const double v = std::atof(env);
  return v > 0 ? v : 5.0;
}

struct Cell {
  double seconds = 0.0;
  Status status;  // non-OK: timed out or failed, count is not an answer
  uint64_t count = 0;
};

// Runs one engine on one bound query under the global cell timeout.
// Cells measure the paper's warm regime (LogicBlox's indexes are
// resident before any timed query runs): GAO-index engines get their
// indexes made resident cheaply via WarmQueryIndexes; the pairwise
// baselines probe plan-dependent permutations instead, which only a
// real execution touches, so they warm up with one untimed run (their
// timeout cells therefore cost up to 2x the timeout).
inline Cell RunCell(const std::string& engine_name, const BoundQuery& bq) {
  std::unique_ptr<Engine> engine = CreateEngine(engine_name);
  ExecOptions opts;
  opts.deadline = Deadline::AfterSeconds(CellTimeoutSeconds());
  if (bq.catalog != nullptr) {
    switch (engine->catalog_warmup()) {
      case CatalogWarmup::kGaoIndexes:
        WarmQueryIndexes(bq);
        break;
      case CatalogWarmup::kByExecution:
        engine->Execute(bq, opts);  // untimed warm-up, same timeout bound
        opts.deadline = Deadline::AfterSeconds(CellTimeoutSeconds());
        break;
      case CatalogWarmup::kNone:
        break;
    }
  }
  const ExecResult r = RunTimed(*engine, bq, opts);
  return {r.seconds, r.status, r.count};
}

// The 12 datasets of Tables 1-4 (everything but the three giants).
inline std::vector<std::string> SmallAndMediumDatasets() {
  std::vector<std::string> names;
  for (const auto& spec : AllDatasets()) {
    if (spec.name != "soc-Pokec" && spec.name != "soc-LiveJournal1" &&
        spec.name != "com-Orkut") {
      names.push_back(spec.name);
    }
  }
  return names;
}

inline std::vector<std::string> AllDatasetNames() {
  std::vector<std::string> names;
  for (const auto& spec : AllDatasets()) names.push_back(spec.name);
  return names;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("(WCOJ_SCALE=%.2f, per-cell timeout %.1fs; \"-\" = timeout)\n\n",
              EnvScale(), CellTimeoutSeconds());
}

}  // namespace wcoj::bench

#endif  // WCOJ_BENCH_BENCH_COMMON_H_
