// Social-path analytics: "which sampled users are three hops apart?"
//
// This is the paper's acyclic showcase (3-path with v1/v2 samples): the
// redundant sub-path work grows as samples grow, and Minesweeper's CDS
// caching — plus the hybrid's explicit memoization — pays off over plain
// LFTJ at low selectivity (Figures 3-5).
//
//   ./build/examples/social_paths
//   WCOJ_SCALE=4 ./build/examples/social_paths

#include <cstdio>
#include <vector>

#include "bench_util/table.h"
#include "bench_util/workloads.h"
#include "core/engine.h"
#include "graph/datasets.h"

using namespace wcoj;  // NOLINT: example brevity

int main() {
  Graph g = LoadDataset("soc-Epinions1");
  std::printf("3-path on a soc-Epinions1 mirror: %lld nodes %lld edges\n",
              static_cast<long long>(g.num_nodes()),
              static_cast<long long>(g.num_edges()));
  DatasetRelations rels(g);

  TextTable table({"sample size N", "matches", "lftj", "ms", "#ms", "hybrid"});
  for (int64_t n : {4, 16, 64, 256}) {
    rels.ResampleExact(n, /*seed=*/9);
    BoundQuery bq = BindWorkload(WorkloadByName("3-path"), rels);
    std::vector<std::string> row = {std::to_string(n)};
    std::string matches = "?";
    std::vector<std::string> cells;
    for (const char* name : {"lftj", "ms", "#ms", "hybrid"}) {
      auto engine = CreateEngine(name);
      ExecOptions opts;
      opts.deadline = Deadline::AfterSeconds(20);
      ExecResult r = RunTimed(*engine, bq, opts);
      cells.push_back(FormatSeconds(r.seconds, r.status));
      if (r.ok()) matches = std::to_string(r.count);
    }
    row.push_back(matches);
    row.insert(row.end(), cells.begin(), cells.end());
    table.AddRow(std::move(row));
  }
  table.Print();
  return 0;
}
