// Triangle census across the SNAP-mirror datasets — the workload that
// motivates the paper's Table 6: clique finding is where pairwise
// optimizers fall off a cliff while worst-case-optimal joins stay close to
// a hand-written graph engine.
//
//   ./build/examples/triangle_census            # a few small datasets
//   WCOJ_SCALE=4 ./build/examples/triangle_census   # bigger mirrors

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util/table.h"
#include "bench_util/workloads.h"
#include "core/engine.h"
#include "graph/datasets.h"

using namespace wcoj;  // NOLINT: example brevity

int main() {
  const std::vector<std::string> datasets = {"ca-GrQc", "p2p-Gnutella04",
                                             "ego-Facebook", "wiki-Vote"};
  const std::vector<std::string> engines = {"lftj", "ms", "psql", "monetdb",
                                            "clique"};
  TextTable table({"dataset", "nodes", "edges", "triangles", "lftj", "ms",
                   "psql", "monetdb", "clique"});

  for (const auto& name : datasets) {
    Graph g = LoadDataset(name);
    DatasetRelations rels(g);
    BoundQuery bq = BindWorkload(WorkloadByName("3-clique"), rels);

    std::vector<std::string> row = {name, std::to_string(g.num_nodes()),
                                    std::to_string(g.num_edges())};
    std::string triangles = "?";
    std::vector<std::string> cells;
    for (const auto& engine_name : engines) {
      auto engine = CreateEngine(engine_name);
      ExecOptions opts;
      opts.deadline = Deadline::AfterSeconds(10);
      ExecResult r = RunTimed(*engine, bq, opts);
      cells.push_back(FormatSeconds(r.seconds, r.status));
      if (r.ok()) triangles = std::to_string(r.count);
    }
    row.push_back(triangles);
    row.insert(row.end(), cells.begin(), cells.end());
    table.AddRow(std::move(row));
  }
  table.Print();
  return 0;
}
