// Counts triangles in a synthetic power-law graph with every registered
// engine and prints a small comparison table — the one-figure version of
// the paper's engine matrix.
//
//   $ ./triangle_count [num_nodes]

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench_util/workloads.h"
#include "core/engine.h"
#include "graph/generators.h"

int main(int argc, char** argv) {
  using namespace wcoj;

  const int64_t num_nodes = argc > 1 ? std::atoll(argv[1]) : 2000;
  if (num_nodes < 2) {
    std::fprintf(stderr, "usage: %s [num_nodes >= 2]\n", argv[0]);
    return 2;
  }
  // BarabasiAlbert requires attach_per_node < num_nodes.
  const int attach = static_cast<int>(std::min<int64_t>(8, num_nodes - 1));
  const Graph g = BarabasiAlbert(num_nodes, attach, /*seed=*/42);
  std::printf("graph: %lld nodes, %lld edges\n\n",
              static_cast<long long>(g.num_nodes()),
              static_cast<long long>(g.num_edges()));

  DatasetRelations rels(g);
  rels.Resample(/*selectivity=*/10.0, /*seed=*/1);
  const BoundQuery bq = BindWorkload(WorkloadByName("3-clique"), rels);

  ExecOptions opts;
  opts.deadline = Deadline::AfterSeconds(30.0);
  std::printf("%-12s %12s %10s %12s\n", "engine", "triangles", "seconds",
              "seeks");
  for (const std::string& name : EngineNames()) {
    const ExecResult r = RunTimed(*CreateEngine(name), bq, opts);
    if (!r.ok()) {
      std::printf("%-12s %12s %10s %12s\n", name.c_str(), "-", "-", "-");
      continue;
    }
    std::printf("%-12s %12llu %10.4f %12llu\n", name.c_str(),
                static_cast<unsigned long long>(r.count), r.seconds,
                static_cast<unsigned long long>(r.stats.seeks));
  }
  return 0;
}
