// Choosing the global attribute order (GAO) — the §4.9 ablation as an API
// walkthrough. Minesweeper's guarantees need a nested elimination order
// (NEO); this example checks candidate orders with GaoIsNested, derives
// one automatically with FindNeoGao, and times the 4-path query under NEO
// and non-NEO orders (Table 4's experiment in miniature).
//
//   ./build/examples/ablation_gao

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util/table.h"
#include "bench_util/workloads.h"
#include "core/engine.h"
#include "graph/datasets.h"
#include "query/hypergraph.h"
#include "query/parser.h"

using namespace wcoj;  // NOLINT: example brevity

int main() {
  Graph g = LoadDataset("ca-GrQc");
  DatasetRelations rels(g);
  rels.Resample(/*selectivity=*/10, /*seed=*/4);

  Query query = MustParseQuery(
      "v1(a), v2(e), edge(a,b), edge(b,c), edge(c,d), edge(d,e)");

  // Ask the library for a NEO.
  if (auto neo = FindNeoGao(query)) {
    std::string order;
    for (const auto& v : *neo) order += v;
    std::printf("FindNeoGao suggests: %s\n", order.c_str());
  }

  // Table 4's seven representative orders.
  const std::vector<std::vector<std::string>> orders = {
      {"a", "b", "c", "d", "e"},  // NEO
      {"b", "a", "c", "d", "e"},  // NEO
      {"b", "c", "a", "d", "e"},  // NEO
      {"c", "b", "a", "d", "e"},  // NEO
      {"c", "b", "d", "a", "e"},  // NEO
      {"a", "b", "d", "c", "e"},  // non-NEO
      {"b", "a", "d", "c", "e"},  // non-NEO
  };

  TextTable table({"GAO", "nested (NEO)?", "ms runtime", "matches"});
  for (const auto& gao : orders) {
    BoundQuery bq = Bind(query, rels.Map(), gao);
    const bool nested = GaoIsNested(bq);
    auto ms = CreateEngine("ms");
    ExecOptions opts;
    opts.deadline = Deadline::AfterSeconds(30);
    ExecResult r = RunTimed(*ms, bq, opts);
    std::string name;
    for (const auto& v : gao) name += v;
    table.AddRow({name, nested ? "yes" : "no",
                  FormatSeconds(r.seconds, r.status),
                  r.ok() ? std::to_string(r.count) : "-"});
  }
  table.Print();
  std::printf(
      "\nNon-NEO orders force the CDS into its poset regime (§4.8): same "
      "answers, far more work.\n");
  return 0;
}
