// Quickstart: the whole public API in one file.
//
// Part 1 registers two hand-built relations in a Database, parses a
// two-atom path query, binds it against the database (which attaches
// its shared index catalog), and enumerates the answer tuples. The warm
// rerun reuses the resident trie indexes instead of rebuilding them —
// the LogicBlox regime the paper measures in.
//
// Part 2 builds a small graph, expresses the triangle query in the
// paper's Datalog-ish notation, checks its hypergraph structure,
// computes the AGM output-size bound, and counts it with every
// registered engine. Engines that refuse the query print "-".
//
//   ./build/examples/quickstart

#include <cstdio>
#include <string>

#include "core/engine.h"
#include "graph/generators.h"
#include "query/agm.h"
#include "query/hypergraph.h"
#include "query/parser.h"
#include "storage/catalog.h"

using namespace wcoj;  // NOLINT: example brevity

int main() {
  // 1. A hand-built database:
  //    R = {(1,10), (1,20), (2,20)}, S = {(10,100), (20,200), (30,300)}.
  Database db;
  db.Put("r", Relation::FromTuples(2, {{1, 10}, {1, 20}, {2, 20}}));
  db.Put("s", Relation::FromTuples(2, {{10, 100}, {20, 200}, {30, 300}}));
  const BoundQuery path =
      Bind(MustParseQuery("r(a,b), s(b,c)"), db, {"a", "b", "c"});
  ExecOptions collect;
  collect.collect_tuples = true;
  for (const char* name : {"lftj", "ms", "psql"}) {
    const ExecResult res = CreateEngine(name)->Execute(path, collect);
    std::printf("%-6s r(a,b), s(b,c) -> %llu tuples:", name,
                static_cast<unsigned long long>(res.count));
    for (const Tuple& t : res.tuples) {
      std::printf(" %s", TupleToString(t).c_str());
    }
    std::printf(" (index builds=%llu, cache hits=%llu)\n",
                static_cast<unsigned long long>(res.stats.index_builds),
                static_cast<unsigned long long>(res.stats.index_cache_hits));
  }
  const ExecResult warm = CreateEngine("lftj")->Execute(path, collect);
  std::printf("lftj   warm rerun: builds=%llu, cache hits=%llu\n\n",
              static_cast<unsigned long long>(warm.stats.index_builds),
              static_cast<unsigned long long>(warm.stats.index_cache_hits));

  // 2. Data: a skewed random graph (RMAT), normalized and indexed.
  Graph graph = Rmat(/*scale=*/10, /*num_edges=*/6000, 0.57, 0.19, 0.19,
                     /*seed=*/42);
  std::printf("graph: %lld nodes, %lld edges\n",
              static_cast<long long>(graph.num_nodes()),
              static_cast<long long>(graph.num_edges()));

  // 3. Query: triangles, via the oriented edge relation (a<b<c built in).
  Relation edge_lt = graph.EdgeRelationOriented();
  Query query = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");

  // 4. Structure: the triangle is the canonical cyclic query.
  Hypergraph h = Hypergraph::FromQuery(query);
  std::printf("alpha-acyclic: %s, beta-acyclic: %s\n",
              IsAlphaAcyclic(h) ? "yes" : "no",
              IsBetaAcyclic(h) ? "yes" : "no");

  // 5. Bind against a global attribute order (GAO) and compute the AGM
  //    bound: output size <= |E|^{3/2} for the triangle.
  BoundQuery bound = Bind(query, {{"edge_lt", &edge_lt}}, {"a", "b", "c"});
  AgmResult agm = AgmBound(bound);
  std::printf("AGM bound: %.0f tuples (2^%.2f)\n", agm.bound, agm.log2_bound);

  // 6. Execute with every registered engine; all that answer agree.
  ExecOptions opts;
  opts.deadline = Deadline::AfterSeconds(30.0);
  for (const std::string& name : EngineNames()) {
    const ExecResult result = RunTimed(*CreateEngine(name), bound, opts);
    if (!result.ok()) {
      std::printf("%-12s -\n", name.c_str());
      continue;
    }
    std::printf("%-12s count=%llu  %.3fs  (seeks=%llu, constraints=%llu)\n",
                name.c_str(), static_cast<unsigned long long>(result.count),
                result.seconds,
                static_cast<unsigned long long>(result.stats.seeks),
                static_cast<unsigned long long>(
                    result.stats.constraints_inserted));
  }
  return 0;
}
