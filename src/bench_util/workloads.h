#ifndef WCOJ_BENCH_UTIL_WORKLOADS_H_
#define WCOJ_BENCH_UTIL_WORKLOADS_H_

// The paper's query workload (§5.1) and the machinery to bind it against a
// dataset: relation bundles (symmetric/oriented edge relations plus the
// v1..v4 node samples), the Datalog-ish query texts, and their GAOs.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "query/query.h"
#include "storage/catalog.h"
#include "storage/relation.h"
#include "util/status.h"

namespace wcoj {

struct Workload {
  std::string name;        // e.g. "3-clique", "4-path"
  std::string query_text;  // parser input (see query/parser.h)
  std::vector<std::string> gao;
  bool cyclic = false;
  int num_samples = 0;  // how many of v1..v4 the query uses
};

// All queries from §5.1: {3,4}-clique, 4-cycle, {3,4}-path, {1,2}-tree,
// 2-comb, {2,3}-lollipop. Clique/cycle queries use the oriented edge
// relation (`edge_lt`), realizing the paper's a<b<c side conditions.
const std::vector<Workload>& PaperWorkloads();
const Workload& WorkloadByName(const std::string& name);

// The relations derived from one graph, as a Database (so the shared
// index catalog and its persistent save/load come with it; see
// storage/catalog.h): edge, edge_lt and node, plus the v1..v4 node
// samples regenerated per selectivity. Resample replaces v1..v4 through
// Database::Put, which invalidates their cached indexes, so a catalog
// saved before a Resample leaves those entries stale on load while the
// edge relations still warm-start.
class DatasetRelations : public Database {
 public:
  explicit DatasetRelations(const Graph& g);

  // Draws v1..v4 with the given selectivity (fraction kept = 1/s).
  void Resample(double selectivity, uint64_t seed);
  // Draws v1..v4 with exactly `count` nodes (figure 3-5 sweeps).
  void ResampleExact(int64_t count, uint64_t seed);

 private:
  const Graph* graph_;
};

// The dataset the command-line tools serve (query_runner, wcoj_serverd),
// one definition so their counts line up: an Rmat graph at scale 12 with
// 40,000 edges (seed 7), v1..v4 sampled at selectivity 10 (seed 1).
struct ToolsDataset {
  ToolsDataset();
  const Graph graph;
  DatasetRelations rels;  // over `graph`
};

// Loads the catalog saved in `dir` into `db` and reports it: installed
// and skipped counts on stdout, one line per skipped entry on stderr. A
// manifest-level failure is printed on stderr and returned.
Status LoadCatalogReported(Database* db, const std::string& dir);

// Binds a workload against the dataset's relations and catalog; dies on
// inconsistencies (bench-internal misuse). The result shares `rels`'s
// resident indexes — first execution is the cold build, later ones warm.
BoundQuery BindWorkload(const Workload& w, const DatasetRelations& rels);

}  // namespace wcoj

#endif  // WCOJ_BENCH_UTIL_WORKLOADS_H_
