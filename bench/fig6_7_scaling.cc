// Figures 6 and 7: duration of 3-clique and 4-clique on growing edge
// subsets of the LiveJournal mirror. The paper's shape: the pairwise
// relational engines stop scaling two orders of magnitude before the
// optimal joins; LFTJ reaches roughly an order of magnitude further than
// Minesweeper; the specialized clique engine leads by a constant factor.

#include "bench/bench_common.h"

namespace {

wcoj::Graph EdgePrefix(const wcoj::Graph& g, int64_t num_edges) {
  wcoj::Graph sub(g.num_nodes());
  int64_t taken = 0;
  for (const auto& [u, v] : g.edges()) {
    if (taken++ >= num_edges) break;
    sub.AddEdge(u, v);
  }
  sub.Build();
  return sub;
}

}  // namespace

int main() {
  using namespace wcoj;
  using namespace wcoj::bench;
  PrintHeader("Figures 6-7: {3,4}-clique vs LiveJournal edge-subset size");

  Graph full = LoadDataset("soc-LiveJournal1");
  const std::vector<std::string> engines = {"lftj", "ms", "psql", "monetdb",
                                            "clique"};
  std::vector<int64_t> subset_sizes;
  for (int64_t n = 1000; n < full.num_edges(); n *= 4) {
    subset_sizes.push_back(n);
  }
  subset_sizes.push_back(full.num_edges());

  for (const char* qname : {"3-clique", "4-clique"}) {
    std::printf("%s on LiveJournal-mirror subsets:\n", qname);
    std::vector<std::string> header = {"edges"};
    header.insert(header.end(), engines.begin(), engines.end());
    TextTable table(header);
    for (int64_t n : subset_sizes) {
      Graph sub = EdgePrefix(full, n);
      DatasetRelations rels(sub);
      BoundQuery bq = BindWorkload(WorkloadByName(qname), rels);
      std::vector<std::string> row = {std::to_string(sub.num_edges())};
      for (const auto& engine : engines) {
        const Cell cell = RunCell(engine, bq);
        row.push_back(FormatSeconds(cell.seconds, cell.status));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("\n");
  }
  return 0;
}
