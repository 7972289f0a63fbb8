// Table 6: duration of the cyclic queries {3,4}-clique and 4-cycle across
// all 15 SNAP-mirror datasets and the full engine line-up. The paper's
// headline: worst-case-optimal joins (lftj, ms) beat the pairwise
// relational engines by orders of magnitude — those blow up on the
// self-join intermediates — and stay within a constant factor of the
// specialized clique engine (the GraphLab stand-in, which only knows
// cliques: its 4-cycle cells are "-").

#include "bench/bench_common.h"

int main() {
  using namespace wcoj;
  using namespace wcoj::bench;
  PrintHeader("Table 6: cyclic queries (seconds)");

  const std::vector<std::string> queries = {"3-clique", "4-clique", "4-cycle"};
  const std::vector<std::string> engines = {"lftj", "ms", "psql", "monetdb",
                                            "clique"};
  const std::vector<std::string> datasets = AllDatasetNames();

  for (const auto& qname : queries) {
    std::printf("%s:\n", qname.c_str());
    std::vector<std::string> header = {"engine"};
    header.insert(header.end(), datasets.begin(), datasets.end());
    TextTable table(header);
    for (const auto& engine : engines) {
      std::vector<std::string> row = {engine};
      for (const auto& dname : datasets) {
        Graph g = LoadDataset(dname);
        DatasetRelations rels(g);
        BoundQuery bq = BindWorkload(WorkloadByName(qname), rels);
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
