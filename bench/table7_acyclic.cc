// Table 7: duration of the acyclic (and lollipop) queries with different
// selectivities. The paper's findings to reproduce in shape:
//   * Minesweeper beats LFTJ on {3,4}-path / 2-tree / 2-comb, especially
//     at low selectivity (dense samples) thanks to CDS caching;
//   * LFTJ wins at very high selectivity and on 1-tree;
//   * the pairwise engines are competitive on 3-path (PostgreSQL's smart
//     materialization) but fall over on 4-path and 2-tree;
//   * the hybrid beats both on the lollipops.
//
// Small datasets use selectivities {8, 80}; the rest {10, 100, 1000},
// exactly like §5.1. Set WCOJ_T7_DATASETS to a comma list to narrow.

#include <cstring>

#include "bench/bench_common.h"

int main() {
  using namespace wcoj;
  using namespace wcoj::bench;
  PrintHeader("Table 7: acyclic & lollipop queries (seconds)");

  const std::vector<std::string> queries = {
      "3-path", "4-path", "1-tree", "2-tree",
      "2-comb", "2-lollipop", "3-lollipop"};
  const std::vector<std::string> engines = {"lftj", "ms",      "#ms",
                                            "hybrid", "psql", "monetdb"};
  std::vector<std::string> datasets;
  if (const char* env = std::getenv("WCOJ_T7_DATASETS")) {
    std::string s = env;
    size_t pos = 0;
    while (pos != std::string::npos) {
      const size_t comma = s.find(',', pos);
      datasets.push_back(s.substr(pos, comma - pos));
      pos = comma == std::string::npos ? comma : comma + 1;
    }
  } else {
    // One dataset per skew/size class by default; the paper's full grid is
    // reachable via WCOJ_T7_DATASETS=<comma list of all 15>.
    datasets = {"ca-GrQc", "ego-Facebook", "wiki-Vote", "soc-LiveJournal1"};
  }

  for (const auto& qname : queries) {
    std::printf("%s:\n", qname.c_str());
    std::vector<std::string> header = {"dataset", "sel"};
    header.insert(header.end(), engines.begin(), engines.end());
    TextTable table(header);
    for (const auto& dname : datasets) {
      const DatasetSpec& spec = DatasetByName(dname);
      Graph g = LoadDataset(dname);
      DatasetRelations rels(g);
      const std::vector<double> sels =
          spec.small ? std::vector<double>{8, 80}
                     : std::vector<double>{10, 100, 1000};
      for (double sel : sels) {
        rels.Resample(sel, /*seed=*/17);
        BoundQuery bq = BindWorkload(WorkloadByName(qname), rels);
        std::vector<std::string> row = {dname, std::to_string((int)sel)};
        for (const auto& engine : engines) {
          const Cell cell = RunCell(engine, bq);
          row.push_back(FormatSeconds(cell.seconds, cell.status));
        }
        table.AddRow(std::move(row));
      }
    }
    table.Print();
    std::printf("\n");
  }
  return 0;
}
