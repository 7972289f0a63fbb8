// Table 3: speedup ratio when Idea 7 (β-acyclic skeleton, gaps from
// non-skeleton relations only advance the frontier) is incorporated, on
// the cyclic queries 3-clique / 4-clique / 4-cycle. Without Idea 7 the
// CDS runs in its §4.8 poset regime; the paper reports up to four orders
// of magnitude and "∞" (thrashing) — here rendered as "inf" when the
// ablated engine times out.

#include "bench/bench_common.h"

int main() {
  using namespace wcoj;
  using namespace wcoj::bench;
  PrintHeader("Table 3: Minesweeper speedup from Idea 7 (skeleton)");

  const std::vector<std::string> queries = {"3-clique", "4-clique", "4-cycle"};
  const std::vector<std::string> datasets = SmallAndMediumDatasets();

  std::vector<std::string> header = {"query"};
  header.insert(header.end(), datasets.begin(), datasets.end());
  TextTable table(header);
  for (const auto& qname : queries) {
    std::vector<std::string> row = {qname};
    for (const auto& dname : datasets) {
      Graph g = LoadDataset(dname);
      DatasetRelations rels(g);
      BoundQuery bq = BindWorkload(WorkloadByName(qname), rels);
      const Cell on = RunCell("ms", bq);
      const Cell off = RunCell("ms-noidea7", bq);
      if (!on.status.ok()) {
        row.push_back("-");
      } else if (!off.status.ok()) {
        row.push_back("inf");  // the paper's ∞ / thrashing cells
      } else {
        row.push_back(FormatRatio(off.seconds / std::max(on.seconds, 1e-9)));
      }
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  return 0;
}
