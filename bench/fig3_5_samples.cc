// Figures 3, 4, 5: 3-path runtime as the node samples v1/v2 grow, on the
// LiveJournal / Pokec / Orkut mirrors. The paper's shape: LFTJ's runtime
// grows steeply with the sample size (redundant sub-path work), while
// Minesweeper's CDS caching flattens the curve; #Minesweeper and the
// hybrid flatten it further.

#include "bench/bench_common.h"

int main() {
  using namespace wcoj;
  using namespace wcoj::bench;
  PrintHeader("Figures 3-5: 3-path vs sample size N (seconds)");

  const std::vector<std::string> datasets = {"soc-LiveJournal1", "soc-Pokec",
                                             "com-Orkut"};
  const std::vector<int64_t> sample_sizes = {4, 16, 64, 256, 1024};
  const std::vector<std::string> engines = {"lftj", "ms", "#ms", "hybrid"};

  for (const auto& dname : datasets) {
    Graph g = LoadDataset(dname);
    std::printf("3-path on %s mirror (%lld nodes, %lld edges):\n",
                dname.c_str(), static_cast<long long>(g.num_nodes()),
                static_cast<long long>(g.num_edges()));
    DatasetRelations rels(g);
    std::vector<std::string> header = {"N"};
    header.insert(header.end(), engines.begin(), engines.end());
    header.push_back("matches");
    TextTable table(header);
    for (int64_t n : sample_sizes) {
      rels.ResampleExact(n, /*seed=*/23);
      BoundQuery bq = BindWorkload(WorkloadByName("3-path"), rels);
      std::vector<std::string> row = {std::to_string(n)};
      std::string matches = "-";
      for (const auto& engine : engines) {
        const Cell cell = RunCell(engine, bq);
        row.push_back(FormatSeconds(cell.seconds, cell.status));
        if (cell.status.ok()) matches = std::to_string(cell.count);
      }
      row.push_back(matches);
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("\n");
  }
  return 0;
}
