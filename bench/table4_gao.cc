// Table 4: Minesweeper runtime on the 4-path query under the paper's
// seven representative GAOs — five nested-elimination orders (ABCDE...
// CBDAE) and two non-NEO orders (ABDCE, BADCE). NEO orders keep the CDS
// in chain mode; non-NEO orders fall into the poset regime and are
// dramatically slower.

#include "bench/bench_common.h"

#include "query/hypergraph.h"
#include "query/parser.h"

int main() {
  using namespace wcoj;
  using namespace wcoj::bench;
  PrintHeader("Table 4: Minesweeper on 4-path under different GAOs");

  const std::vector<std::vector<std::string>> gaos = {
      {"a", "b", "c", "d", "e"}, {"b", "a", "c", "d", "e"},
      {"b", "c", "a", "d", "e"}, {"c", "b", "a", "d", "e"},
      {"c", "b", "d", "a", "e"}, {"a", "b", "d", "c", "e"},
      {"b", "a", "d", "c", "e"},
  };
  // The paper's Table 4 uses the first eight datasets.
  const std::vector<std::string> datasets = {
      "ca-GrQc",    "p2p-Gnutella04", "ego-Facebook", "ca-CondMat",
      "wiki-Vote",  "p2p-Gnutella31", "email-Enron",  "loc-Brightkite"};

  Query query = MustParseQuery(WorkloadByName("4-path").query_text);

  std::vector<std::string> header = {"dataset"};
  for (const auto& gao : gaos) {
    std::string name;
    for (const auto& v : gao) name += v;
    header.push_back(name);
  }
  header.push_back("edges");
  TextTable table(header);

  for (const auto& dname : datasets) {
    Graph g = LoadDataset(dname);
    DatasetRelations rels(g);
    rels.Resample(/*selectivity=*/10, /*seed=*/17);
    std::vector<std::string> row = {dname};
    for (const auto& gao : gaos) {
      BoundQuery bq = Bind(query, rels.Map(), gao);
      std::unique_ptr<Engine> ms = CreateEngine("ms");
      ExecOptions opts;
      opts.deadline = Deadline::AfterSeconds(CellTimeoutSeconds());
      const ExecResult r = RunTimed(*ms, bq, opts);
      row.push_back(FormatSeconds(r.seconds, r.status));
    }
    row.push_back(std::to_string(g.num_edges()));
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("(first five columns are NEO GAOs, last two are non-NEO)\n");
  return 0;
}
