// Appendix A: the AGM output-size bound for every benchmark query, next to
// the actual output size — worst-case optimality means LFTJ's work is
// O~(N + AGM), so actual/AGM shows how far real graphs sit from the
// worst case.

#include "bench/bench_common.h"

#include <cmath>

#include "query/agm.h"

int main() {
  using namespace wcoj;
  using namespace wcoj::bench;
  PrintHeader("Appendix A: AGM bounds vs actual output sizes");

  Graph g = LoadDataset("ca-GrQc");
  DatasetRelations rels(g);
  rels.Resample(/*selectivity=*/10, /*seed=*/17);

  TextTable table({"query", "AGM bound", "actual", "cover"});
  for (const auto& w : PaperWorkloads()) {
    BoundQuery bq = BindWorkload(w, rels);
    const AgmResult agm = AgmBound(bq);
    const Cell cell = RunCell("lftj", bq);
    std::string cover;
    for (double x : agm.cover) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%.2f ", x);
      cover += buf;
    }
    char bound[32];
    std::snprintf(bound, sizeof(bound), "%.3g", agm.bound);
    table.AddRow({w.name, bound,
                  cell.status.ok() ? std::to_string(cell.count) : "-", cover});
  }
  table.Print();
  return 0;
}
