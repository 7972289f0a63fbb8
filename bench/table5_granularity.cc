// Table 5: average normalized runtime across partition granularity f
// (§4.10). The output space is split into threads*f ranges of the first
// GAO attribute and executed through the work-stealing job pool; runtimes
// are normalized by the f=1 run and averaged over datasets.

#include "bench/bench_common.h"

#include "core/atom_index.h"
#include "parallel/partitioned_run.h"

int main() {
  using namespace wcoj;
  using namespace wcoj::bench;
  PrintHeader("Table 5: normalized runtime vs. partition granularity f");

  const std::vector<int> granularities = {1, 2, 3, 4, 8, 12, 14};
  const std::vector<std::string> queries = {"3-path",   "4-path",  "2-comb",
                                            "3-clique", "4-clique", "4-cycle"};
  const std::vector<std::string> datasets = {"ca-GrQc", "p2p-Gnutella04",
                                             "wiki-Vote"};
  const int threads = 4;

  std::vector<std::string> header = {"query"};
  for (int f : granularities) header.push_back("f=" + std::to_string(f));
  TextTable table(header);

  for (const auto& qname : queries) {
    std::vector<double> sums(granularities.size(), 0.0);
    std::vector<int> valid(granularities.size(), 0);
    for (const auto& dname : datasets) {
      Graph g = LoadDataset(dname);
      DatasetRelations rels(g);
      rels.Resample(/*selectivity=*/10, /*seed=*/17);
      BoundQuery bq = BindWorkload(WorkloadByName(qname), rels);
      // Make the indexes resident before timing: Table 5 compares
      // partition granularities, so no f-cell may pay the one-off build.
      WarmQueryIndexes(bq);
      std::unique_ptr<Engine> ms = CreateEngine("ms");
      double base = -1.0;
      for (size_t i = 0; i < granularities.size(); ++i) {
        ExecOptions opts;
        opts.deadline = Deadline::AfterSeconds(CellTimeoutSeconds());
        Stopwatch watch;
        ExecResult r =
            PartitionedExecute(*ms, bq, opts, threads, granularities[i]);
        const double secs = watch.ElapsedSeconds();
        if (!r.ok()) continue;
        if (i == 0) base = secs;
        if (base > 0) {
          sums[i] += secs / base;
          ++valid[i];
        }
      }
    }
    std::vector<std::string> row = {qname};
    for (size_t i = 0; i < granularities.size(); ++i) {
      row.push_back(valid[i] ? FormatRatio(sums[i] / valid[i]) : "-");
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("(threads=%d; values are runtime / runtime at f=1)\n", threads);
  return 0;
}
