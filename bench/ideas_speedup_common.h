#ifndef WCOJ_BENCH_IDEAS_SPEEDUP_COMMON_H_
#define WCOJ_BENCH_IDEAS_SPEEDUP_COMMON_H_

// Shared driver for Tables 1 and 2: speedup of Minesweeper from Idea 4
// (seekGap cache) and Ideas 4&6 (plus complete nodes) on the acyclic
// workloads 2-comb / 3-path / 4-path across the 12 SNAP-mirror datasets.
// Speedup = time(ms with the ideas off) / time(ms with them on).

#include "bench/bench_common.h"

namespace wcoj::bench {

inline void RunIdeasSpeedupTable(double selectivity, bool idea4_only_block) {
  const std::vector<std::string> queries = {"2-comb", "3-path", "4-path"};
  const std::vector<std::string> datasets = SmallAndMediumDatasets();

  auto block = [&](const std::string& off_engine, const std::string& label) {
    std::printf("%s (speedup = %s / ms):\n", label.c_str(),
                off_engine.c_str());
    std::vector<std::string> header = {"query"};
    header.insert(header.end(), datasets.begin(), datasets.end());
    TextTable table(header);
    for (const auto& qname : queries) {
      std::vector<std::string> row = {qname};
      for (const auto& dname : datasets) {
        Graph g = LoadDataset(dname);
        DatasetRelations rels(g);
        rels.Resample(selectivity, /*seed=*/17);
        BoundQuery bq = BindWorkload(WorkloadByName(qname), rels);
        const Cell on = RunCell("ms", bq);
        const Cell off = RunCell(off_engine, bq);
        if (!on.status.ok()) {
          row.push_back("-");
        } else if (!off.status.ok()) {
          row.push_back("inf");
        } else {
          row.push_back(FormatRatio(off.seconds / std::max(on.seconds, 1e-9)));
        }
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("\n");
  };

  if (idea4_only_block) block("ms-noidea4", "Idea 4");
  block("ms-noidea46", "Ideas 4&6");
}

}  // namespace wcoj::bench

#endif  // WCOJ_BENCH_IDEAS_SPEEDUP_COMMON_H_
