// The paper's tables and figures (Tables 1-7, Figures 3-7, Appendix A)
// from one declarative list:
//
//   paper_tables [table...]    # names from PaperTables(); none = all
//
// A cell is one query on one dataset and sample: a selectivity, an exact
// node count, or an edge prefix of the LiveJournal mirror. Its runs are
// engines, GAOs (Table 4) or partition granularities (Table 5). Every
// run that answers must give the same count, at most the query's AGM
// bound; a cell that breaks this is printed and the driver exits 1.
// Cells that fewer than two runs answered are listed as unchecked.
//
// Knobs mirror §5.1 scaled to one core:
//   WCOJ_SCALE        dataset scale multiplier (default 1.0)
//   WCOJ_TIMEOUT      per-run timeout in seconds (default 5; paper: 1800)
//   WCOJ_T7_DATASETS  comma list of Table 7's datasets
// Runs that time out or refuse the query render as "-", like the
// paper's tables. Every invocation writes paper_ledger.tsv (see
// bench_util/ledger.h) to the working directory.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util/ledger.h"
#include "bench_util/table.h"
#include "bench_util/workloads.h"
#include "core/atom_index.h"
#include "graph/datasets.h"
#include "parallel/partitioned_run.h"
#include "query/agm.h"
#include "util/stopwatch.h"

namespace wcoj {
namespace {

constexpr int kThreads = 4;  // Table 5's worker count

double CellTimeoutSeconds() {
  const char* env = std::getenv("WCOJ_TIMEOUT");
  const double v = env == nullptr ? 0.0 : std::atof(env);
  return v > 0 ? v : 5.0;
}

enum class Sample {
  kNone,         // the dataset as is (one sample, 0)
  kSelectivity,  // v1..v4 at each listed selectivity
  kSection51,    // §5.1: selectivities 8, 80 on small datasets, else 10,
                 // 100, 1000
  kExactNodes,   // v1..v4 of exactly N nodes (Figures 3-5)
  kEdgePrefix,   // the first 1000·4^k edges, then the whole graph
};

struct Run {
  std::string engine;
  std::string gao;      // one letter per variable; empty: the workload's
  int granularity = 0;  // > 0: PartitionedExecute on kThreads workers
};

struct Cell {
  std::string dataset, query;
  double sample = 0;
  int64_t nodes = 0, edges = 0;
  AgmResult agm;
  std::vector<CellRun> runs;  // one per Table::runs entry
};

struct Table {
  std::string name, title;
  std::vector<std::string> datasets;
  Sample sample;
  std::vector<double> samples;
  std::vector<std::string> queries;
  std::vector<Run> runs;
  void (*print)(const Table&, const std::vector<Cell>&);
};

std::string RunName(const Run& run) {
  if (run.granularity > 0) return "f=" + std::to_string(run.granularity);
  return run.gao.empty() ? run.engine : run.gao;
}

// Cells measure the paper's warm regime (LogicBlox's indexes are
// resident before any timed query runs): GAO-index engines get their
// indexes made resident cheaply via WarmQueryIndexes; the pairwise
// baselines probe plan-dependent permutations instead, which only a
// real execution touches, so they warm up with one untimed run (their
// timeout cells therefore cost up to 2x the timeout).
CellRun RunCell(const Run& run, const BoundQuery& bq) {
  std::unique_ptr<Engine> engine = CreateEngine(run.engine);
  ExecOptions opts;
  opts.deadline = Deadline::AfterSeconds(CellTimeoutSeconds());
  switch (engine->catalog_warmup()) {
    case CatalogWarmup::kGaoIndexes:
      WarmQueryIndexes(bq);
      break;
    case CatalogWarmup::kByExecution:
      engine->Execute(bq, opts);  // untimed warm-up, same timeout bound
      opts.deadline = Deadline::AfterSeconds(CellTimeoutSeconds());
      break;
    case CatalogWarmup::kNone:
      break;
  }
  CellRun out{RunName(run), {}, run.granularity == 0};
  if (run.granularity == 0) {
    out.result = RunTimed(*engine, bq, opts);
  } else {
    Stopwatch watch;
    out.result =
        PartitionedExecute(*engine, bq, opts, kThreads, run.granularity);
    out.result.seconds = watch.ElapsedSeconds();
  }
  return out;
}

std::vector<double> Samples(const Table& t, const std::string& dataset,
                            const Graph& g) {
  switch (t.sample) {
    case Sample::kSection51:
      if (DatasetByName(dataset).small) return {8, 80};
      return {10, 100, 1000};
    case Sample::kEdgePrefix: {
      std::vector<double> sizes;
      for (int64_t n = 1000; n < g.num_edges(); n *= 4) sizes.push_back(n);
      sizes.push_back(g.num_edges());
      return sizes;
    }
    case Sample::kExactNodes: {
      // N at or above the graph's node count keeps every node: clamp N so
      // the cell key shows the sample that ran, and run it once.
      std::vector<double> sizes;
      for (const double n : t.samples) {
        const double kept = std::min(n, static_cast<double>(g.num_nodes()));
        if (sizes.empty() || sizes.back() != kept) sizes.push_back(kept);
      }
      return sizes;
    }
    default:
      return t.samples;
  }
}

Graph EdgePrefix(const Graph& g, int64_t num_edges) {
  Graph sub(g.num_nodes());
  for (int64_t i = 0; i < std::min(num_edges, g.num_edges()); ++i) {
    sub.AddEdge(g.edges()[i].first, g.edges()[i].second);
  }
  sub.Build();
  return sub;
}

std::string CellKey(const Table& t, const Cell& c) {
  static const char* const kSampleName[] = {"", "sel=", "sel=", "N=",
                                            "edges="};
  std::string key = c.dataset + "/";
  if (t.sample != Sample::kNone) {
    key += kSampleName[static_cast<int>(t.sample)] +
           std::to_string(static_cast<int64_t>(c.sample)) + "/";
  }
  return key + c.query;
}

// ---- printers: each table's paper-shaped layout over its cells ----

std::vector<std::string> Row(std::vector<std::string> head,
                             const std::vector<std::string>& tail) {
  head.insert(head.end(), tail.begin(), tail.end());
  return head;
}

std::vector<std::string> RunNames(const Table& t) {
  std::vector<std::string> names;
  for (const Run& run : t.runs) names.push_back(RunName(run));
  return names;
}

std::vector<std::string> Seconds(const Cell& c) {
  std::vector<std::string> out;
  for (const CellRun& run : c.runs) {
    out.push_back(FormatSeconds(run.result.seconds, run.result.status));
  }
  return out;
}

// The cell's answer; the agreement check makes every OK run's equal.
std::string Answer(const Cell& c) {
  for (const CellRun& run : c.runs) {
    if (run.result.ok()) return std::to_string(run.result.count);
  }
  return "-";
}

// Tables 1-3: the speedup of runs[0] (all ideas on) over each ablation,
// "-" when runs[0] did not answer and "inf" when the ablation did not
// (the paper's ∞ / thrashing cells).
void PrintSpeedups(const Table& t, const std::vector<Cell>& cells) {
  for (size_t i = 1; i < t.runs.size(); ++i) {
    std::printf("speedup = %s / %s:\n", t.runs[i].engine.c_str(),
                t.runs[0].engine.c_str());
    TextTable table(Row({"query"}, t.datasets));
    for (const std::string& q : t.queries) {
      std::vector<std::string> row = {q};
      for (const Cell& c : cells) {
        if (c.query != q) continue;
        const ExecResult& on = c.runs[0].result;
        const ExecResult& off = c.runs[i].result;
        row.push_back(!on.ok()    ? "-"
                      : !off.ok() ? "inf"
                                  : FormatRatio(off.seconds /
                                                std::max(on.seconds, 1e-9)));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("\n");
  }
}

void PrintGaos(const Table& t, const std::vector<Cell>& cells) {
  TextTable table(Row(Row({"dataset"}, RunNames(t)), {"edges"}));
  for (const Cell& c : cells) {
    table.AddRow(Row(Row({c.dataset}, Seconds(c)), {std::to_string(c.edges)}));
  }
  table.Print();
  std::printf("(first five columns are NEO GAOs, last two are non-NEO)\n");
}

// Table 5: runtime / runtime at runs[0] (f=1), averaged over datasets.
void PrintGranularity(const Table& t, const std::vector<Cell>& cells) {
  TextTable table(Row({"query"}, RunNames(t)));
  for (const std::string& q : t.queries) {
    std::vector<double> sums(t.runs.size(), 0.0);
    std::vector<int> valid(t.runs.size(), 0);
    for (const Cell& c : cells) {
      if (c.query != q || !c.runs[0].result.ok()) continue;
      for (size_t i = 0; i < c.runs.size(); ++i) {
        if (!c.runs[i].result.ok()) continue;
        sums[i] += c.runs[i].result.seconds /
                   std::max(c.runs[0].result.seconds, 1e-9);
        ++valid[i];
      }
    }
    std::vector<std::string> row = {q};
    for (size_t i = 0; i < t.runs.size(); ++i) {
      row.push_back(valid[i] ? FormatRatio(sums[i] / valid[i]) : "-");
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("(threads=%d; values are runtime / runtime at f=1)\n", kThreads);
}

// Table 6: one block per query, one row per engine, one column per
// dataset.
void PrintEngineRows(const Table& t, const std::vector<Cell>& cells) {
  for (const std::string& q : t.queries) {
    std::printf("%s:\n", q.c_str());
    TextTable table(Row({"engine"}, t.datasets));
    for (size_t i = 0; i < t.runs.size(); ++i) {
      std::vector<std::string> row = {t.runs[i].engine};
      for (const Cell& c : cells) {
        if (c.query == q) row.push_back(Seconds(c)[i]);
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("\n");
  }
}

void PrintTable7(const Table& t, const std::vector<Cell>& cells) {
  for (const std::string& q : t.queries) {
    std::printf("%s:\n", q.c_str());
    TextTable table(Row({"dataset", "sel"}, RunNames(t)));
    for (const Cell& c : cells) {
      if (c.query != q) continue;
      table.AddRow(Row({c.dataset, std::to_string(static_cast<int>(c.sample))},
                       Seconds(c)));
    }
    table.Print();
    std::printf("\n");
  }
}

void PrintFigures3To5(const Table& t, const std::vector<Cell>& cells) {
  for (const std::string& d : t.datasets) {
    const auto first =
        std::find_if(cells.begin(), cells.end(),
                     [&](const Cell& c) { return c.dataset == d; });
    std::printf("3-path on %s mirror (%lld nodes, %lld edges):\n", d.c_str(),
                static_cast<long long>(first->nodes),
                static_cast<long long>(first->edges));
    TextTable table(Row(Row({"N"}, RunNames(t)), {"matches"}));
    for (const Cell& c : cells) {
      if (c.dataset != d) continue;
      table.AddRow(Row(Row({std::to_string(static_cast<int64_t>(c.sample))},
                           Seconds(c)),
                       {Answer(c)}));
    }
    table.Print();
    std::printf("\n");
  }
}

void PrintFigures6To7(const Table& t, const std::vector<Cell>& cells) {
  for (const std::string& q : t.queries) {
    std::printf("%s on LiveJournal-mirror subsets:\n", q.c_str());
    TextTable table(Row({"edges"}, RunNames(t)));
    for (const Cell& c : cells) {
      if (c.query != q) continue;
      table.AddRow(Row({std::to_string(c.edges)}, Seconds(c)));
    }
    table.Print();
    std::printf("\n");
  }
}

// Appendix A: worst-case optimality means LFTJ's work is O~(N + AGM),
// so the actual size next to the bound shows how far real graphs sit
// from the worst case.
void PrintAgm(const Table&, const std::vector<Cell>& cells) {
  TextTable table({"query", "AGM bound", "actual", "cover"});
  for (const Cell& c : cells) {
    char buf[32];
    std::string cover;
    for (const double x : c.agm.cover) {
      std::snprintf(buf, sizeof(buf), "%.2f ", x);
      cover += buf;
    }
    std::snprintf(buf, sizeof(buf), "%.3g", c.agm.bound);
    table.AddRow({c.query, buf, Answer(c), cover});
  }
  table.Print();
}

// ---- the cell list ----

std::vector<Run> Engines(std::initializer_list<const char*> names) {
  std::vector<Run> runs;
  for (const char* name : names) runs.push_back({name, "", 0});
  return runs;
}

// One dataset per skew/size class by default; the paper's full grid is
// reachable through WCOJ_T7_DATASETS=<comma list of all 15>.
std::vector<std::string> Table7Datasets() {
  const char* env = std::getenv("WCOJ_T7_DATASETS");
  if (env == nullptr) {
    return {"ca-GrQc", "ego-Facebook", "wiki-Vote", "soc-LiveJournal1"};
  }
  std::vector<std::string> names;
  std::stringstream list(env);
  for (std::string name; std::getline(list, name, ',');) names.push_back(name);
  return names;
}

std::vector<Table> PaperTables() {
  std::vector<std::string> all;
  for (const DatasetSpec& spec : AllDatasets()) all.push_back(spec.name);
  // AllDatasets() lists the three giants (Pokec, LiveJournal, Orkut)
  // last; Tables 1-3 leave them out.
  const std::vector<std::string> twelve(all.begin(), all.end() - 3);
  const std::vector<std::string> acyclic = {"2-comb", "3-path", "4-path"};
  const std::vector<std::string> cyclic = {"3-clique", "4-clique", "4-cycle"};
  std::vector<std::string> workloads;
  for (const Workload& w : PaperWorkloads()) workloads.push_back(w.name);
  // Table 4: five nested-elimination orders (chain-mode CDS), then two
  // non-NEO orders (the poset regime).
  std::vector<Run> gaos, granularities;
  for (const char* gao :
       {"abcde", "bacde", "bcade", "cbade", "cbdae", "abdce", "badce"}) {
    gaos.push_back({"ms", gao, 0});
  }
  for (const int f : {1, 2, 3, 4, 8, 12, 14}) {
    granularities.push_back({"ms", "", f});
  }
  return {
      {"table1", "Table 1: Minesweeper speedup from Idea 4 and Ideas 4&6",
       twelve, Sample::kSelectivity, {100}, acyclic,
       Engines({"ms", "ms-noidea4", "ms-noidea46"}), PrintSpeedups},
      {"table2", "Table 2: Ideas 4&6 speedup, selectivity 10", twelve,
       Sample::kSelectivity, {10}, acyclic, Engines({"ms", "ms-noidea46"}),
       PrintSpeedups},
      {"table3", "Table 3: Minesweeper speedup from Idea 7 (skeleton)",
       twelve, Sample::kNone, {0}, cyclic, Engines({"ms", "ms-noidea7"}),
       PrintSpeedups},
      // The paper's Table 4 uses the first eight datasets.
      {"table4", "Table 4: Minesweeper on 4-path under different GAOs",
       {"ca-GrQc", "p2p-Gnutella04", "ego-Facebook", "ca-CondMat",
        "wiki-Vote", "p2p-Gnutella31", "email-Enron", "loc-Brightkite"},
       Sample::kSelectivity, {10}, {"4-path"}, gaos, PrintGaos},
      {"table5", "Table 5: normalized runtime vs. partition granularity f",
       {"ca-GrQc", "p2p-Gnutella04", "wiki-Vote"}, Sample::kSelectivity,
       {10}, {"3-path", "4-path", "2-comb", "3-clique", "4-clique", "4-cycle"},
       granularities, PrintGranularity},
      {"table6", "Table 6: cyclic queries (seconds)", all,
       Sample::kNone, {0}, cyclic,
       Engines({"lftj", "ms", "psql", "monetdb", "clique"}), PrintEngineRows},
      {"table7", "Table 7: acyclic & lollipop queries (seconds)",
       Table7Datasets(), Sample::kSection51, {},
       {"3-path", "4-path", "1-tree", "2-tree", "2-comb", "2-lollipop",
        "3-lollipop"},
       Engines({"lftj", "ms", "#ms", "hybrid", "psql", "monetdb"}),
       PrintTable7},
      {"fig3_5", "Figures 3-5: 3-path vs sample size N (seconds)",
       {"soc-LiveJournal1", "soc-Pokec", "com-Orkut"}, Sample::kExactNodes,
       {4, 16, 64, 256, 1024}, {"3-path"},
       Engines({"lftj", "ms", "#ms", "hybrid"}), PrintFigures3To5},
      {"fig6_7", "Figures 6-7: {3,4}-clique vs LiveJournal edge-subset size",
       {"soc-LiveJournal1"}, Sample::kEdgePrefix, {}, {"3-clique", "4-clique"},
       Engines({"lftj", "ms", "psql", "monetdb", "clique"}), PrintFigures6To7},
      {"appendix_a", "Appendix A: AGM bounds vs actual output sizes",
       {"ca-GrQc"}, Sample::kSelectivity, {10}, workloads,
       Engines({"lftj", "ms"}), PrintAgm},
  };
}

}  // namespace
}  // namespace wcoj

int main(int argc, char** argv) {
  using namespace wcoj;
  const std::vector<Table> tables = PaperTables();
  for (int i = 1; i < argc; ++i) {
    if (std::none_of(tables.begin(), tables.end(),
                     [&](const Table& t) { return t.name == argv[i]; })) {
      std::fprintf(stderr, "unknown table '%s'; known:", argv[i]);
      for (const Table& t : tables) std::fprintf(stderr, " %s", t.name.c_str());
      std::fprintf(stderr, "\n");
      return 2;
    }
  }

  std::string ledger = kLedgerHeader;
  std::vector<std::string> unchecked;
  int disagreements = 0;
  for (const Table& t : tables) {
    if (argc > 1 && std::find(argv + 1, argv + argc, t.name) == argv + argc) {
      continue;
    }
    std::printf("\n=== %s ===\n", t.title.c_str());
    std::printf(
        "(WCOJ_SCALE=%.2f, per-cell timeout %.1fs; \"-\" = timeout)\n\n",
        EnvScale(), CellTimeoutSeconds());
    std::vector<Cell> cells;
    for (const std::string& dataset : t.datasets) {
      const Graph full = LoadDataset(dataset);
      for (const double s : Samples(t, dataset, full)) {
        const Graph g = t.sample == Sample::kEdgePrefix
                            ? EdgePrefix(full, static_cast<int64_t>(s))
                            : full;
        DatasetRelations rels(g);
        if (t.sample == Sample::kExactNodes) {
          rels.ResampleExact(static_cast<int64_t>(s), /*seed=*/23);
        } else if (t.sample == Sample::kSelectivity ||
                   t.sample == Sample::kSection51) {
          rels.Resample(s, /*seed=*/17);
        }
        for (const std::string& query : t.queries) {
          Cell& c = cells.emplace_back(
              Cell{dataset, query, s, g.num_nodes(), g.num_edges(), {}, {}});
          c.agm = AgmBound(BindWorkload(WorkloadByName(query), rels));
          for (const Run& run : t.runs) {
            Workload w = WorkloadByName(query);
            if (!run.gao.empty()) w.gao.clear();
            for (const char v : run.gao) w.gao.emplace_back(1, v);
            c.runs.push_back(RunCell(run, BindWorkload(w, rels)));
          }
          const std::string key = CellKey(t, c);
          ledger += LedgerRows(t.name, key, c.runs);
          const CellCheck check = CheckCell(c.runs, c.agm.bound);
          if (check.answered < 2) {
            unchecked.push_back(t.name + " " + key + " (" +
                                std::to_string(check.answered) + " answered)");
          }
          if (!check.agrees) {
            ++disagreements;
            std::printf("DISAGREE (AGM bound %.3g):\n%s", c.agm.bound,
                        LedgerRows(t.name, key, c.runs).c_str());
          }
        }
      }
    }
    t.print(t, cells);
  }

  std::ofstream out("paper_ledger.tsv");
  out << ledger;
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write paper_ledger.tsv\n");
    return 1;
  }
  std::printf("\n%zu cells answered by fewer than two runs (unchecked):\n",
              unchecked.size());
  for (const std::string& line : unchecked) std::printf("  %s\n", line.c_str());
  std::printf("%d disagreeing cells; ledger written to paper_ledger.tsv\n",
              disagreements);
  return disagreements == 0 ? 0 : 1;
}
