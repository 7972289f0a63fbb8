#include "bench_util/workloads.h"

#include <cassert>
#include <cstdio>

#include "graph/generators.h"
#include "graph/sampling.h"
#include "query/parser.h"

namespace wcoj {

const std::vector<Workload>& PaperWorkloads() {
  static const std::vector<Workload>* const kWorkloads =
      new std::vector<Workload>{  // wcoj-lint: allow(naked-new) -- leaked static singleton
          {"3-clique",
           "edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)",
           {"a", "b", "c"},
           /*cyclic=*/true,
           0},
          {"4-clique",
           "edge_lt(a,b), edge_lt(a,c), edge_lt(a,d), edge_lt(b,c), "
           "edge_lt(b,d), edge_lt(c,d)",
           {"a", "b", "c", "d"},
           true,
           0},
          {"4-cycle",
           "edge_lt(a,b), edge_lt(b,c), edge_lt(c,d), edge_lt(a,d)",
           {"a", "b", "c", "d"},
           true,
           0},
          {"3-path",
           "v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)",
           {"a", "b", "c", "d"},
           false,
           2},
          {"4-path",
           "v1(a), v2(e), edge(a,b), edge(b,c), edge(c,d), edge(d,e)",
           {"a", "b", "c", "d", "e"},
           false,
           2},
          {"1-tree",
           "v1(b), v2(c), edge(a,b), edge(a,c)",
           {"a", "b", "c"},
           false,
           2},
          {"2-tree",
           "v1(d), v2(e), v3(f), v4(g), edge(a,b), edge(a,c), edge(b,d), "
           "edge(b,e), edge(c,f), edge(c,g)",
           {"a", "b", "c", "d", "e", "f", "g"},
           false,
           4},
          {"2-comb",
           "v1(c), v2(d), edge(a,b), edge(a,c), edge(b,d)",
           {"a", "b", "c", "d"},
           false,
           2},
          {"2-lollipop",
           "v1(a), edge(a,b), edge(b,c), edge(c,d), edge(d,e), edge(c,e)",
           {"a", "b", "c", "d", "e"},
           true,  // clique tail makes it β-cyclic
           1},
          {"3-lollipop",
           "v1(a), edge(a,b), edge(b,c), edge(c,d), edge(d,e), edge(d,f), "
           "edge(d,g), edge(e,f), edge(e,g), edge(f,g)",
           {"a", "b", "c", "d", "e", "f", "g"},
           true,
           1},
      };
  return *kWorkloads;
}

const Workload& WorkloadByName(const std::string& name) {
  for (const auto& w : PaperWorkloads()) {
    if (w.name == name) return w;
  }
  assert(false && "unknown workload");
  __builtin_trap();
}

namespace {
const char* const kSampleNames[] = {"v1", "v2", "v3", "v4"};
}  // namespace

DatasetRelations::DatasetRelations(const Graph& g) : graph_(&g) {
  Put("edge", g.EdgeRelationSymmetric());
  Put("edge_lt", g.EdgeRelationOriented());
  Put("node", g.NodeRelation());
  Resample(/*selectivity=*/1.0, /*seed=*/0);
}

void DatasetRelations::Resample(double selectivity, uint64_t seed) {
  for (int i = 0; i < 4; ++i) {
    Put(kSampleNames[i], SampleNodes(*graph_, selectivity, seed * 4 + i + 1));
  }
}

void DatasetRelations::ResampleExact(int64_t count, uint64_t seed) {
  for (int i = 0; i < 4; ++i) {
    Put(kSampleNames[i], SampleNodesExact(*graph_, count, seed * 4 + i + 1));
  }
}

ToolsDataset::ToolsDataset()
    : graph(Rmat(/*scale=*/12, /*num_edges=*/40000, 0.45, 0.2, 0.2,
                 /*seed=*/7)),
      rels(graph) {
  rels.Resample(/*selectivity=*/10.0, /*seed=*/1);
}

Status LoadCatalogReported(Database* db, const std::string& dir) {
  CatalogOpenStats open_stats;
  const size_t n = db->LoadCatalog(dir, &open_stats);
  if (!open_stats.status.ok()) {
    std::fprintf(stderr, "load-catalog: %s\n",
                 open_stats.status.ToString().c_str());
    return open_stats.status;
  }
  std::printf("loaded catalog: %zu mmap-backed indexes from %s "
              "(catalog_open_skipped=%zu)\n",
              n, dir.c_str(), open_stats.skipped);
  for (const std::string& line : open_stats.skip_log) {
    std::fprintf(stderr, "load-catalog skip: %s\n", line.c_str());
  }
  return OkStatus();
}

BoundQuery BindWorkload(const Workload& w, const DatasetRelations& rels) {
  const Query q = MustParseQuery(w.query_text);
  BoundQuery bq = Bind(q, rels.Map(), w.gao);
  bq.catalog = rels.catalog();
  return bq;
}

}  // namespace wcoj
