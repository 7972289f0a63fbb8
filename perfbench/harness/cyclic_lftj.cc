// cyclic-lftj: the paper's Table 6 regime. One caller counts 3-cliques,
// 4-cycles and 4-cliques with warm LFTJ over resident catalogs, one warm
// ExecScratch, round-robin over (mirror, pattern) cells picked so every
// cell costs about the same; each round visits every cell once, in a
// seeded order. Time goes into storage seeks and core leapfrog; the CDS,
// parallel, server and index builds are bypassed.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/clique_engine.h"
#include "bench_util/workloads.h"
#include "core/atom_index.h"
#include "core/engine.h"
#include "harness.h"

namespace perfbench {
namespace {

struct CellSpec {
  const char* mirror;
  double scale;
  const char* pattern;  // a PaperWorkloads() name
};

// Cells of similar warm LFTJ cost: the dense 3-clique on the largest
// mirrors, the costlier 4-cycle and 4-clique on mid-size ones. An odd
// cell count keeps the median inside one cell's distribution instead of
// on the boundary between two.
constexpr CellSpec kCells[] = {
    {"soc-Pokec", 0.5, "3-clique"},
    {"soc-LiveJournal1", 0.5, "3-clique"},
    {"com-Orkut", 0.5, "3-clique"},
    {"loc-Brightkite", 0.6, "4-cycle"},
    {"email-Enron", 0.7, "4-cycle"},
    {"soc-Epinions1", 0.5, "4-cycle"},
    {"loc-Brightkite", 0.9, "4-clique"},
    {"email-Enron", 0.9, "4-clique"},
    {"soc-Epinions1", 0.8, "4-clique"},
};
constexpr int kNumCells = sizeof(kCells) / sizeof(kCells[0]);

class CyclicLftj : public Workload {
 public:
  explicit CyclicLftj(const Options& opts) : seed_(opts.seed) {}

  void Setup(Tracer* tracer) override {
    cells_.clear();
    mirrors_.clear();
    engine_ = wcoj::CreateEngine("lftj");
    scratch_ = std::make_unique<wcoj::ExecScratch>();
    for (const CellSpec& spec : kCells) {
      const std::string key =
          std::string(spec.mirror) + "@" + std::to_string(spec.scale);
      auto it = mirrors_.find(key);
      if (it == mirrors_.end()) {
        auto data = std::make_unique<MirrorData>();
        data->mirror = LoadMirror(spec.mirror, spec.scale, tracer);
        {
          ScopedSpan span(tracer, "graph.relations");
          data->rels =
              std::make_unique<wcoj::DatasetRelations>(*data->mirror.graph);
        }
        it = mirrors_.emplace(key, std::move(data)).first;
      }
      Cell cell;
      cell.spec = &spec;
      cell.data = it->second.get();
      cell.bound = wcoj::BindWorkload(wcoj::WorkloadByName(spec.pattern),
                                      *cell.data->rels);
      {
        ScopedSpan span(tracer, "storage.index_build");
        wcoj::WarmQueryIndexes(cell.bound);
      }
      cells_.push_back(std::move(cell));
    }
    ScopedSpan span(tracer, "bench.warmup");
    for (Cell& cell : cells_) Execute(cell);
  }

  void ComputeReferences(bool corrupt) override {
    refs_.clear();
    for (Cell& cell : cells_) {
      // Reference engines run without the catalog, so the measured
      // catalog holds exactly what LFTJ built.
      wcoj::BoundQuery q = cell.bound;
      q.catalog = nullptr;
      const char* name =
          wcoj::CliqueEngine::Supports(q) ? "clique" : "psql";
      const wcoj::ExecResult r =
          wcoj::CreateEngine(name)->Execute(q, wcoj::ExecOptions{});
      refs_.push_back(r.ok() ? static_cast<int64_t>(r.count) : -1);
    }
    if (corrupt) refs_[0] += 1;
  }

  // Ops cost ~30 ms each; the log just needs ample headroom.
  double MaxOpsPerSecond() const override { return 500; }

  void RunPhase(double seconds, Tracer* tracer,
                PhaseResult* result) override {
    PhaseResult& out = *result;
    bool full = false;
    uint64_t hits0 = 0, builds0 = 0;
    CatalogTotals(&hits0, &builds0);
    wcoj::EngineStats stats;
    uint64_t output = 0;
    const int64_t t0 = NowNs();
    const int64_t stop = t0 + static_cast<int64_t>(seconds * 1e9);
    uint64_t round = 0;
    uint32_t op = 0;
    while (!full && NowNs() < stop) {
      for (const int c : Shuffled(kNumCells, seed_ * 1000003 + round)) {
        Cell& cell = cells_[c];
        OpRecord rec;
        rec.start_s = static_cast<double>(NowNs() - t0) * 1e-9;
        wcoj::ExecResult r;
        {
          ScopedSpan op_span(tracer, "bench.op", 0, ++op, 0);
          ScopedSpan exec_span(tracer, "core.execute");
          r = Execute(cell);
        }
        rec.end_s = static_cast<double>(NowNs() - t0) * 1e-9;
        rec.ok = r.ok() && static_cast<int64_t>(r.count) == refs_[c];
        if (!rec.ok) {
          out.Fail(std::string(cell.spec->pattern) + " on " +
                   cell.spec->mirror + ": got " + std::to_string(r.count) +
                   " expected " + std::to_string(refs_[c]) + " status " +
                   r.status.ToString());
        }
        if (tracer != nullptr) {
          stats.Add(r.stats);
          output += r.count;
        }
        if (!out.Add(rec)) {
          full = true;
          break;
        }
      }
      ++round;
    }
    out.elapsed_s = static_cast<double>(NowNs() - t0) * 1e-9;
    if (tracer != nullptr) {
      uint64_t hits1 = 0, builds1 = 0;
      CatalogTotals(&hits1, &builds1);
      out.counters = {
          {"seeks", static_cast<double>(stats.seeks)},
          {"output", static_cast<double>(output)},
          {"catalog_hits", static_cast<double>(hits1 - hits0)},
          {"catalog_builds", static_cast<double>(builds1 - builds0)},
      };
    }
  }

  std::string MetaJson() const override {
    std::string cells;
    for (const Cell& cell : cells_) {
      if (!cells.empty()) cells += ", ";
      cells += "{\"mirror\": " + MirrorJson(cell.data->mirror) +
               ", \"pattern\": " + JsonString(cell.spec->pattern) + "}";
    }
    return "\"engine\": \"lftj\", \"threads\": 1, \"connections\": 0, "
           "\"reference\": \"clique (cliques), psql (4-cycle)\", "
           "\"cells\": [" + cells + "]";
  }

 private:
  struct MirrorData {
    Mirror mirror;
    std::unique_ptr<wcoj::DatasetRelations> rels;
  };
  struct Cell {
    const CellSpec* spec = nullptr;
    MirrorData* data = nullptr;
    wcoj::BoundQuery bound;
  };

  wcoj::ExecResult Execute(const Cell& cell) {
    wcoj::ExecOptions opts;
    opts.scratch = scratch_.get();
    return engine_->Execute(cell.bound, opts);
  }

  void CatalogTotals(uint64_t* hits, uint64_t* builds) const {
    for (const auto& [key, data] : mirrors_) {
      *hits += data->rels->catalog()->hits();
      *builds += data->rels->catalog()->builds();
    }
  }

  const uint64_t seed_;
  // Declared before cells_, which point into them.
  std::map<std::string, std::unique_ptr<MirrorData>> mirrors_;
  std::vector<Cell> cells_;
  std::unique_ptr<wcoj::Engine> engine_;
  std::unique_ptr<wcoj::ExecScratch> scratch_;
  std::vector<int64_t> refs_;
};

}  // namespace

std::unique_ptr<Workload> MakeCyclicLftj(const Options& opts) {
  return std::make_unique<CyclicLftj>(opts);
}

}  // namespace perfbench
