// acyclic-ms: the paper's Minesweeper regime (Table 7, Figs 3-5). Warm
// Minesweeper counts of sampled acyclic patterns (3-path, 2-comb,
// 1-tree), each op a PartitionedExecute on one persistent 2-worker
// WorkerPool + ExecScratchPool. The v1/v2 samples of every cell are
// drawn from the seed, with a fixed size per pattern chosen so that all
// cells cost about the same. Time goes into the CDS and morsel
// scheduling; leapfrog and the server do little.

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/workloads.h"
#include "core/atom_index.h"
#include "core/engine.h"
#include "graph/sampling.h"
#include "harness.h"
#include "parallel/partitioned_run.h"
#include "parallel/worker_pool.h"
#include "query/parser.h"
#include "storage/catalog.h"

namespace perfbench {
namespace {

// The uniform-degree mirror: on a skewed one, whether a sample catches a
// hub decides a cell's cost, and cost would swing with the seed.
constexpr char kMirror[] = "p2p-Gnutella31";
constexpr double kScale = 4.0;
constexpr int kWorkers = 2;
constexpr int kGranularity = 8;  // morsels per worker, as the server uses
constexpr int kPairsPerPattern = 3;

struct PatternSpec {
  const char* pattern;  // a PaperWorkloads() name using v1 and v2
  int64_t sample_nodes;
};
// Samples large enough that a cell's cost hardly depends on which nodes
// the seed draws, and an op long enough (50-70 ms here) that a run's
// percentiles move less with the host: against samples of 96/16/128
// (25-40 ms ops), five runs of each, interleaved, spread 8.5% instead of
// 13% at p50 and 14% instead of 22% at p95.
constexpr PatternSpec kPatterns[] = {
    {"3-path", 240},
    {"2-comb", 40},
    {"1-tree", 320},
};

// Records each morsel's Execute as a span on the worker that ran it,
// with the worker thread's CPU time beside its wall time, then forwards
// to the real engine; PartitionedExecute cannot tell the difference.
class MorselSpans : public wcoj::Engine {
 public:
  MorselSpans(const wcoj::Engine& inner, wcoj::ExecScratchPool* pool,
              Tracer* tracer)
      : inner_(inner), pool_(pool), tracer_(tracer) {}

  // Set by the op loop before each PartitionedExecute; the pool's batch
  // hand-off orders these writes before any worker reads them.
  void BeginOp(uint32_t parent, uint32_t op) {
    parent_ = parent;
    op_ = op;
  }

  std::string name() const override { return inner_.name(); }
  wcoj::CatalogWarmup catalog_warmup() const override {
    return inner_.catalog_warmup();
  }
  bool honors_var0_range() const override {
    return inner_.honors_var0_range();
  }
  wcoj::ExecResult Execute(const wcoj::BoundQuery& q,
                           const wcoj::ExecOptions& opts) const override {
    int worker = 0;
    for (int w = 0; w < pool_->size(); ++w) {
      if (pool_->ForWorker(w) == opts.scratch) worker = w;
    }
    ScopedSpan span(tracer_, "core.execute", parent_, op_, worker);
    const int64_t cpu0 = ThreadCpuNs(), wall0 = NowNs();
    wcoj::ExecResult r = inner_.Execute(q, opts);
    wall_ns_ += NowNs() - wall0;
    cpu_ns_ += ThreadCpuNs() - cpu0;
    return r;
  }

  // Summed over every morsel so far: how long the morsels took, and how
  // much of that their worker threads actually spent on a CPU.
  int64_t wall_ns() const { return wall_ns_; }
  int64_t cpu_ns() const { return cpu_ns_; }

 private:
  const wcoj::Engine& inner_;
  wcoj::ExecScratchPool* const pool_;
  Tracer* const tracer_;
  uint32_t parent_ = 0;
  uint32_t op_ = 0;
  mutable std::atomic<int64_t> wall_ns_{0};
  mutable std::atomic<int64_t> cpu_ns_{0};
};

class AcyclicMs : public Workload {
 public:
  explicit AcyclicMs(const Options& opts) : seed_(opts.seed) {}

  void Setup(Tracer* tracer) override {
    cells_.clear();
    db_.reset();
    pool_.reset();
    scratch_.reset();
    mirror_ = LoadMirror(kMirror, kScale, tracer);
    {
      ScopedSpan span(tracer, "graph.relations");
      db_ = std::make_unique<wcoj::Database>();
      db_->Put("edge", mirror_.graph->EdgeRelationSymmetric());
      int rel = 0;
      for (const PatternSpec& p : kPatterns) {
        for (int i = 0; i < kPairsPerPattern; ++i) {
          Cell cell;
          cell.pattern = p.pattern;
          std::string text = wcoj::WorkloadByName(p.pattern).query_text;
          for (const char* v : {"v1(", "v2("}) {
            const std::string name = "s" + std::to_string(rel);
            db_->Put(name, wcoj::SampleNodesExact(*mirror_.graph,
                                                  p.sample_nodes,
                                                  seed_ * 7919 + rel));
            text.replace(text.find(v), 2, name);
            ++rel;
          }
          cell.text = text;
          cells_.push_back(std::move(cell));
        }
      }
    }
    for (Cell& cell : cells_) {
      cell.bound = wcoj::Bind(wcoj::MustParseQuery(cell.text), *db_,
                              wcoj::WorkloadByName(cell.pattern).gao);
      ScopedSpan span(tracer, "storage.index_build");
      wcoj::WarmQueryIndexes(cell.bound);
    }
    engine_ = wcoj::CreateEngine("ms");
    pool_ = std::make_unique<wcoj::WorkerPool>(kWorkers);
    scratch_ = std::make_unique<wcoj::ExecScratchPool>();
    ScopedSpan span(tracer, "bench.warmup");
    for (const Cell& cell : cells_) Execute(*engine_, cell);
  }

  void ComputeReferences(bool corrupt) override {
    refs_.clear();
    const auto reference = wcoj::CreateEngine("yannakakis");
    for (const Cell& cell : cells_) {
      wcoj::BoundQuery q = cell.bound;
      q.catalog = nullptr;
      const wcoj::ExecResult r = reference->Execute(q, wcoj::ExecOptions{});
      refs_.push_back(r.ok() ? static_cast<int64_t>(r.count) : -1);
    }
    if (corrupt) refs_[0] += 1;
  }

  // Ops cost ~60 ms each; the log just needs ample headroom.
  double MaxOpsPerSecond() const override { return 500; }

  void RunPhase(double seconds, Tracer* tracer,
                PhaseResult* result) override {
    PhaseResult& out = *result;
    bool full = false;
    MorselSpans recorder(*engine_, scratch_.get(), tracer);
    const wcoj::Engine& engine =
        tracer != nullptr ? static_cast<const wcoj::Engine&>(recorder)
                          : *engine_;
    wcoj::IndexCatalog* catalog = db_->catalog();
    const uint64_t hits0 = catalog->hits(), builds0 = catalog->builds();
    wcoj::EngineStats stats;
    uint64_t output = 0;
    const int64_t t0 = NowNs();
    const int64_t stop = t0 + static_cast<int64_t>(seconds * 1e9);
    const int num_cells = static_cast<int>(cells_.size());
    uint64_t round = 0;
    uint32_t op = 0;
    while (!full && NowNs() < stop) {
      for (const int c : Shuffled(num_cells, seed_ * 1000003 + round)) {
        const Cell& cell = cells_[c];
        OpRecord rec;
        rec.start_s = static_cast<double>(NowNs() - t0) * 1e-9;
        wcoj::ExecResult r;
        {
          ScopedSpan op_span(tracer, "bench.op", 0, ++op, 0);
          ScopedSpan run_span(tracer, "parallel.partitioned_execute");
          recorder.BeginOp(run_span.id(), op);
          r = Execute(engine, cell);
        }
        rec.end_s = static_cast<double>(NowNs() - t0) * 1e-9;
        rec.ok = r.ok() && static_cast<int64_t>(r.count) == refs_[c];
        if (!rec.ok) {
          out.Fail(cell.text + ": got " + std::to_string(r.count) +
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
      out.counters = {
          {"seeks", static_cast<double>(stats.seeks)},
          {"output", static_cast<double>(output)},
          {"cds_inserts", static_cast<double>(stats.constraints_inserted)},
          {"free_tuples", static_cast<double>(stats.free_tuples)},
          {"gap_cache_hits", static_cast<double>(stats.gap_cache_hits)},
          {"cds_nodes_allocated",
           static_cast<double>(stats.cds_nodes_allocated)},
          {"catalog_hits", static_cast<double>(catalog->hits() - hits0)},
          {"catalog_builds",
           static_cast<double>(catalog->builds() - builds0)},
          {"workers", kWorkers},
          {"morsel_wall_ns", static_cast<double>(recorder.wall_ns())},
          {"morsel_cpu_ns", static_cast<double>(recorder.cpu_ns())},
      };
    }
  }

  std::string MetaJson() const override {
    std::string cells;
    for (const Cell& cell : cells_) {
      if (!cells.empty()) cells += ", ";
      cells += JsonString(cell.text);
    }
    return "\"engine\": \"ms\", \"threads\": " + std::to_string(kWorkers) +
           ", \"granularity\": " + std::to_string(kGranularity) +
           ", \"connections\": 0, \"reference\": \"yannakakis\", "
           "\"mirrors\": [" + MirrorJson(mirror_) + "], \"cells\": [" +
           cells + "]";
  }

 private:
  struct Cell {
    std::string pattern;
    std::string text;
    wcoj::BoundQuery bound;
  };

  wcoj::ExecResult Execute(const wcoj::Engine& engine, const Cell& cell) {
    return wcoj::PartitionedExecute(engine, cell.bound, wcoj::ExecOptions{},
                                    kWorkers, kGranularity, scratch_.get(),
                                    pool_.get());
  }

  const uint64_t seed_;
  Mirror mirror_;
  std::unique_ptr<wcoj::Database> db_;
  std::vector<Cell> cells_;
  std::unique_ptr<wcoj::Engine> engine_;
  std::unique_ptr<wcoj::WorkerPool> pool_;
  std::unique_ptr<wcoj::ExecScratchPool> scratch_;
  std::vector<int64_t> refs_;
};

}  // namespace

std::unique_ptr<Workload> MakeAcyclicMs(const Options& opts) {
  return std::make_unique<AcyclicMs>(opts);
}

}  // namespace perfbench
