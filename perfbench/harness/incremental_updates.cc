// incremental-updates: the write side of storage. An LFTJ
// IncrementalCountView keeps the triangle count over one mirror's
// oriented edge relation while a seeded stream of fixed-size batches of
// new edges is inserted and deleted again (one op is an insert and its
// delete), so the relation keeps a constant size and every op does the
// same work. Every op rebuilds the relation
// and cold tries rather than seeking warm ones: a read-side gain that
// moves cost into building shows up here as a loss.

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/incremental.h"
#include "harness.h"
#include "query/parser.h"
#include "util/rng.h"

namespace perfbench {
namespace {

// A mid-size mirror: on the 50k-edge ones an op's working set (several
// relation and trie copies) made its cost flip between ~20 and ~30 ms
// with the host's cache contention, from run to run.
constexpr char kMirror[] = "soc-Slashdot0902";
constexpr double kScale = 1.0;
constexpr int kBatches = 64;
constexpr int kBatchEdges = 32;
constexpr char kTriangle[] = "edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)";

class IncrementalUpdates : public Workload {
 public:
  explicit IncrementalUpdates(const Options& opts) : seed_(opts.seed) {}

  void Setup(Tracer* tracer) override {
    view_.reset();
    mirror_ = LoadMirror(kMirror, kScale, tracer);
    {
      ScopedSpan span(tracer, "graph.relations");
      edges_ = std::make_unique<wcoj::Relation>(
          mirror_.graph->EdgeRelationOriented());
    }
    if (batches_.empty()) MakeBatches();
    // No catalog: the view re-binds its mutable atoms to a relation
    // whose contents change in place, so every term builds its tries.
    const wcoj::Query q = wcoj::MustParseQuery(kTriangle);
    const wcoj::BoundQuery bound =
        wcoj::Bind(q, {{"edge_lt", edges_.get()}}, q.Variables());
    scratch_ = std::make_unique<wcoj::ExecScratch>();
    wcoj::IncrementalCountView::Options options;
    options.engine = "lftj";
    options.scratch = scratch_.get();
    {
      ScopedSpan span(tracer, "core.incremental_materialize");
      view_ = std::make_unique<wcoj::IncrementalCountView>(
          wcoj::IncrementalCountView::ForRelation(bound, edges_.get(),
                                                  options));
    }
    // One untimed execution of every distinct op (every batch).
    ScopedSpan span(tracer, "bench.warmup");
    for (const std::vector<wcoj::Tuple>& batch : batches_) {
      view_->ApplyInserts(batch);
      view_->ApplyDeletes(batch);
    }
  }

  void ComputeReferences(bool corrupt) override {
    // The base count from the clique engine, and each batch's delta by
    // enumerating, on the mirror's adjacency plus the batch, the
    // triangles that use at least one batch edge.
    reference_base_ = Recount(*edges_);
    reference_delta_.clear();
    for (const std::vector<wcoj::Tuple>& batch : batches_) {
      reference_delta_.push_back(TrianglesThrough(batch));
    }
    if (corrupt) reference_base_ += 1;
  }

  // Ops cost ~10 ms each; the log just needs ample headroom.
  double MaxOpsPerSecond() const override { return 500; }

  void RunPhase(double seconds, Tracer* tracer,
                PhaseResult* result) override {
    PhaseResult& out = *result;
    bool full = false;
    uint64_t delta_abs = 0;
    const int64_t t0 = NowNs();
    const int64_t stop = t0 + static_cast<int64_t>(seconds * 1e9);
    uint32_t op = 0;
    while (!full && NowNs() < stop) {
      const int b = next_batch_;
      const std::vector<wcoj::Tuple>& batch = batches_[b];
      next_batch_ = (next_batch_ + 1) % kBatches;
      const uint64_t before = view_->count();
      OpRecord rec;
      rec.start_s = static_cast<double>(NowNs() - t0) * 1e-9;
      int64_t gained = 0, lost = 0;
      uint64_t inserted = 0;
      {
        ScopedSpan op_span(tracer, "bench.op", 0, ++op, 0);
        {
          ScopedSpan span(tracer, "core.incremental_insert");
          gained = view_->ApplyInserts(batch);
        }
        inserted = view_->count();
        ScopedSpan span(tracer, "core.incremental_delete");
        lost = view_->ApplyDeletes(batch);
      }
      rec.end_s = static_cast<double>(NowNs() - t0) * 1e-9;
      delta_abs += static_cast<uint64_t>(gained - lost);
      // The count must start at the reference base, gain exactly the
      // batch's reference delta, and lose it again on the delete.
      const int64_t want = reference_delta_[b];
      rec.ok = static_cast<int64_t>(before) == reference_base_ &&
               gained == want && lost == -want &&
               static_cast<int64_t>(inserted) == reference_base_ + want &&
               view_->count() == before;
      if (!rec.ok) {
        out.Fail("batch " + std::to_string(b) + ": insert " +
                 std::to_string(gained) + " and delete " +
                 std::to_string(lost) + " (reference delta " +
                 std::to_string(want) + "), count " +
                 std::to_string(before) + " -> " + std::to_string(inserted) +
                 " -> " + std::to_string(view_->count()) +
                 ", reference base " + std::to_string(reference_base_));
      }
      full = !out.Add(rec);
    }
    out.elapsed_s = static_cast<double>(NowNs() - t0) * 1e-9;
    if (tracer != nullptr) {
      out.counters = {{"incremental_delta_abs",
                       static_cast<double>(delta_abs)}};
    }
  }

  void FinalCheck(PhaseResult* last_phase) override {
    const int64_t fresh = Recount(view_->current());
    if (fresh != static_cast<int64_t>(view_->count())) {
      last_phase->Fail("final recount " + std::to_string(fresh) +
                       " != maintained count " +
                       std::to_string(view_->count()));
    }
  }

  std::string MetaJson() const override {
    return "\"engine\": \"lftj\", \"threads\": 1, \"connections\": 0, "
           "\"batch_edges\": " + std::to_string(kBatchEdges) +
           ", \"batches\": " + std::to_string(kBatches) +
           ", \"reference\": \"clique recount\", \"mirrors\": [" +
           MirrorJson(mirror_) + "]";
  }

 private:
  // kBatches batches of kBatchEdges distinct (u < v) pairs that are not
  // edges of the mirror; a batch is inserted and then deleted, so every
  // insert starts from the original relation.
  void MakeBatches() {
    wcoj::Rng rng(seed_ * 6151 + 3);
    const uint64_t n = static_cast<uint64_t>(mirror_.graph->num_nodes());
    for (int b = 0; b < kBatches; ++b) {
      std::set<std::pair<int64_t, int64_t>> picked;
      while (picked.size() < kBatchEdges) {
        int64_t u = static_cast<int64_t>(rng.NextBounded(n));
        int64_t v = static_cast<int64_t>(rng.NextBounded(n));
        if (u == v) continue;
        if (u > v) std::swap(u, v);
        if (edges_->Contains({u, v})) continue;
        picked.emplace(u, v);
      }
      std::vector<wcoj::Tuple> batch;
      for (const auto& [u, v] : picked) batch.push_back({u, v});
      batches_.push_back(std::move(batch));
    }
  }

  // Triangles of the mirror plus `batch` that use at least one batch
  // edge: for each batch edge (u, v), every common neighbour w of u and
  // v, with the triangle kept once however many batch edges it uses.
  int64_t TrianglesThrough(const std::vector<wcoj::Tuple>& batch) const {
    const wcoj::Graph& g = *mirror_.graph;
    std::map<int64_t, std::set<int64_t>> extra;
    for (const wcoj::Tuple& e : batch) {
      extra[e[0]].insert(e[1]);
      extra[e[1]].insert(e[0]);
    }
    auto neighbours = [&](int64_t u) {
      std::set<int64_t> out(g.AdjTargets().begin() + g.AdjOffsets()[u],
                            g.AdjTargets().begin() + g.AdjOffsets()[u + 1]);
      const auto it = extra.find(u);
      if (it != extra.end()) out.insert(it->second.begin(), it->second.end());
      return out;
    };
    std::set<std::array<int64_t, 3>> triangles;
    for (const wcoj::Tuple& e : batch) {
      const std::set<int64_t> nu = neighbours(e[0]);
      for (const int64_t w : neighbours(e[1])) {
        if (!nu.count(w)) continue;
        std::array<int64_t, 3> t = {e[0], e[1], w};
        std::sort(t.begin(), t.end());
        triangles.insert(t);
      }
    }
    return static_cast<int64_t>(triangles.size());
  }

  static int64_t Recount(const wcoj::Relation& rel) {
    const wcoj::Query q = wcoj::MustParseQuery(kTriangle);
    const wcoj::BoundQuery bound =
        wcoj::Bind(q, {{"edge_lt", &rel}}, q.Variables());
    const wcoj::ExecResult r =
        wcoj::CreateEngine("clique")->Execute(bound, wcoj::ExecOptions{});
    return r.ok() ? static_cast<int64_t>(r.count) : -1;
  }

  const uint64_t seed_;
  Mirror mirror_;
  std::unique_ptr<wcoj::Relation> edges_;
  std::unique_ptr<wcoj::ExecScratch> scratch_;
  std::unique_ptr<wcoj::IncrementalCountView> view_;
  std::vector<std::vector<wcoj::Tuple>> batches_;
  int next_batch_ = 0;
  int64_t reference_base_ = -1;
  std::vector<int64_t> reference_delta_;  // per batch
};

}  // namespace

std::unique_ptr<Workload> MakeIncrementalUpdates(const Options& opts) {
  return std::make_unique<IncrementalUpdates>(opts);
}

}  // namespace perfbench
