// Incrementally maintained pattern-count views (§3's motivation for LFTJ
// inside LogicBlox: materialized views maintained under a transactional
// update stream, not recomputed).
//
// Streams edge insertions/deletions into a triangle-count view and
// compares maintenance cost against recomputation from scratch.
//
//   ./build/examples/incremental_views

#include <cstdio>
#include <vector>

#include "core/engine.h"
#include "core/incremental.h"
#include "graph/generators.h"
#include "query/parser.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace wcoj;  // NOLINT: example brevity

int main() {
  Graph g = Rmat(11, 16000, 0.57, 0.19, 0.19, 7);
  Relation edge = g.EdgeRelationOriented();
  Query q = MustParseQuery("e(a,b), e(b,c), e(a,c)");
  BoundQuery bq = Bind(q, {{"e", &edge}}, {"a", "b", "c"});

  Stopwatch init;
  IncrementalCountView view = IncrementalCountView::ForRelation(bq, &edge);
  if (!view.status().ok()) {
    std::printf("materialization failed: %s\n",
                view.status().ToString().c_str());
    return 1;
  }
  std::printf("initial: %llu triangles over %zu edges (%.3fs to build)\n",
              static_cast<unsigned long long>(view.count()), edge.size(),
              init.ElapsedSeconds());

  Rng rng(99);
  double maintain_total = 0, recompute_total = 0;
  for (int batch = 0; batch < 10; ++batch) {
    std::vector<Tuple> delta;
    for (int i = 0; i < 16; ++i) {
      Value u = static_cast<Value>(rng.NextBounded(g.num_nodes()));
      Value v = static_cast<Value>(rng.NextBounded(g.num_nodes()));
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      delta.push_back({u, v});
    }
    Stopwatch maintain;
    const int64_t gained = batch % 2 == 0 ? view.ApplyInserts(delta)
                                          : view.ApplyDeletes(delta);
    maintain_total += maintain.ElapsedSeconds();

    // Recompute from scratch for comparison (and to verify).
    BoundQuery fresh = bq;
    for (auto& atom : fresh.atoms) atom.relation = &view.current();
    Stopwatch recompute;
    const ExecResult full = CreateEngine("lftj")->Execute(fresh, ExecOptions{});
    recompute_total += recompute.ElapsedSeconds();
    std::printf("batch %2d: %+4lld triangles -> %llu (recompute agrees: %s)\n",
                batch, static_cast<long long>(gained),
                static_cast<unsigned long long>(view.count()),
                full.count == view.count() ? "yes" : "NO");
  }
  std::printf("\nmaintenance %.4fs total vs recomputation %.4fs total\n",
              maintain_total, recompute_total);
  // The snapshot's trie is built once; each apply then builds only the
  // next version's trie and the delta's.
  std::printf("index builds %llu, catalog hits %llu, status %s\n",
              static_cast<unsigned long long>(view.stats().index_builds),
              static_cast<unsigned long long>(view.stats().index_cache_hits),
              view.status().ToString().c_str());
  return view.status().ok() ? 0 : 1;
}
