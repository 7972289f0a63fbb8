#include <gtest/gtest.h>

#include <vector>

#include "core/engine.h"
#include "core/incremental.h"
#include "graph/generators.h"
#include "graph/sampling.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace wcoj {
namespace {

// The count of `bq` recomputed from scratch with `mutable_rel` replaced
// by `now`.
uint64_t Recount(const BoundQuery& bq, const Relation* mutable_rel,
                 const Relation& now) {
  BoundQuery fresh = bq;
  for (auto& atom : fresh.atoms) {
    if (atom.relation == mutable_rel) atom.relation = &now;
  }
  return CreateEngine("lftj")->Execute(fresh, ExecOptions{}).count;
}

std::vector<Tuple> Rows(const Relation& rel) {
  std::vector<Tuple> rows;
  for (size_t i = 0; i < rel.size(); ++i) rows.push_back(rel.RowTuple(i));
  return rows;
}

TEST(IncrementalTest, TriangleInsertOneEdge) {
  // Path 0-1-2; inserting (0,2) closes one (ordered) triangle.
  Relation edge = Relation::FromTuples(2, {{0, 1}, {1, 2}});
  Query q = MustParseQuery("e(a,b), e(b,c), e(a,c)");
  BoundQuery bq = Bind(q, {{"e", &edge}}, {"a", "b", "c"});
  IncrementalCountView view = IncrementalCountView::ForRelation(bq, &edge);
  EXPECT_EQ(view.count(), 0u);
  EXPECT_EQ(view.ApplyInserts({{0, 2}}), 1);
  EXPECT_EQ(view.count(), 1u);
  // Deleting it again restores zero.
  EXPECT_EQ(view.ApplyDeletes({{0, 2}}), -1);
  EXPECT_EQ(view.count(), 0u);
}

TEST(IncrementalTest, DuplicateAndAbsentTuplesAreNoOps) {
  Relation edge = Relation::FromTuples(2, {{0, 1}, {1, 2}, {0, 2}});
  Query q = MustParseQuery("e(a,b), e(b,c), e(a,c)");
  BoundQuery bq = Bind(q, {{"e", &edge}}, {"a", "b", "c"});
  IncrementalCountView view = IncrementalCountView::ForRelation(bq, &edge);
  const uint64_t base = view.count();
  EXPECT_EQ(view.ApplyInserts({{0, 1}}), 0);   // already present
  EXPECT_EQ(view.ApplyDeletes({{7, 9}}), 0);   // absent
  EXPECT_EQ(view.count(), base);
}

// Property sweep: maintained counts equal recomputation after random
// insert/delete batches, across query shapes (including self-joins with
// 2-4 occurrences of the mutable relation and static side relations).
struct ViewCase {
  const char* query;
  std::vector<std::string> gao;
};

const ViewCase kViewCases[] = {
    {"e(a,b), e(b,c), e(a,c), a<b<c", {"a", "b", "c"}},
    {"e(a,b), e(b,c)", {"a", "b", "c"}},
    {"v1(a), v2(d), e(a,b), e(b,c), e(c,d)", {"a", "b", "c", "d"}},
    {"e(a,b), e(b,c), e(c,d), e(a,d), a<b<c<d", {"a", "b", "c", "d"}},
    // e(b,a) reads the relation in column order (1, 0): every version
    // carries a second, non-identity trie.
    {"e(b,a), e(b,c), e(a,c)", {"a", "b", "c"}},
};

class IncrementalSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(IncrementalSweepTest, MaintainedCountMatchesRecompute) {
  const auto& [case_idx, seed] = GetParam();
  const ViewCase& c = kViewCases[case_idx];
  Rng rng(9000 + seed);
  Graph g = ErdosRenyi(16, 30, 400 + seed);
  Relation edge = g.EdgeRelationSymmetric();
  Relation v1 = SampleNodes(g, 2.0, seed + 1);
  Relation v2 = SampleNodes(g, 2.0, seed + 2);
  Query q = MustParseQuery(c.query);
  BoundQuery bq =
      Bind(q, {{"e", &edge}, {"v1", &v1}, {"v2", &v2}}, c.gao);
  IncrementalCountView view = IncrementalCountView::ForRelation(bq, &edge);

  for (int batch = 0; batch < 6; ++batch) {
    // Random batch of inserts or deletes (symmetric pairs, like the
    // engines' edge relations).
    std::vector<Tuple> tuples;
    for (int i = 0; i < 4; ++i) {
      const Value u = static_cast<Value>(rng.NextBounded(16));
      const Value v = static_cast<Value>(rng.NextBounded(16));
      if (u == v) continue;
      tuples.push_back({u, v});
      tuples.push_back({v, u});
    }
    if (batch % 2 == 0) {
      view.ApplyInserts(tuples);
    } else {
      view.ApplyDeletes(tuples);
    }
    ASSERT_EQ(view.count(), Recount(bq, &edge, view.current()))
        << c.query << " batch " << batch;
  }
}

INSTANTIATE_TEST_SUITE_P(
    CasesBySeeds, IncrementalSweepTest,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 4)),
    [](const auto& info) {
      return "q" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

TEST(IncrementalTest, MinesweeperEngineOnWarmScratchMatchesDefault) {
  // A view can run its telescoping terms on any engine; with a
  // Minesweeper flavor plus a caller-owned ExecScratch, every
  // maintenance run draws its CDS from one warm arena. Counts must be
  // identical to the default LFTJ view throughout.
  for (const char* text :
       {"e(a,b), e(b,c), e(a,c), a<b<c", "e(b,a), e(b,c), e(a,c)"}) {
    SCOPED_TRACE(text);
    Rng rng(77);
    Graph g = ErdosRenyi(16, 30, 500);
    Relation edge = g.EdgeRelationSymmetric();
    Query q = MustParseQuery(text);
    BoundQuery bq = Bind(q, {{"e", &edge}}, {"a", "b", "c"});
    IncrementalCountView lftj_view =
        IncrementalCountView::ForRelation(bq, &edge);
    ExecScratch scratch;
    IncrementalCountView::Options options;
    options.engine = "ms";
    options.scratch = &scratch;
    IncrementalCountView ms_view =
        IncrementalCountView::ForRelation(bq, &edge, options);
    EXPECT_EQ(ms_view.count(), lftj_view.count());
    for (int batch = 0; batch < 4; ++batch) {
      std::vector<Tuple> tuples;
      for (int i = 0; i < 4; ++i) {
        const Value u = static_cast<Value>(rng.NextBounded(16));
        const Value v = static_cast<Value>(rng.NextBounded(16));
        if (u != v) {
          tuples.push_back({u, v});
          tuples.push_back({v, u});
        }
      }
      if (batch % 2 == 0) {
        EXPECT_EQ(ms_view.ApplyInserts(tuples),
                  lftj_view.ApplyInserts(tuples));
      } else {
        EXPECT_EQ(ms_view.ApplyDeletes(tuples),
                  lftj_view.ApplyDeletes(tuples));
      }
      EXPECT_EQ(ms_view.count(), lftj_view.count()) << "batch " << batch;
    }
    EXPECT_TRUE(ms_view.status().ok()) << ms_view.status().ToString();
  }
}

TEST(IncrementalTest, ReusedSlotsNeverServeAStaleTrie) {
  // The view's versions alternate between two slots and every delta
  // reuses one: consecutive single-edge applies whose count changes all
  // differ catch a trie cached under a slot whose rows have changed.
  Relation edge = Relation::FromTuples(
      2, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}});
  Query q = MustParseQuery("e(a,b), e(b,c), e(a,c)");
  BoundQuery bq = Bind(q, {{"e", &edge}}, {"a", "b", "c"});
  IncrementalCountView view = IncrementalCountView::ForRelation(bq, &edge);
  ASSERT_EQ(view.count(), 3u);  // 012, 013, 014
  EXPECT_EQ(view.ApplyDeletes({{0, 1}}), -3);  // 012, 013, 014
  EXPECT_EQ(view.count(), Recount(bq, &edge, view.current()));
  EXPECT_EQ(view.ApplyInserts({{2, 3}}), 2);  // 023, 123
  EXPECT_EQ(view.count(), Recount(bq, &edge, view.current()));
  EXPECT_EQ(view.ApplyDeletes({{0, 2}}), -1);  // 023
  EXPECT_EQ(view.count(), Recount(bq, &edge, view.current()));
  EXPECT_EQ(view.count(), 1u);  // 123
  EXPECT_TRUE(view.status().ok()) << view.status().ToString();
}

TEST(IncrementalTest, StatsPinTwoIndexBuildsPerApply) {
  // Ordered triangle, one trie per relation version. The materialization
  // builds the snapshot's trie once for its three atoms. Each apply
  // then builds exactly the next version's trie and the delta's; the
  // other seven of its terms' nine index reads are catalog hits.
  Graph g = ErdosRenyi(16, 30, 600);
  Relation edge = g.EdgeRelationOriented();
  Query q = MustParseQuery("e(a,b), e(b,c), e(a,c)");
  BoundQuery bq = Bind(q, {{"e", &edge}}, {"a", "b", "c"});
  IncrementalCountView view = IncrementalCountView::ForRelation(bq, &edge);
  ASSERT_TRUE(view.status().ok()) << view.status().ToString();
  EXPECT_EQ(view.stats().index_builds, 1u);
  EXPECT_EQ(view.stats().index_cache_hits, 2u);

  std::vector<Tuple> batch;
  for (Value u = 0; u < 16 && batch.size() < 4; ++u) {
    for (Value v = u + 1; v < 16 && batch.size() < 4; ++v) {
      if (!edge.Contains({u, v})) batch.push_back({u, v});
    }
  }
  ASSERT_EQ(batch.size(), 4u);
  const Relation delta = Relation::FromTuples(2, batch);
  const std::unique_ptr<Engine> lftj = CreateEngine("lftj");
  for (const bool insert : {true, false}) {
    SCOPED_TRACE(insert ? "insert" : "delete");
    const Relation before = view.current();
    const EngineStats s0 = view.stats();
    if (insert) {
      view.ApplyInserts(batch);
    } else {
      view.ApplyDeletes(batch);
    }
    ASSERT_TRUE(view.status().ok()) << view.status().ToString();
    const EngineStats s1 = view.stats();
    EXPECT_EQ(s1.index_builds - s0.index_builds, 2u);
    EXPECT_EQ(s1.index_cache_hits - s0.index_cache_hits, 7u);
    // The same three terms run by hand on private indexes do the same
    // seeks: the catalog changes where tries come from, not the join.
    const Relation& after = view.current();
    const Relation* terms[3][3] = {{&delta, &before, &before},
                                   {&after, &delta, &before},
                                   {&after, &after, &delta}};
    uint64_t seeks = 0;
    for (const auto& binding : terms) {
      BoundQuery term = bq;
      for (int a = 0; a < 3; ++a) term.atoms[a].relation = binding[a];
      seeks += lftj->Execute(term, ExecOptions{}).stats.seeks;
    }
    EXPECT_EQ(s1.seeks - s0.seeks, seeks);
  }
}

TEST(IncrementalTest, FailedIndexBuildLeavesTheViewUnchanged) {
  // The apply's first build is the delta's trie (first term), its
  // second the next version's (second term). Either failing must leave
  // the count and the current version as they were.
  for (const uint64_t k : {1, 2}) {
    SCOPED_TRACE("trie.build k=" + std::to_string(k));
    Relation edge = Relation::FromTuples(2, {{0, 1}, {1, 2}});
    Query q = MustParseQuery("e(a,b), e(b,c), e(a,c)");
    BoundQuery bq = Bind(q, {{"e", &edge}}, {"a", "b", "c"});
    IncrementalCountView view = IncrementalCountView::ForRelation(bq, &edge);
    ASSERT_TRUE(view.status().ok());
    FailPoints::Arm("trie.build", k);
    const int64_t change = view.ApplyInserts({{0, 2}});
    FailPoints::Disarm("trie.build");
    EXPECT_EQ(change, 0);
    EXPECT_EQ(view.status().code(), StatusCode::kResourceExhausted)
        << view.status().ToString();
    EXPECT_EQ(view.count(), 0u);
    EXPECT_EQ(Rows(view.current()), Rows(edge));
    // A failed view stays stopped rather than count on from a state the
    // caller did not ask for.
    EXPECT_EQ(view.ApplyInserts({{0, 2}}), 0);
    EXPECT_EQ(view.count(), 0u);
  }
}

TEST(IncrementalTest, EngineRefusalIsAStatusNotACount) {
  // Two 2-paths. The clique engine refuses the pattern: the view must
  // say so instead of reporting count() == 0 as an answer.
  Relation edge = Relation::FromTuples(2, {{0, 1}, {1, 2}, {2, 3}});
  Query q = MustParseQuery("e(a,b), e(b,c)");
  BoundQuery bq = Bind(q, {{"e", &edge}}, {"a", "b", "c"});
  IncrementalCountView lftj_view =
      IncrementalCountView::ForRelation(bq, &edge);
  EXPECT_TRUE(lftj_view.status().ok());
  EXPECT_EQ(lftj_view.count(), 2u);

  IncrementalCountView::Options options;
  options.engine = "clique";
  IncrementalCountView clique_view =
      IncrementalCountView::ForRelation(bq, &edge, options);
  EXPECT_EQ(clique_view.status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ(clique_view.ApplyInserts({{3, 4}}), 0);
  EXPECT_EQ(clique_view.current().size(), 3u);

  options.engine = "no-such-engine";
  IncrementalCountView unknown_view =
      IncrementalCountView::ForRelation(bq, &edge, options);
  EXPECT_EQ(unknown_view.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(unknown_view.ApplyDeletes({{0, 1}}), 0);
}

}  // namespace
}  // namespace wcoj
