#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/leapfrog.h"
#include "graph/generators.h"
#include "graph/sampling.h"
#include "query/parser.h"
#include "tests/test_util.h"

namespace wcoj {
namespace {

TEST(LeapfrogJoinTest, IntersectsThreeSets) {
  Relation a = Relation::FromTuples(
      1, {{0}, {1}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {11}});
  Relation b = Relation::FromTuples(1, {{0}, {2}, {6}, {7}, {8}, {9}});
  Relation c = Relation::FromTuples(1, {{2}, {4}, {5}, {8}, {10}});
  TrieIndex ia(a), ib(b), ic(c);
  TrieIterator ta(&ia), tb(&ib), tc(&ic);
  ta.Open();
  tb.Open();
  tc.Open();
  LeapfrogJoin join({&ta, &tb, &tc});
  join.Init();
  std::vector<Value> out;
  while (!join.AtEnd()) {
    out.push_back(join.Key());
    join.Next();
  }
  EXPECT_EQ(out, (std::vector<Value>{8}));
}

TEST(LeapfrogJoinTest, EmptyInputYieldsNothing) {
  Relation a = Relation::FromTuples(1, {{1}, {2}});
  Relation b(1);
  b.Build();
  TrieIndex ia(a), ib(b);
  TrieIterator ta(&ia), tb(&ib);
  ta.Open();
  tb.Open();
  LeapfrogJoin join({&ta, &tb});
  join.Init();
  EXPECT_TRUE(join.AtEnd());
}

TEST(LeapfrogJoinTest, SeekAdvancesAllIterators) {
  Relation a = Relation::FromTuples(1, {{1}, {5}, {9}, {12}});
  Relation b = Relation::FromTuples(1, {{1}, {5}, {9}, {13}});
  TrieIndex ia(a), ib(b);
  TrieIterator ta(&ia), tb(&ib);
  ta.Open();
  tb.Open();
  LeapfrogJoin join({&ta, &tb});
  join.Init();
  EXPECT_EQ(join.Key(), 1);
  join.Seek(6);
  ASSERT_FALSE(join.AtEnd());
  EXPECT_EQ(join.Key(), 9);
  join.Next();
  EXPECT_TRUE(join.AtEnd());
}

// Known-count sanity: LFTJ and MS on a hand-built graph.
TEST(EngineTest, TriangleCountOnK4) {
  Graph g(4);
  for (int u = 0; u < 4; ++u) {
    for (int v = u + 1; v < 4; ++v) g.AddEdge(u, v);
  }
  g.Build();
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  for (const char* name : {"lftj", "ms", "#ms", "clique"}) {
    auto engine = CreateEngine(name);
    ExecResult r = engine->Execute(bq, ExecOptions{});
    EXPECT_EQ(r.count, 4u) << name;  // K4 has 4 triangles
  }
}

TEST(EngineTest, SymmetricTriangleWithFilters) {
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  g.Build();
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge(a,b), edge(b,c), edge(a,c), a<b<c");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  for (const char* name : {"lftj", "ms", "psql", "monetdb", "clique"}) {
    auto engine = CreateEngine(name);
    ExecResult r = engine->Execute(bq, ExecOptions{});
    EXPECT_EQ(r.count, 1u) << name;
  }
}

TEST(EngineTest, CollectedTuplesMatchAcrossEngines) {
  Graph g = ErdosRenyi(10, 22, 7);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  ExecOptions opts;
  opts.collect_tuples = true;
  auto lftj = CreateEngine("lftj")->Execute(bq, opts);
  auto ms = CreateEngine("ms")->Execute(bq, opts);
  std::sort(lftj.tuples.begin(), lftj.tuples.end());
  std::sort(ms.tuples.begin(), ms.tuples.end());
  EXPECT_EQ(lftj.tuples, ms.tuples);
  std::vector<Tuple> oracle;
  BruteForceCount(bq, &oracle);
  std::sort(oracle.begin(), oracle.end());
  EXPECT_EQ(lftj.tuples, oracle);
}

TEST(EngineTest, DeadlineProducesTimeout) {
  Graph g = ErdosRenyi(400, 4000, 3);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery(
      "edge(a,b), edge(b,c), edge(c,d), edge(d,e), v1(a), v2(e)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c", "d", "e"});
  ExecOptions opts;
  opts.deadline = Deadline::AfterSeconds(0.0);
  for (const char* name : {"lftj", "ms", "psql", "monetdb"}) {
    ExecResult r = CreateEngine(name)->Execute(bq, opts);
    EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded) << name;
  }
}

// The one mapping from wind-down cause to outcome: a latched budget
// outranks a requested stop, which outranks the deadline.
TEST(EngineTest, AbortStatusPrecedence) {
  StopToken stop;
  stop.RequestStop();
  MemoryBudget budget(/*limit_bytes=*/1);
  ASSERT_FALSE(budget.TryCharge(2));  // a refusal latches exceeded()
  ExecOptions opts;
  opts.deadline = Deadline::AfterSeconds(0.0);
  opts.stop = &stop;
  opts.budget = &budget;
  EXPECT_TRUE(opts.Aborted());
  EXPECT_EQ(opts.AbortStatus().code(), StatusCode::kBudgetExceeded);
  opts.budget = nullptr;
  EXPECT_TRUE(opts.Aborted());
  EXPECT_EQ(opts.AbortStatus().code(), StatusCode::kCancelled);
  opts.stop = nullptr;
  EXPECT_TRUE(opts.Aborted());
  EXPECT_EQ(opts.AbortStatus().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(ExecOptions{}.Aborted());
}

// ---------------------------------------------------------------------------
// Property sweep: every engine must agree with the brute-force oracle on
// every paper query shape across random graphs.

struct OracleCase {
  const char* query;
  std::vector<std::string> gao;
  int graph_nodes;
  int graph_edges;
  bool clique_supported;  // specialized engine can answer it
};

const OracleCase kOracleCases[] = {
    {"edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)", {"a", "b", "c"}, 14, 34,
     true},
    {"edge(a,b), edge(b,c), edge(a,c), a<b<c", {"a", "b", "c"}, 14, 34, true},
    {"edge_lt(a,b), edge_lt(a,c), edge_lt(a,d), edge_lt(b,c), edge_lt(b,d), "
     "edge_lt(c,d)",
     {"a", "b", "c", "d"},
     12,
     34,
     true},
    {"edge_lt(a,b), edge_lt(b,c), edge_lt(c,d), edge_lt(a,d)",
     {"a", "b", "c", "d"},
     12,
     30,
     false},
    {"v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)",
     {"a", "b", "c", "d"},
     12,
     26,
     false},
    {"v1(a), v2(e), edge(a,b), edge(b,c), edge(c,d), edge(d,e)",
     {"a", "b", "c", "d", "e"},
     9,
     18,
     false},
    {"v1(b), v2(c), edge(a,b), edge(a,c)", {"a", "b", "c"}, 14, 30, false},
    {"v1(c), v2(d), edge(a,b), edge(a,c), edge(b,d)",
     {"a", "b", "c", "d"},
     12,
     26,
     false},
    {"v1(a), edge(a,b), edge(b,c), edge(c,d), edge(d,e), edge(c,e)",
     {"a", "b", "c", "d", "e"},
     9,
     20,
     false},
};

class EngineOracleTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EngineOracleTest, AllEnginesMatchBruteForce) {
  const auto& [case_idx, seed] = GetParam();
  const OracleCase& c = kOracleCases[case_idx];
  Graph g = ErdosRenyi(c.graph_nodes, c.graph_edges, 500 + seed * 31);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 2.0, seed + 1);
  rels.v2 = SampleNodes(g, 2.0, seed + 2);
  Query q = MustParseQuery(c.query);
  BoundQuery bq = Bind(q, rels.Map(), c.gao);

  const uint64_t expected = BruteForceCount(bq);
  for (const char* name :
       {"lftj", "ms", "#ms", "ms-noidea4", "ms-noidea6", "ms-noidea46",
        "ms-noidea7", "hybrid", "psql", "monetdb", "yannakakis"}) {
    auto engine = CreateEngine(name);
    ASSERT_NE(engine, nullptr) << name;
    ExecResult r = engine->Execute(bq, ExecOptions{});
    ASSERT_EQ(r.status.code(), StatusCode::kOk)
        << name << " on " << c.query << ": " << r.status.ToString();
    EXPECT_EQ(r.count, expected) << name << " on " << c.query;
  }
  if (c.clique_supported) {
    ExecResult r = CreateEngine("clique")->Execute(bq, ExecOptions{});
    ASSERT_EQ(r.status.code(), StatusCode::kOk) << r.status.ToString();
    EXPECT_EQ(r.count, expected) << "clique on " << c.query;
  }
}

INSTANTIATE_TEST_SUITE_P(
    QueriesBySeeds, EngineOracleTest,
    ::testing::Combine(::testing::Range(0, 9), ::testing::Range(0, 3)),
    [](const auto& info) {
      return "q" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace wcoj
