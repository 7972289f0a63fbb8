#include <gtest/gtest.h>

#include "baseline/clique_engine.h"
#include "baseline/planner.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "graph/sampling.h"
#include "query/parser.h"
#include "tests/test_util.h"

namespace wcoj {
namespace {

BoundQuery TriangleOn(const GraphRelations& rels) {
  static Query q = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  return Bind(q, rels.Map(), {"a", "b", "c"});
}

TEST(PlannerTest, DistinctCountsMatchData) {
  Relation r = Relation::FromTuples(2, {{1, 5}, {1, 6}, {2, 5}});
  Query q = MustParseQuery("r(a,b)");
  BoundQuery bq = Bind(q, {{"r", &r}}, {"a", "b"});
  auto distinct = DistinctCounts(bq);
  EXPECT_DOUBLE_EQ(distinct[0][0], 2.0);  // a in {1,2}
  EXPECT_DOUBLE_EQ(distinct[0][1], 2.0);  // b in {5,6}
}

TEST(PlannerTest, DpPrefersConnectedOrders) {
  // v1 is tiny; the DP plan should start from it, not cross-join.
  Graph g = ErdosRenyi(60, 200, 1);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodesExact(g, 2, 7);
  Query q = MustParseQuery("v1(a), edge(a,b), edge(b,c)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  const ExecOptions opts;
  AbortPoll poll(opts);
  JoinPlan plan = PlanJoin(bq, PlanStrategy::kDynamicProgramming, poll);
  ASSERT_EQ(plan.atom_order.size(), 3u);
  EXPECT_EQ(plan.atom_order[0], 0);  // v1 first
  EXPECT_EQ(plan.atom_order[1], 1);  // then the adjacent edge atom
}

TEST(PlannerTest, GreedyStartsFromSmallestRelation) {
  Graph g = ErdosRenyi(60, 200, 1);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v2 = SampleNodesExact(g, 3, 9);
  Query q = MustParseQuery("edge(a,b), v2(b)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b"});
  const ExecOptions opts;
  AbortPoll poll(opts);
  JoinPlan plan = PlanJoin(bq, PlanStrategy::kGreedySmallest, poll);
  EXPECT_EQ(plan.atom_order[0], 1);
}

TEST(PlannerTest, EstimateShrinksWithSharedVariables) {
  Graph g = ErdosRenyi(100, 300, 2);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge(a,b), edge(b,c)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  auto distinct = DistinctCounts(bq);
  const double joined = EstimateJoinSize(bq, distinct, {0, 1});
  const double cross = static_cast<double>(bq.atoms[0].relation->size()) *
                       static_cast<double>(bq.atoms[1].relation->size());
  EXPECT_LT(joined, cross);
}

// "r(x0,x1), r(x1,x2), ..., r(x{n-1},xn)": an n-atom path over `r`.
std::string PathQuery(const std::string& r, int atoms) {
  std::string text;
  for (int i = 0; i < atoms; ++i) {
    text += (i == 0 ? "" : ", ") + r + "(x" + std::to_string(i) + ",x" +
            std::to_string(i + 1) + ")";
  }
  return text;
}

// Past kDpMaxAtoms the DP strategy plans greedily: its tables have 2^m
// entries, and at 32 atoms the old `1 << m` sizing crashed psql and
// yannakakis. On a 40-node chain a 32-atom path has 8 answers.
TEST(BinaryJoinTest, PathsPastTheDpLimitAreAnsweredExactly) {
  std::vector<Tuple> chain;
  for (Value v = 0; v + 1 < 40; ++v) chain.push_back({v, v + 1});
  const Relation r = Relation::FromTuples(2, chain);
  for (int atoms : {kDpMaxAtoms, kDpMaxAtoms + 1, 32}) {
    const Query q = MustParseQuery(PathQuery("r", atoms));
    const BoundQuery bq = Bind(q, {{"r", &r}}, q.Variables());
    const ExecResult lftj = CreateEngine("lftj")->Execute(bq, ExecOptions{});
    ASSERT_TRUE(lftj.ok()) << lftj.status.ToString();
    EXPECT_EQ(lftj.count, static_cast<uint64_t>(40 - atoms)) << atoms;
    for (const char* name : {"psql", "yannakakis"}) {
      const ExecResult got = CreateEngine(name)->Execute(bq, ExecOptions{});
      ASSERT_TRUE(got.ok()) << name << ": " << got.status.ToString();
      EXPECT_EQ(got.count, lftj.count) << name << " at " << atoms;
    }
  }
}

// The planner and the join both poll the run's AbortPoll, so a wide path
// over a real graph honours a 200 ms deadline: it winds down (or
// finishes) well inside 2 s. At 18 atoms the unpolled DP alone ran
// 5.8 s past a 1 s deadline.
TEST(BinaryJoinTest, WidePathHonoursItsDeadline) {
  const Graph g = ErdosRenyi(300, 1500, 6);
  const GraphRelations rels = MakeGraphRelations(g);
  for (int atoms : {kDpMaxAtoms, 18, 32}) {
    const Query q = MustParseQuery(PathQuery("edge", atoms));
    const BoundQuery bq = Bind(q, rels.Map(), q.Variables());
    for (const char* name : {"psql", "yannakakis"}) {
      ExecOptions opts;
      opts.deadline = Deadline::AfterSeconds(0.2);
      const ExecResult r = RunTimed(*CreateEngine(name), bq, opts);
      EXPECT_LT(r.seconds, 2.0) << name << " at " << atoms;
      EXPECT_TRUE(r.ok() ||
                  r.status.code() == StatusCode::kDeadlineExceeded)
          << name << " at " << atoms << ": " << r.status.ToString();
    }
  }
}

TEST(BinaryJoinTest, MaterializesIntermediates) {
  Graph g = ErdosRenyi(40, 120, 3);
  GraphRelations rels = MakeGraphRelations(g);
  BoundQuery bq = TriangleOn(rels);
  auto psql = CreateEngine("psql");
  ExecResult r = psql->Execute(bq, ExecOptions{});
  // The defining weakness: pairwise plans materialize more rows than the
  // output (the wedge set before closing the triangle).
  EXPECT_GT(r.stats.intermediate_tuples, r.count);
}

TEST(BinaryJoinTest, CartesianFallbackStillCorrect) {
  // Disconnected query: v1(a), v2(b) — pure cross product.
  Graph g = ErdosRenyi(30, 60, 4);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodesExact(g, 4, 1);
  rels.v2 = SampleNodesExact(g, 5, 2);
  Query q = MustParseQuery("v1(a), v2(b)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b"});
  for (const char* name : {"psql", "monetdb", "lftj", "ms"}) {
    ExecResult r = CreateEngine(name)->Execute(bq, ExecOptions{});
    EXPECT_EQ(r.count, 20u) << name;
  }
}

TEST(YannakakisTest, SemijoinReductionShrinksInputs) {
  Graph g = ErdosRenyi(60, 150, 5);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodesExact(g, 3, 3);
  rels.v2 = SampleNodesExact(g, 3, 4);
  Query q = MustParseQuery("v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c", "d"});
  ExecResult yk = CreateEngine("yannakakis")->Execute(bq, ExecOptions{});
  ExecResult ms = CreateEngine("ms")->Execute(bq, ExecOptions{});
  EXPECT_EQ(yk.count, ms.count);
}

TEST(CliqueEngineTest, SupportsOnlyCliquePatterns) {
  Graph g = ErdosRenyi(20, 60, 6);
  GraphRelations rels = MakeGraphRelations(g);
  EXPECT_TRUE(CliqueEngine::Supports(TriangleOn(rels)));
  Query path = MustParseQuery("edge(a,b), edge(b,c)");
  BoundQuery bq = Bind(path, rels.Map(), {"a", "b", "c"});
  EXPECT_FALSE(CliqueEngine::Supports(bq));
  // Unsupported executes as a non-answer, like the paper's missing
  // GraphLab cells.
  ExecResult r = CreateEngine("clique")->Execute(bq, ExecOptions{});
  EXPECT_EQ(r.status.code(), StatusCode::kUnimplemented);
}

TEST(CliqueEngineTest, SymmetricEdgesWithoutFiltersCountAllOrderings) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.Build();
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge(a,b), edge(b,c), edge(a,c)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  ExecResult r = CreateEngine("clique")->Execute(bq, ExecOptions{});
  EXPECT_EQ(r.count, 6u);  // 1 triangle x 3! orderings
  ExecResult lftj = CreateEngine("lftj")->Execute(bq, ExecOptions{});
  EXPECT_EQ(lftj.count, 6u);
}

TEST(CliqueEngineTest, FourCliqueForwardAlgorithm) {
  // K5 contains C(5,4)=5 four-cliques.
  Graph g(5);
  for (int u = 0; u < 5; ++u) {
    for (int v = u + 1; v < 5; ++v) g.AddEdge(u, v);
  }
  g.Build();
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery(
      "edge_lt(a,b), edge_lt(a,c), edge_lt(a,d), edge_lt(b,c), "
      "edge_lt(b,d), edge_lt(c,d)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c", "d"});
  ExecResult r = CreateEngine("clique")->Execute(bq, ExecOptions{});
  EXPECT_EQ(r.count, 5u);
}

// Cross-engine agreement on the full paper workload at small scale: the
// integration test across bench_util, engines and datasets.
class WorkloadAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(WorkloadAgreementTest, LftjAndMsAgreeOnPaperWorkloads) {
  Graph g = Rmat(7, 300, 0.57, 0.19, 0.19, 77 + GetParam());
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 4.0, 1);
  rels.v2 = SampleNodes(g, 4.0, 2);
  const char* queries[] = {
      "edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)",
      "v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)",
      "v1(b), v2(c), edge(a,b), edge(a,c)",
      "v1(c), v2(d), edge(a,b), edge(a,c), edge(b,d)",
  };
  const std::vector<std::vector<std::string>> gaos = {
      {"a", "b", "c"},
      {"a", "b", "c", "d"},
      {"a", "b", "c"},
      {"a", "b", "c", "d"},
  };
  for (size_t i = 0; i < 4; ++i) {
    Query q = MustParseQuery(queries[i]);
    BoundQuery bq = Bind(q, rels.Map(), gaos[i]);
    ExecResult lftj = CreateEngine("lftj")->Execute(bq, ExecOptions{});
    ExecResult ms = CreateEngine("ms")->Execute(bq, ExecOptions{});
    ExecResult cms = CreateEngine("#ms")->Execute(bq, ExecOptions{});
    EXPECT_EQ(lftj.count, ms.count) << queries[i];
    EXPECT_EQ(lftj.count, cms.count) << queries[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadAgreementTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace wcoj
