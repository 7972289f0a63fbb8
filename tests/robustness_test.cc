#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/cds.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "graph/sampling.h"
#include "core/hybrid.h"
#include "query/hypergraph.h"
#include "query/parser.h"
#include "tests/test_util.h"

namespace wcoj {
namespace {

// ---------------------------------------------------------------------------
// Failure injection: a deadline may expire at any moment; an engine must
// then either fail with kDeadlineExceeded or return the exact answer —
// never a wrong count.

class DeadlineInjectionTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

const char* const kInjectionEngines[] = {"lftj", "ms",   "#ms",  "hybrid",
                                         "psql", "monetdb", "yannakakis"};

TEST_P(DeadlineInjectionTest, TimeoutOrExactAnswer) {
  const auto& [engine_idx, budget_step] = GetParam();
  Graph g = Rmat(7, 500, 0.57, 0.19, 0.19, 99);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 3.0, 1);
  rels.v2 = SampleNodes(g, 3.0, 2);
  Query q = MustParseQuery("v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c", "d"});
  const uint64_t expected =
      CreateEngine("lftj")->Execute(bq, ExecOptions{}).count;

  auto engine = CreateEngine(kInjectionEngines[engine_idx]);
  ExecOptions opts;
  // Budgets from "expires immediately" to "tight but maybe enough".
  opts.deadline = Deadline::AfterSeconds(budget_step * 0.002);
  ExecResult r = engine->Execute(bq, opts);
  if (r.ok()) {
    EXPECT_EQ(r.count, expected) << kInjectionEngines[engine_idx];
  } else {
    EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
        << kInjectionEngines[engine_idx] << ": " << r.status.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesByBudget, DeadlineInjectionTest,
    ::testing::Combine(::testing::Range(0, 7), ::testing::Values(0, 1, 5)),
    [](const auto& info) {
      std::string name = kInjectionEngines[std::get<0>(info.param)];
      if (name == "#ms") name = "cms";  // '#' is not a valid gtest name
      return name + "_b" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Determinism: repeated executions yield identical counts and stats.

TEST(DeterminismTest, RepeatedRunsAreIdentical) {
  Graph g = Rmat(7, 400, 0.57, 0.19, 0.19, 55);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  for (const char* name : {"lftj", "ms", "#ms"}) {
    auto engine = CreateEngine(name);
    ExecResult a = engine->Execute(bq, ExecOptions{});
    ExecResult b = engine->Execute(bq, ExecOptions{});
    EXPECT_EQ(a.count, b.count) << name;
    EXPECT_EQ(a.stats.seeks, b.stats.seeks) << name;
    EXPECT_EQ(a.stats.constraints_inserted, b.stats.constraints_inserted)
        << name;
  }
}

// ---------------------------------------------------------------------------
// Degenerate inputs.

TEST(DegenerateInputTest, EmptyEdgeRelation) {
  Relation empty(2);
  empty.Build();
  Relation v = Relation::FromTuples(1, {{1}, {2}});
  Query q = MustParseQuery("v1(a), edge(a,b), edge(b,c)");
  BoundQuery bq =
      Bind(q, {{"edge", &empty}, {"v1", &v}}, {"a", "b", "c"});
  for (const auto& name : EngineNames()) {
    if (name == "clique") continue;  // pattern unsupported by design
    ExecResult r = CreateEngine(name)->Execute(bq, ExecOptions{});
    EXPECT_EQ(r.count, 0u) << name;
    EXPECT_EQ(r.status.code(), StatusCode::kOk) << name;
  }
}

TEST(DegenerateInputTest, SingleVariableIntersection) {
  Relation a = Relation::FromTuples(1, {{1}, {3}, {5}, {7}});
  Relation b = Relation::FromTuples(1, {{3}, {4}, {7}, {9}});
  Query q = MustParseQuery("v1(x), v2(x)");
  BoundQuery bq = Bind(q, {{"v1", &a}, {"v2", &b}}, {"x"});
  for (const char* name : {"lftj", "ms", "psql", "yannakakis"}) {
    ExecResult r = CreateEngine(name)->Execute(bq, ExecOptions{});
    EXPECT_EQ(r.count, 2u) << name;  // {3, 7}
  }
}

TEST(DegenerateInputTest, SelfJoinOnIdenticalRelation) {
  Relation edge = Relation::FromTuples(2, {{0, 1}, {1, 2}, {2, 0}});
  Query q = MustParseQuery("e(a,b), e(b,c)");
  BoundQuery bq = Bind(q, {{"e", &edge}}, {"a", "b", "c"});
  const uint64_t expected = BruteForceCount(bq);
  for (const char* name : {"lftj", "ms", "psql", "monetdb"}) {
    EXPECT_EQ(CreateEngine(name)->Execute(bq, ExecOptions{}).count, expected)
        << name;
  }
}

TEST(DegenerateInputTest, FilterOnlyNeverSatisfied) {
  // b < a and a < b simultaneously: empty.
  Relation edge = Relation::FromTuples(2, {{0, 1}, {1, 2}});
  Query q = MustParseQuery("e(a,b), a<b, b<a");
  BoundQuery bq = Bind(q, {{"e", &edge}}, {"a", "b"});
  for (const char* name : {"lftj", "ms"}) {
    EXPECT_EQ(CreateEngine(name)->Execute(bq, ExecOptions{}).count, 0u)
        << name;
  }
}

TEST(DegenerateInputTest, ReversedFilterAgainstGao) {
  // Filter's smaller variable comes later in the GAO.
  Relation edge = Relation::FromTuples(2, {{0, 1}, {1, 0}, {2, 1}, {1, 2}});
  Query q = MustParseQuery("e(a,b), b<a");
  BoundQuery bq = Bind(q, {{"e", &edge}}, {"a", "b"});
  const uint64_t expected = BruteForceCount(bq);  // tuples with b < a
  for (const char* name : {"lftj", "ms", "psql"}) {
    EXPECT_EQ(CreateEngine(name)->Execute(bq, ExecOptions{}).count, expected)
        << name;
  }
}

// Minesweeper's domain contract: the frontier floor is -1 and constraint
// patterns read kWildcard as a wildcard, so a key below 0 or at kWildcard
// and above, in any column of any atom, must be refused rather than
// answered wrong. LFTJ answers both queries. ms and #ms refuse; the
// hybrid refuses, or answers exactly when its Minesweeper prefix does not
// read the offending atom.
TEST(DegenerateInputTest, MinesweeperRefusesKeysOutsideItsDomain) {
  struct Case {
    const char* what;
    std::vector<Tuple> r, s;
    uint64_t count;
  };
  const Case cases[] = {
      {"negative key in s's second column",
       {{1, 5}, {2, 5}},
       {{5, -5}, {5, 9}},
       4},
      {"key equal to kWildcard",
       {{1, kWildcard}, {2, 5}},
       {{5, 7}, {kWildcard, 8}},
       2},
  };
  for (const Case& c : cases) {
    const Relation r = Relation::FromTuples(2, c.r);
    const Relation s = Relation::FromTuples(2, c.s);
    const BoundQuery bq = Bind(MustParseQuery("r(a,b), s(b,c)"),
                               {{"r", &r}, {"s", &s}}, {"a", "b", "c"});
    const ExecResult lftj = CreateEngine("lftj")->Execute(bq, ExecOptions{});
    ASSERT_TRUE(lftj.ok()) << c.what << ": " << lftj.status.ToString();
    EXPECT_EQ(lftj.count, c.count) << c.what;
    for (const char* name : {"ms", "#ms", "hybrid"}) {
      for (bool collect : {false, true}) {
        ExecOptions opts;
        opts.collect_tuples = collect;
        const ExecResult got = CreateEngine(name)->Execute(bq, opts);
        if (got.ok() && std::string(name) == "hybrid") {
          EXPECT_EQ(got.count, c.count) << c.what;
          continue;
        }
        EXPECT_EQ(got.status.code(), StatusCode::kInvalidArgument)
            << name << ", " << c.what << ": count " << got.count;
        EXPECT_EQ(got.count, 0u) << name << ", " << c.what;
        EXPECT_TRUE(got.tuples.empty()) << name << ", " << c.what;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Wide queries: the CDS keys equality positions by 64-bit masks, so every
// Minesweeper-based engine refuses a query with more than Cds::kMaxVars
// variables with kInvalidArgument; LFTJ still answers it.

// `n`-variable path x0 - x1 - ... over relation e, bound in path order;
// `closed` adds edge(x0, x_{n-1}), which leaves the hybrid no split.
BoundQuery WidePath(const Relation& e, int n, bool closed) {
  std::string text;
  std::vector<std::string> gao;
  for (int v = 0; v < n; ++v) gao.push_back("x" + std::to_string(v));
  for (int v = 0; v + 1 < n; ++v) {
    text += (v == 0 ? "" : ", ") + ("e(" + gao[v] + "," + gao[v + 1] + ")");
  }
  if (closed) text += ", e(" + gao.front() + "," + gao.back() + ")";
  return Bind(MustParseQuery(text), {{"e", &e}}, gao);
}

const char* const kMinesweeperEngines[] = {
    "ms", "#ms", "ms-noidea4", "ms-noidea6", "ms-noidea46", "ms-noidea7",
    "hybrid"};

TEST(WideQueryTest, MinesweeperEnginesRefuseMoreThanKMaxVars) {
  std::vector<Tuple> chain;
  for (Value i = 0; i < 100; ++i) chain.push_back({i, i + 1});
  const Relation e = Relation::FromTuples(2, chain);
  for (bool closed : {false, true}) {
    const BoundQuery bq = WidePath(e, 71, closed);
    // The path splits for the hybrid (a 70-variable Minesweeper prefix);
    // the closed path does not (a pure Minesweeper fallback).
    EXPECT_EQ(HybridEngine::FindSplit(bq) == 0, closed);
    const ExecResult lftj = CreateEngine("lftj")->Execute(bq, ExecOptions{});
    ASSERT_TRUE(lftj.ok()) << lftj.status.ToString();
    EXPECT_EQ(lftj.count, closed ? 0u : 31u);  // 70-edge paths in the chain
    for (const char* name : kMinesweeperEngines) {
      for (bool collect : {false, true}) {
        ExecOptions opts;
        opts.collect_tuples = collect;
        const ExecResult r = CreateEngine(name)->Execute(bq, opts);
        EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument)
            << name << " closed=" << closed << ": " << r.status.ToString();
        EXPECT_EQ(r.count, 0u) << name;
        EXPECT_TRUE(r.tuples.empty()) << name;
      }
    }
  }
}

TEST(WideQueryTest, MinesweeperAnswersAtKMaxVars) {
  std::vector<Tuple> chain;
  for (Value i = 0; i < 100; ++i) chain.push_back({i, i + 1});
  const Relation e = Relation::FromTuples(2, chain);
  const BoundQuery bq = WidePath(e, Cds::kMaxVars, false);
  for (const char* name : kMinesweeperEngines) {
    const ExecResult r = CreateEngine(name)->Execute(bq, ExecOptions{});
    ASSERT_TRUE(r.ok()) << name << ": " << r.status.ToString();
    EXPECT_EQ(r.count, 40u) << name;  // 61-edge paths in the chain
  }
}

// ---------------------------------------------------------------------------
// GAO invariance: the answer is GAO-independent; only performance varies.
// (For Minesweeper non-NEO orders exercise the poset regime, which must
// still be correct.)

class GaoInvarianceTest : public ::testing::TestWithParam<int> {};

TEST_P(GaoInvarianceTest, AllOrdersGiveTheSameCount) {
  Graph g = ErdosRenyi(11, 24, 700 + GetParam());
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 2.0, 1);
  Query q = MustParseQuery("v1(a), edge(a,b), edge(b,c), edge(a,c)");
  std::vector<std::string> gao = {"a", "b", "c"};
  std::sort(gao.begin(), gao.end());
  uint64_t expected = 0;
  bool first = true;
  do {
    BoundQuery bq = Bind(q, rels.Map(), gao);
    for (const char* name : {"lftj", "ms"}) {
      const uint64_t got =
          CreateEngine(name)->Execute(bq, ExecOptions{}).count;
      if (first) {
        expected = got;
        first = false;
      }
      EXPECT_EQ(got, expected)
          << name << " under GAO " << gao[0] << gao[1] << gao[2];
    }
  } while (std::next_permutation(gao.begin(), gao.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GaoInvarianceTest, ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// Hybrid split detection.

TEST(HybridSplitTest, LollipopSplitsAtTheJunction) {
  Graph g = ErdosRenyi(10, 20, 3);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery(
      "v1(a), edge(a,b), edge(b,c), edge(c,d), edge(d,e), edge(c,e)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c", "d", "e"});
  EXPECT_EQ(HybridEngine::FindSplit(bq), 3);  // junction = c
}

// The suffix run binds the junction as its first variable, so a split
// whose suffix atoms miss the junction is invalid: at s = 2 the suffix
// edge(c,d) does not contain b. The split falls back to s = 1, where
// edge(a,b) carries the junction a.
TEST(HybridSplitTest, SuffixMustContainTheJunction) {
  Graph g = ErdosRenyi(10, 20, 3);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 3.0, 1);
  Query q = MustParseQuery("v1(a), edge(a,b), edge(c,d)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c", "d"});
  EXPECT_EQ(HybridEngine::FindSplit(bq), 1);
  for (bool collect : {false, true}) {
    ExecOptions opts;
    opts.collect_tuples = collect;
    const ExecResult lftj = CreateEngine("lftj")->Execute(bq, opts);
    const ExecResult hybrid = CreateEngine("hybrid")->Execute(bq, opts);
    ASSERT_TRUE(hybrid.ok()) << hybrid.status.ToString();
    EXPECT_GT(lftj.count, 0u);
    EXPECT_EQ(hybrid.count, lftj.count) << "collect=" << collect;
    EXPECT_EQ(hybrid.tuples.size(), lftj.tuples.size())
        << "collect=" << collect;
  }
}

TEST(HybridSplitTest, CliqueHasNoSplit) {
  Graph g = ErdosRenyi(10, 20, 3);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  EXPECT_EQ(HybridEngine::FindSplit(bq), 0);  // falls back to pure MS
}

}  // namespace
}  // namespace wcoj
