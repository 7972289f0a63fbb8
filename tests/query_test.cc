#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "core/engine.h"
#include "util/rng.h"
#include "graph/generators.h"
#include "query/agm.h"
#include "query/hypergraph.h"
#include "query/parser.h"
#include "storage/catalog.h"
#include "storage/relation.h"
#include "tests/test_util.h"

namespace wcoj {
namespace {

TEST(ParserTest, ParsesAtomsAndFilterChains) {
  ParseResult r =
      ParseQuery("edge(a,b), edge(b,c), edge(a,c), a<b<c");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.query.atoms.size(), 3u);
  EXPECT_EQ(r.query.atoms[0].relation, "edge");
  EXPECT_EQ(r.query.atoms[0].vars, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(r.query.filters.size(), 2u);
  EXPECT_EQ(r.query.filters[0].lo, "a");
  EXPECT_EQ(r.query.filters[0].hi, "b");
  EXPECT_EQ(r.query.filters[1].lo, "b");
  EXPECT_EQ(r.query.filters[1].hi, "c");
}

TEST(ParserTest, VariablesInFirstAppearanceOrder) {
  Query q = MustParseQuery("v1(c), v2(d), edge(a,b), edge(a,c), edge(b,d)");
  EXPECT_EQ(q.Variables(),
            (std::vector<std::string>{"c", "d", "a", "b"}));
}

TEST(ParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseQuery("").ok);
  EXPECT_FALSE(ParseQuery("edge(a,").ok);
  EXPECT_FALSE(ParseQuery("edge(a b)").ok);
  EXPECT_FALSE(ParseQuery("a<").ok);
  EXPECT_FALSE(ParseQuery("a<b").ok);  // filters alone: no atoms
  EXPECT_FALSE(ParseQuery("edge(a,b) edge(b,c)").ok);
}

TEST(ParserTest, WhitespaceInsensitive) {
  ParseResult r = ParseQuery("  edge ( a , b ) ,  a < b ");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.query.atoms.size(), 1u);
  EXPECT_EQ(r.query.filters.size(), 1u);
}

TEST(BindTest, MapsVariablesToGaoPositions) {
  Relation edge = Relation::FromTuples(2, {{0, 1}});
  Relation v1 = Relation::FromTuples(1, {{0}});
  Query q = MustParseQuery("v1(b), edge(a,b), a<b");
  BoundQuery bq =
      Bind(q, {{"edge", &edge}, {"v1", &v1}}, {"b", "a"});
  EXPECT_EQ(bq.num_vars, 2);
  EXPECT_EQ(bq.atoms[0].vars, (std::vector<int>{0}));   // v1(b): b at GAO 0
  EXPECT_EQ(bq.atoms[1].vars, (std::vector<int>{1, 0}));  // edge(a,b)
  ASSERT_EQ(bq.less_than.size(), 1u);
  EXPECT_EQ(bq.less_than[0], (std::pair<int, int>{1, 0}));
}

// CheckBindable is the one vetting pass in front of Bind at the CLI and
// wire boundaries; each refusal is kInvalidArgument with a message
// naming the offender.
class CheckBindableTest : public ::testing::Test {
 protected:
  Relation edge_ = Relation::FromTuples(2, {{0, 1}});
  Relation v1_ = Relation::FromTuples(1, {{0}});
  const std::map<std::string, const Relation*> relations_ = {
      {"edge", &edge_}, {"v1", &v1_}};
};

TEST_F(CheckBindableTest, AcceptsAWellFormedQuery) {
  EXPECT_TRUE(
      CheckBindable(MustParseQuery("v1(a), edge(a,b), a<b"), relations_).ok());
}

TEST_F(CheckBindableTest, RejectsUnknownRelation) {
  const Status s = CheckBindable(MustParseQuery("edge(a,b), nope(b)"),
                                 relations_);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "unknown relation 'nope'; known: edge/2 v1/1");
}

// The engines index an atom's columns by variable, so a variable that
// repeats inside one atom has no binding: `edge(a,a)` is refused, not
// run (at the binary surface it crashed Minesweeper and miscounted
// lftj and the pairwise engines). The same variable across atoms is a
// join and stays legal.
TEST_F(CheckBindableTest, RejectsAVariableRepeatedInsideOneAtom) {
  const Status s =
      CheckBindable(MustParseQuery("v1(a), edge(a,a)"), relations_);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "atom 'edge(a,a)' repeats variable 'a'");
  EXPECT_TRUE(CheckBindable(MustParseQuery("edge(a,b), edge(b,a)"),
                            relations_).ok());
}

// BindText is the one text-to-BoundQuery gate: parse errors and
// CheckBindable refusals come back as kInvalidArgument, and a bindable
// text binds with the first-appearance GAO over the given catalog.
TEST_F(CheckBindableTest, BindTextParsesVetsAndBindsInFirstAppearanceOrder) {
  const StatusOr<BoundQuery> bad = BindText("edge(a,", relations_, nullptr);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.status().message().rfind("parse error: ", 0), 0u);
  EXPECT_EQ(BindText("edge(a,a)", relations_, nullptr).status().code(),
            StatusCode::kInvalidArgument);

  IndexCatalog catalog;
  const StatusOr<BoundQuery> bq =
      BindText("v1(b), edge(a,b), b<a", relations_, &catalog);
  ASSERT_TRUE(bq.ok()) << bq.status().ToString();
  EXPECT_EQ(bq.value().var_names, (std::vector<std::string>{"b", "a"}));
  EXPECT_EQ(bq.value().atoms[1].vars, (std::vector<int>{1, 0}));
  ASSERT_EQ(bq.value().less_than.size(), 1u);
  EXPECT_EQ(bq.value().less_than[0], (std::pair<int, int>{0, 1}));
  EXPECT_EQ(bq.value().catalog, &catalog);
}

TEST_F(CheckBindableTest, RejectsArityMismatch) {
  const Status s = CheckBindable(MustParseQuery("edge(a,b,c)"), relations_);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "relation 'edge' has arity 2, got 3 variables");
}

TEST_F(CheckBindableTest, RejectsUnboundFilterVariable) {
  const Status s = CheckBindable(MustParseQuery("edge(a,b), a<z"), relations_);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "filter variable 'z' is not bound by any atom");
}

// --- Acyclicity ------------------------------------------------------------

Hypergraph HgOf(const std::string& text) {
  return Hypergraph::FromQuery(MustParseQuery(text));
}

TEST(HypergraphTest, TriangleIsCyclic) {
  Hypergraph h = HgOf("e(a,b), e(b,c), e(a,c)");
  EXPECT_FALSE(IsAlphaAcyclic(h));
  EXPECT_FALSE(IsBetaAcyclic(h));
}

TEST(HypergraphTest, PathsAreAcyclic) {
  Hypergraph h = HgOf("v1(a), v2(d), e(a,b), e(b,c), e(c,d)");
  EXPECT_TRUE(IsAlphaAcyclic(h));
  EXPECT_TRUE(IsBetaAcyclic(h));
}

TEST(HypergraphTest, CombIsAcyclic) {
  Hypergraph h = HgOf("v1(c), v2(d), e(a,b), e(a,c), e(b,d)");
  EXPECT_TRUE(IsAlphaAcyclic(h));
  EXPECT_TRUE(IsBetaAcyclic(h));
}

TEST(HypergraphTest, FourCycleIsCyclic) {
  Hypergraph h = HgOf("e(a,b), e(b,c), e(c,d), e(a,d)");
  EXPECT_FALSE(IsAlphaAcyclic(h));
  EXPECT_FALSE(IsBetaAcyclic(h));
}

TEST(HypergraphTest, AlphaButNotBetaAcyclic) {
  // Classical example: a triangle plus a covering 3-ary edge is
  // alpha-acyclic (the big edge is an ear) but not beta-acyclic (the
  // triangle is a subhypergraph obstruction).
  Hypergraph h = HgOf("r(a,b,c), e(a,b), e(b,c), e(a,c)");
  EXPECT_TRUE(IsAlphaAcyclic(h));
  EXPECT_FALSE(IsBetaAcyclic(h));
}

TEST(HypergraphTest, LollipopIsCyclic) {
  Hypergraph h =
      HgOf("v1(a), e(a,b), e(b,c), e(c,d), e(d,f), e(c,f)");
  EXPECT_FALSE(IsAlphaAcyclic(h));
  EXPECT_FALSE(IsBetaAcyclic(h));
}

// --- Nested GAO / skeleton ---------------------------------------------------

BoundQuery BindSynthetic(const std::string& text,
                         const std::vector<std::string>& gao) {
  // Dummy relations; structure-only tests.
  static Relation* unary = [] {
    auto* r = new Relation(1);
    r->Build();
    return r;
  }();
  static Relation* binary = [] {
    auto* r = new Relation(2);
    r->Build();
    return r;
  }();
  Query q = MustParseQuery(text);
  std::map<std::string, const Relation*> rels;
  for (const auto& atom : q.atoms) {
    rels[atom.relation] = atom.vars.size() == 1 ? unary : binary;
  }
  return Bind(q, rels, gao);
}

TEST(GaoTest, PathGaoIsNested) {
  BoundQuery bq = BindSynthetic("v1(a), v2(d), e(a,b), f(b,c), g(c,d)",
                                {"a", "b", "c", "d"});
  EXPECT_TRUE(GaoIsNested(bq));
}

TEST(GaoTest, TriangleGaoIsNotNested) {
  BoundQuery bq =
      BindSynthetic("e(a,b), f(b,c), g(a,c)", {"a", "b", "c"});
  EXPECT_FALSE(GaoIsNested(bq));
}

TEST(GaoTest, NonNeoOrderOnPathIsNotNested) {
  // Table 4: ABDCE is a non-NEO GAO for the 4-path.
  BoundQuery bq = BindSynthetic(
      "v1(a), v2(e), e(a,b), f(b,c), g(c,d), h(d,e)",
      {"a", "b", "d", "c", "e"});
  EXPECT_FALSE(GaoIsNested(bq));
}

TEST(GaoTest, NeoOrdersOnPathAreNested) {
  // Table 4 lists BACDE, BCADE, CBADE, CBDAE as NEO GAOs for 4-path.
  for (const auto& gao :
       std::vector<std::vector<std::string>>{{"b", "a", "c", "d", "e"},
                                             {"b", "c", "a", "d", "e"},
                                             {"c", "b", "a", "d", "e"},
                                             {"c", "b", "d", "a", "e"}}) {
    BoundQuery bq = BindSynthetic(
        "v1(a), v2(e), e(a,b), f(b,c), g(c,d), h(d,e)", gao);
    EXPECT_TRUE(GaoIsNested(bq)) << gao[0] << gao[1] << gao[2];
  }
}

TEST(GaoTest, SkeletonDropsOneTriangleEdge) {
  BoundQuery bq =
      BindSynthetic("e(a,b), f(b,c), g(a,c)", {"a", "b", "c"});
  std::vector<bool> skel = BetaAcyclicSkeleton(bq);
  int kept = 0;
  for (bool k : skel) kept += k;
  EXPECT_EQ(kept, 2);
}

TEST(GaoTest, SkeletonKeepsAllOfAcyclicQuery) {
  BoundQuery bq = BindSynthetic("v1(a), v2(d), e(a,b), f(b,c), g(c,d)",
                                {"a", "b", "c", "d"});
  std::vector<bool> skel = BetaAcyclicSkeleton(bq);
  for (bool k : skel) EXPECT_TRUE(k);
}

TEST(GaoTest, FindNeoGaoFindsOrderForPaths) {
  Query q = MustParseQuery("v1(a), v2(d), e(a,b), e(b,c), e(c,d)");
  auto gao = FindNeoGao(q);
  ASSERT_TRUE(gao.has_value());
  // Any returned order must pass the nested test.
  std::map<std::string, const Relation*> rels;
  static Relation unary(1), binary(2);
  unary.Build();
  binary.Build();
  for (const auto& atom : q.atoms) {
    rels[atom.relation] = atom.vars.size() == 1 ? &unary : &binary;
  }
  EXPECT_TRUE(GaoIsNested(Bind(q, rels, *gao)));
}

TEST(GaoTest, FindNeoGaoFailsOnTriangle) {
  Query q = MustParseQuery("e(a,b), e(b,c), e(a,c)");
  EXPECT_FALSE(FindNeoGao(q).has_value());
}

// --- AGM bound ---------------------------------------------------------------

TEST(AgmTest, TriangleBoundIsNPow1Point5) {
  Relation edge(2);
  for (Value i = 0; i < 100; ++i) edge.Add({i, (i * 7 + 1) % 100});
  edge.Build();
  Query q = MustParseQuery("e1(a,b), e2(b,c), e3(a,c)");
  BoundQuery bq = Bind(
      q, {{"e1", &edge}, {"e2", &edge}, {"e3", &edge}}, {"a", "b", "c"});
  AgmResult r = AgmBound(bq);
  ASSERT_TRUE(r.ok);
  // Fractional cover (1/2, 1/2, 1/2): bound = N^{3/2}.
  EXPECT_NEAR(r.log2_bound, 1.5 * std::log2(100.0), 1e-6);
}

TEST(AgmTest, PathBoundMultipliesEndpointCovers) {
  Relation e1 = Relation::FromTuples(2, {{0, 1}, {1, 2}});
  Relation e2 = Relation::FromTuples(2, {{1, 2}, {2, 3}, {4, 5}, {5, 6}});
  Query q = MustParseQuery("e1(a,b), e2(b,c)");
  BoundQuery bq = Bind(q, {{"e1", &e1}, {"e2", &e2}}, {"a", "b", "c"});
  AgmResult r = AgmBound(bq);
  ASSERT_TRUE(r.ok);
  // Cover must take both edges fully: bound = |e1| * |e2| = 8.
  EXPECT_NEAR(r.bound, 8.0, 1e-6);
}

TEST(AgmTest, EmptyRelationGivesZeroBound) {
  Relation e1 = Relation::FromTuples(2, {{0, 1}});
  Relation empty(2);
  empty.Build();
  Query q = MustParseQuery("e1(a,b), e2(b,c)");
  BoundQuery bq = Bind(q, {{"e1", &e1}, {"e2", &empty}}, {"a", "b", "c"});
  AgmResult r = AgmBound(bq);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.bound, 0.0);
}

TEST(AgmTest, OutputNeverExceedsAgmBound) {
  // Worst-case-optimality sanity: actual output <= AGM on random data.
  for (int seed = 0; seed < 5; ++seed) {
    Graph g = ErdosRenyi(20, 60, 900 + seed);
    GraphRelations rels = MakeGraphRelations(g);
    Query q = MustParseQuery("edge(a,b), edge(b,c), edge(a,c)");
    BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
    AgmResult bound = AgmBound(bq);
    ASSERT_TRUE(bound.ok);
    auto engine = CreateEngine("lftj");
    ExecResult r = engine->Execute(bq, ExecOptions{});
    EXPECT_LE(static_cast<double>(r.count), bound.bound + 1e-6);
  }
}

}  // namespace
}  // namespace wcoj

// Appended property sweep: structural invariants over random hypergraphs.
namespace wcoj {
namespace {

class HypergraphPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HypergraphPropertyTest, BetaAcyclicImpliesAlphaAcyclic) {
  Rng rng(GetParam() * 7 + 3);
  Hypergraph h;
  h.num_vertices = 4 + static_cast<int>(rng.NextBounded(4));
  const int m = 2 + static_cast<int>(rng.NextBounded(5));
  for (int e = 0; e < m; ++e) {
    std::vector<int> edge;
    for (int v = 0; v < h.num_vertices; ++v) {
      if (rng.NextBounded(3) == 0) edge.push_back(v);
    }
    if (edge.empty()) edge.push_back(static_cast<int>(rng.NextBounded(h.num_vertices)));
    h.edges.push_back(std::move(edge));
  }
  if (IsBetaAcyclic(h)) {
    EXPECT_TRUE(IsAlphaAcyclic(h));
  }
}

TEST_P(HypergraphPropertyTest, BetaAcyclicityIsHereditary) {
  // Removing edges preserves beta-acyclicity.
  Rng rng(GetParam() * 13 + 5);
  Hypergraph h;
  h.num_vertices = 5;
  // A path-ish beta-acyclic base.
  h.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {1}, {4}};
  ASSERT_TRUE(IsBetaAcyclic(h));
  Hypergraph sub = h;
  sub.edges.erase(sub.edges.begin() + rng.NextBounded(sub.edges.size()));
  EXPECT_TRUE(IsBetaAcyclic(sub));
}

INSTANTIATE_TEST_SUITE_P(Seeds, HypergraphPropertyTest,
                         ::testing::Range(0, 20));

TEST(NeoTest, PaperWorkloadsSplitByCyclicity) {
  // FindNeoGao succeeds exactly on the beta-acyclic §5.1 queries.
  const std::pair<const char*, bool> cases[] = {
      {"v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)", true},   // 3-path
      {"v1(b), v2(c), edge(a,b), edge(a,c)", true},              // 1-tree
      {"v1(c), v2(d), edge(a,b), edge(a,c), edge(b,d)", true},   // 2-comb
      {"edge(a,b), edge(b,c), edge(a,c)", false},                // 3-clique
      {"edge(a,b), edge(b,c), edge(c,d), edge(a,d)", false},     // 4-cycle
      {"v1(a), edge(a,b), edge(b,c), edge(c,d), edge(d,e), edge(c,e)",
       false},                                                   // 2-lollipop
  };
  for (const auto& [text, acyclic] : cases) {
    EXPECT_EQ(FindNeoGao(MustParseQuery(text)).has_value(), acyclic) << text;
  }
}

TEST(GaoConsistentPermTest, OrdersColumnsByGaoPosition) {
  // Atom columns bound to GAO positions (2, 0, 1): the trie must expose
  // the var-0 column first, then var-1, then var-2.
  EXPECT_EQ(GaoConsistentPerm({2, 0, 1}), (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(GaoConsistentPerm({0, 1}), (std::vector<int>{0, 1}));
  EXPECT_EQ(GaoConsistentPerm({1, 0}), (std::vector<int>{1, 0}));
  EXPECT_EQ(GaoConsistentPerm({}), (std::vector<int>{}));
  // Ties (a variable bound twice) resolve stably by column, so equal
  // atoms always produce the same catalog key.
  EXPECT_EQ(GaoConsistentPerm({3, 3, 1}), (std::vector<int>{2, 0, 1}));
}

TEST(GaoConsistentPermTest, MatchesBoundAtomSortedVars) {
  const Query q = MustParseQuery("v1(a), v2(d), edge(a,b), edge(b,c)");
  GraphRelations rels = MakeGraphRelations(ErdosRenyi(20, 40, 3));
  const BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c", "d"});
  for (size_t i = 0; i < bq.atoms.size(); ++i) {
    const std::vector<int> perm = GaoConsistentPerm(bq.atoms[i].vars);
    const std::vector<int> sorted = bq.AtomVarsSorted(i);
    ASSERT_EQ(perm.size(), sorted.size());
    for (size_t p = 0; p < perm.size(); ++p) {
      EXPECT_EQ(bq.atoms[i].vars[perm[p]], sorted[p]);
    }
  }
}

TEST(BindTest, DatabaseOverloadAttachesCatalog) {
  Database db;
  db.Put("edge", Relation::FromTuples(2, {{1, 2}, {2, 3}}));
  const Query q = MustParseQuery("edge(a,b), edge(b,c)");
  const BoundQuery bq = Bind(q, db, {"a", "b", "c"});
  EXPECT_EQ(bq.catalog, db.catalog());
  ASSERT_EQ(bq.atoms.size(), 2u);
  EXPECT_EQ(bq.atoms[0].relation, db.Find("edge"));
  ExecResult r = CreateEngine("lftj")->Execute(bq, ExecOptions{});
  EXPECT_EQ(r.count, 1u);  // (1,2,3)
  EXPECT_EQ(r.stats.index_builds + r.stats.index_cache_hits, 2u);
  EXPECT_EQ(db.catalog()->builds(), r.stats.index_builds);
}

}  // namespace
}  // namespace wcoj
