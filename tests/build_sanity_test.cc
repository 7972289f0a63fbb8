// Build-sanity smoke suite: every engine the factory knows must link,
// construct, and answer trivial queries. A broken link line or a
// half-registered engine fails here in milliseconds, before the real
// suites run.

#include <gtest/gtest.h>

#include <memory>

#include "core/engine.h"
#include "graph/graph.h"
#include "query/parser.h"
#include "storage/relation.h"

namespace wcoj {
namespace {

// K3 {0,1,2} plus K3 {1,2,3}: two triangles, five edges.
Graph TinyGraph() {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  g.Build();
  return g;
}

TEST(BuildSanityTest, FactoryCoversEveryName) {
  for (const std::string& name : EngineNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Engine> engine = CreateEngine(name);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), name);
  }
  EXPECT_EQ(CreateEngine("no-such-engine"), nullptr);
}

TEST(BuildSanityTest, EveryEngineAnswersOneAtomQuery) {
  const Graph g = TinyGraph();
  const Relation edge = g.EdgeRelationSymmetric();
  const Query q = MustParseQuery("edge(a,b)");
  const BoundQuery bq = Bind(q, {{"edge", &edge}}, {"a", "b"});
  for (const std::string& name : EngineNames()) {
    SCOPED_TRACE(name);
    const ExecResult r = CreateEngine(name)->Execute(bq, ExecOptions{});
    if (name == "clique") {
      // The specialized engine has no program for non-clique patterns and
      // reports a structured non-answer.
      EXPECT_EQ(r.status.code(), StatusCode::kUnimplemented);
      continue;
    }
    EXPECT_EQ(r.status.code(), StatusCode::kOk) << r.status.ToString();
    EXPECT_EQ(r.count, 2 * g.num_edges());
  }
}

// Regression: a degenerate x<x filter is unsatisfiable; the Minesweeper
// family used to write a gap-box pattern out of bounds on it.
TEST(BuildSanityTest, DegenerateSelfFilterIsEmptyEverywhere) {
  const Graph g = TinyGraph();
  const Relation node = g.NodeRelation();
  const Query q = MustParseQuery("node(a), a<a");
  const BoundQuery bq = Bind(q, {{"node", &node}}, {"a"});
  for (const std::string& name : EngineNames()) {
    if (name == "clique") continue;  // no program for non-clique patterns
    SCOPED_TRACE(name);
    const ExecResult r = CreateEngine(name)->Execute(bq, ExecOptions{});
    EXPECT_EQ(r.status.code(), StatusCode::kOk) << r.status.ToString();
    EXPECT_EQ(r.count, 0u);
  }
}

TEST(BuildSanityTest, EveryEngineAnswersTriangleQuery) {
  const Graph g = TinyGraph();
  const Relation edge_lt = g.EdgeRelationOriented();
  const Query q =
      MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c), a<b<c");
  const BoundQuery bq = Bind(q, {{"edge_lt", &edge_lt}}, {"a", "b", "c"});
  for (const std::string& name : EngineNames()) {
    SCOPED_TRACE(name);
    const ExecResult r = CreateEngine(name)->Execute(bq, ExecOptions{});
    EXPECT_EQ(r.status.code(), StatusCode::kOk) << r.status.ToString();
    EXPECT_EQ(r.count, 2u);
  }
}

}  // namespace
}  // namespace wcoj
