#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/cds.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "graph/sampling.h"
#include "query/parser.h"
#include "tests/cds_reference.h"
#include "tests/test_util.h"

namespace wcoj {
namespace {

// Differential coverage for the arena-backed CDS (this PR): the
// pointer-based pre-refactor implementation rides along in
// tests/cds_reference.h as an oracle, and the arena implementation must
// be behaviourally indistinguishable from it — same frontier sequences,
// same accepted-insert and drain counters on identical workloads, and
// identical engine outputs on randomized cyclic + acyclic queries over
// skewed generators.

struct DiffCase {
  int num_vars;
  bool chain_only;  // chain regime vs §4.8 poset regime
  bool count_mode;  // drain completed classes (Idea 8), or never
  Value domain;
  // Off-frontier patterns and shallow Idea-7-style jumps: the moves that
  // unverify only part of the arena Cds's resumed search, against an
  // oracle that searches from the root every time.
  bool off_frontier = false;
};

// 2 regimes x {plain, count-mode} x 30 seeds = 120 seeded runs, 60 more
// with off-frontier patterns and shallow jumps, plus the
// engine-level sweep below: comfortably past the 100-run bar.
class CdsDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(CdsDifferentialTest, ArenaMatchesPointerReferenceExactly) {
  const int seed = GetParam();
  const DiffCase cases[] = {
      {3, /*chain_only=*/true, /*count_mode=*/false, 48},
      {4, /*chain_only=*/true, /*count_mode=*/true, 32},
      {3, /*chain_only=*/false, /*count_mode=*/false, 48},
      {4, /*chain_only=*/false, /*count_mode=*/true, 32},
      {3, /*chain_only=*/true, /*count_mode=*/false, 48, true},
      {4, /*chain_only=*/false, /*count_mode=*/true, 32, true},
  };
  for (const DiffCase& c : cases) {
    CdsArena arena;
    Cds arena_cds(c.num_vars, Cds::Options{}, &arena);
    cdsref::Cds ref_cds(c.num_vars, cdsref::Cds::Options{});

    const CdsDrain drain =
        c.count_mode ? CdsDrain::kCountMode : CdsDrain::kNever;
    const uint64_t wseed = 1000003u * seed + c.num_vars +
                           (c.chain_only ? 7 : 0) + (c.count_mode ? 13 : 0) +
                           (c.off_frontier ? 17 : 0);
    const CdsWorkloadResult got = DriveCdsWorkload(
        &arena_cds, c.num_vars, wseed, /*max_free_tuples=*/300, c.chain_only,
        c.domain, /*collect_frontiers=*/true, drain, c.off_frontier);
    const CdsWorkloadResult want = DriveCdsWorkload(
        &ref_cds, c.num_vars, wseed, /*max_free_tuples=*/300, c.chain_only,
        c.domain, /*collect_frontiers=*/true, drain, c.off_frontier);

    ASSERT_EQ(got.frontiers.size(), want.frontiers.size())
        << "seed=" << seed << " chain=" << c.chain_only
        << " count=" << c.count_mode << " off=" << c.off_frontier;
    for (size_t i = 0; i < got.frontiers.size(); ++i) {
      ASSERT_EQ(got.frontiers[i], want.frontiers[i])
          << "seed=" << seed << " step=" << i << " chain=" << c.chain_only
          << " off=" << c.off_frontier;
    }
    EXPECT_EQ(got.num_frontiers, want.num_frontiers) << "seed=" << seed;
    EXPECT_EQ(got.frontier_hash, want.frontier_hash) << "seed=" << seed;
    EXPECT_EQ(got.inserted, want.inserted) << "seed=" << seed;
    EXPECT_EQ(got.counted, want.counted) << "seed=" << seed;
    // The count-mode cases really drain; the plain ones never do.
    EXPECT_EQ(got.counted > 0, c.count_mode)
        << "seed=" << seed << " chain=" << c.chain_only;
    EXPECT_EQ(arena_cds.constraints_inserted(),
              ref_cds.constraints_inserted())
        << "seed=" << seed;
    EXPECT_EQ(arena_cds.counted_outputs(), ref_cds.counted_outputs())
        << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdsDifferentialTest, ::testing::Range(0, 30));

// Engine-level sweep: on skewed random instances, the arena-backed
// Minesweeper (plain and counting) must agree with LFTJ — an engine that
// shares no CDS code at all — on counts and full output tuples, for both
// cyclic and acyclic query shapes.
class CdsEngineSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(CdsEngineSweepTest, MinesweeperMatchesLftjOnSkewedInstances) {
  const int seed = GetParam();
  Graph g = Rmat(7, 380 + 20 * seed, 0.57, 0.19, 0.19, 100 + seed);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 4, seed + 1);
  rels.v2 = SampleNodes(g, 4, seed + 2);
  const std::pair<const char*, std::vector<std::string>> queries[] = {
      // Cyclic: triangle.
      {"edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)", {"a", "b", "c"}},
      // Cyclic: 4-cycle.
      {"edge_lt(a,b), edge(b,c), edge_lt(c,d), edge(a,d)",
       {"a", "b", "c", "d"}},
      // Acyclic: selective 3-path.
      {"v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)",
       {"a", "b", "c", "d"}},
  };
  for (const auto& [text, gao] : queries) {
    BoundQuery bq = Bind(MustParseQuery(text), rels.Map(), gao);
    ExecOptions opts;
    opts.collect_tuples = true;
    ExecResult lftj = CreateEngine("lftj")->Execute(bq, opts);
    ExecResult ms = CreateEngine("ms")->Execute(bq, opts);
    std::sort(lftj.tuples.begin(), lftj.tuples.end());
    std::sort(ms.tuples.begin(), ms.tuples.end());
    EXPECT_EQ(ms.count, lftj.count) << text << " seed=" << seed;
    EXPECT_EQ(ms.tuples, lftj.tuples) << text << " seed=" << seed;
    // Counting mode drains classes wholesale through the arena pointLists;
    // the total must still match.
    ExecResult cms = CreateEngine("#ms")->Execute(bq, ExecOptions{});
    EXPECT_EQ(cms.count, lftj.count) << text << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdsEngineSweepTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace wcoj
