#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/cds.h"
#include "core/cds_arena.h"
#include "core/constraint.h"
#include "core/engine.h"
#include "util/mem_budget.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace wcoj {
namespace {

// ---------------------------------------------------------------------------
// CdsNode interval semantics, checked against a naive interval-set oracle.

class IntervalOracle {
 public:
  void Insert(Value l, Value r) { intervals_.push_back({l, r}); }

  bool Covered(Value x) const {
    for (const auto& [l, r] : intervals_) {
      if (l < x && x < r) return true;
    }
    return false;
  }

  Value Next(Value x) const {
    while (Covered(x)) {
      // Jump to the smallest right endpoint > x among covering intervals.
      Value best = kPosInf;
      for (const auto& [l, r] : intervals_) {
        if (l < x && x < r) best = std::min(best, r);
      }
      if (best == kPosInf) return kPosInf;
      x = best;
    }
    return x;
  }

  // Number of maximal open intervals in the union: overlapping intervals
  // merge, touching ones do not (their shared endpoint stays free).
  size_t MergedCount() const {
    std::vector<std::pair<Value, Value>> sorted = intervals_;
    std::sort(sorted.begin(), sorted.end());
    size_t n = 0;
    Value reach = kNegInf;
    for (const auto& [l, r] : sorted) {
      if (n == 0 || l >= reach) {
        ++n;
        reach = r;
      } else {
        reach = std::max(reach, r);
      }
    }
    return n;
  }

 private:
  std::vector<std::pair<Value, Value>> intervals_;
};

// Arena + one root node, the fixture every CdsNode test starts from.
struct NodeFixture {
  CdsArena arena;
  CdsNode* node;
  uint64_t ids = 1;
  NodeFixture() { node = arena.node(arena.AllocNode(kCdsNull, kWildcard, 1)); }
};

TEST(CdsNodeTest, NextOnEmptyNodeIsIdentity) {
  NodeFixture f;
  EXPECT_EQ(f.node->Next(-1), -1);
  EXPECT_EQ(f.node->Next(42), 42);
}

TEST(CdsNodeTest, NextSkipsOpenInterval) {
  NodeFixture f;
  f.node->InsertInterval(&f.arena, 5, 7);
  EXPECT_EQ(f.node->Next(4), 4);
  EXPECT_EQ(f.node->Next(5), 5);  // endpoints are free (open interval)
  EXPECT_EQ(f.node->Next(6), 7);
  EXPECT_EQ(f.node->Next(7), 7);
  EXPECT_EQ(f.node->Next(8), 8);
}

TEST(CdsNodeTest, TouchingIntervalsLeaveSharedEndpointFree) {
  // Paper Figure 2: (1,3) and (3,9) keep 3 free, marked both L and R.
  NodeFixture f;
  f.node->InsertInterval(&f.arena, 1, 3);
  f.node->InsertInterval(&f.arena, 3, 9);
  EXPECT_EQ(f.node->Next(2), 3);
  EXPECT_EQ(f.node->Next(3), 3);
  EXPECT_EQ(f.node->Next(4), 9);
  EXPECT_EQ(f.node->NumIntervals(), 2u);
}

TEST(CdsNodeTest, OverlappingIntervalsMerge) {
  NodeFixture f;
  f.node->InsertInterval(&f.arena, 1, 6);
  f.node->InsertInterval(&f.arena, 4, 10);
  EXPECT_EQ(f.node->Next(2), 10);
  EXPECT_EQ(f.node->Next(6), 10);  // 6 was an endpoint but is now interior
  EXPECT_EQ(f.node->NumIntervals(), 1u);
}

TEST(CdsNodeTest, ContainedIntervalIsNoOp) {
  NodeFixture f;
  f.node->InsertInterval(&f.arena, 1, 10);
  f.node->InsertInterval(&f.arena, 3, 5);
  EXPECT_EQ(f.node->Next(2), 10);
  EXPECT_EQ(f.node->Next(4), 10);
  EXPECT_EQ(f.node->NumIntervals(), 1u);
}

TEST(CdsNodeTest, InsertDeletesInteriorChildBranches) {
  NodeFixture f;
  ASSERT_NE(f.node->EnsureChild(&f.arena, 5, &f.ids), kCdsNull);
  ASSERT_NE(f.node->EnsureChild(&f.arena, 9, &f.ids), kCdsNull);
  f.node->InsertInterval(&f.arena, 3, 7);  // 5 is interior: branch subsumed
  EXPECT_EQ(f.node->Child(5), kCdsNull);
  EXPECT_NE(f.node->Child(9), kCdsNull);
}

TEST(CdsNodeTest, EnsureChildRefusesCoveredValues) {
  NodeFixture f;
  f.node->InsertInterval(&f.arena, 3, 7);
  EXPECT_EQ(f.node->EnsureChild(&f.arena, 5, &f.ids), kCdsNull);
  EXPECT_NE(f.node->EnsureChild(&f.arena, 3, &f.ids), kCdsNull);  // endpoint
  EXPECT_NE(f.node->EnsureChild(&f.arena, 7, &f.ids), kCdsNull);
}

TEST(CdsNodeTest, HasNoFreeValueOnlyWhenFullyCovered) {
  NodeFixture f;
  EXPECT_FALSE(f.node->HasNoFreeValue());
  f.node->InsertInterval(&f.arena, kNegInf, 100);
  EXPECT_FALSE(f.node->HasNoFreeValue());
  f.node->InsertInterval(&f.arena, 50, kPosInf);
  EXPECT_TRUE(f.node->HasNoFreeValue());
}

TEST(CdsNodeTest, UnboundedIntervalsMergeAcrossInfinity) {
  NodeFixture f;
  f.node->InsertInterval(&f.arena, kNegInf, 5);
  f.node->InsertInterval(&f.arena, 3, kPosInf);
  EXPECT_EQ(f.node->Next(-1), kPosInf);
  EXPECT_TRUE(f.node->HasNoFreeValue());
}

TEST(CdsNodeTest, PointListSpillsPastInlineTierAndStaysSorted) {
  // More than kInlineEntries entries forces the pooled-buffer tier; the
  // pointList must keep behaving identically across the spill.
  NodeFixture f;
  for (Value v = 0; v < 40; v += 4) {
    f.node->InsertInterval(&f.arena, v, v + 2);  // entries 0,2,4,6,...
  }
  ASSERT_GT(f.node->num_entries(), CdsNode::kInlineEntries);
  for (uint32_t i = 1; i < f.node->num_entries(); ++i) {
    EXPECT_LT(f.node->entry(i - 1).v, f.node->entry(i).v);
  }
  EXPECT_EQ(f.node->Next(1), 2);
  EXPECT_EQ(f.node->Next(37), 38);
  EXPECT_EQ(f.node->NumIntervals(), 10u);
}

class CdsNodeFuzzTest : public ::testing::TestWithParam<int> {};

// Random interval inserts mixed with child placements. After every
// insert, the node's pointList must match the oracle in behaviour (Next),
// in shape (sorted entries, each left endpoint followed by its right
// endpoint, merged-interval count) and in what it kept: a child survives
// exactly when its label is not strictly inside a stored interval, and
// every subsumed child goes back to the arena's free list.
TEST_P(CdsNodeFuzzTest, StructureAndNextMatchOracleUnderRandomInserts) {
  Rng rng(GetParam() * 104729 + 17);
  uint64_t max_erased = 0;  // most entries one insert deleted
  // Rounds start from an empty node, so later rounds again build dense
  // pointLists for long inserts to sweep.
  for (int round = 0; round < 8; ++round) {
    NodeFixture f;
    IntervalOracle oracle;
    // Child label -> nodes in its subtree (1, or 2 with a grandchild).
    std::map<Value, uint64_t> children;
    uint64_t free_nodes = 0;  // subsumed nodes not yet reused
    // One AllocNode through `place`: served from the free list iff an
    // earlier insert returned subsumed children there.
    auto expect_alloc = [&](auto place) {
      const uint64_t allocated = f.arena.nodes_allocated();
      const uint64_t recycled = f.arena.nodes_recycled();
      const CdsIndex c = place();
      EXPECT_NE(c, kCdsNull);
      if (free_nodes > 0) {
        EXPECT_EQ(f.arena.nodes_recycled(), recycled + 1);
        --free_nodes;
      } else {
        EXPECT_EQ(f.arena.nodes_allocated(), allocated + 1);
      }
      return c;
    };
    for (int step = 0; step < 100; ++step) {
      if (rng.NextBounded(2) == 0) {
        const Value label = static_cast<Value>(rng.NextBounded(120)) - 5;
        if (oracle.Covered(label) || children.count(label) != 0) continue;
        const CdsIndex c = expect_alloc(
            [&] { return f.node->EnsureChild(&f.arena, label, &f.ids); });
        children[label] = 1;
        if (rng.NextBounded(2) == 0) {
          expect_alloc([&] {
            return f.arena.node(c)->EnsureChild(&f.arena, 0, &f.ids);
          });
          children[label] = 2;
        }
        continue;
      }
      // Mostly short gaps (unit gaps dominate real runs), some long
      // ones that merge many intervals at once.
      Value l = static_cast<Value>(rng.NextBounded(120)) - 5;
      Value r = l + 1 +
                static_cast<Value>(rng.NextBounded(8) == 0
                                       ? 20 + rng.NextBounded(40)
                                       : rng.NextBounded(4));
      if (rng.NextBounded(20) == 0) l = kNegInf;
      if (rng.NextBounded(20) == 0) r = kPosInf;
      const uint32_t before = f.node->num_entries();
      f.node->InsertInterval(&f.arena, l, r);
      oracle.Insert(l, r);
      // Lower bound on the entries deleted: at most two were added.
      if (before > f.node->num_entries()) {
        max_erased = std::max<uint64_t>(max_erased,
                                        before - f.node->num_entries());
      }

      const uint32_t n = f.node->num_entries();
      for (uint32_t i = 0; i < n; ++i) {
        if (i > 0) {
          ASSERT_LT(f.node->entry(i - 1).v, f.node->entry(i).v) << step;
        }
        if (f.node->entry(i).left) {
          ASSERT_LT(i + 1, n) << step;
          ASSERT_TRUE(f.node->entry(i + 1).right) << "i=" << i << " " << step;
        }
      }
      ASSERT_EQ(f.node->NumIntervals(), oracle.MergedCount()) << step;
      for (auto it = children.begin(); it != children.end();) {
        const bool alive = !oracle.Covered(it->first);
        ASSERT_EQ(f.node->Child(it->first) != kCdsNull, alive)
            << "label=" << it->first << " step=" << step;
        if (alive) {
          ++it;
        } else {
          free_nodes += it->second;
          it = children.erase(it);
        }
      }
      for (Value x = -6; x <= 120; ++x) {
        ASSERT_EQ(f.node->Next(x), oracle.Next(x))
            << "x=" << x << " step=" << step;
      }
    }
  }
  // The seed must have exercised a long erase run over a pooled buffer.
  EXPECT_GT(max_erased, 8u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdsNodeFuzzTest, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// CdsArena mechanics: recycling, epoch reset, warm reuse.

TEST(CdsArenaTest, SubsumedSubtreesAreRecycledWithinAnEpoch) {
  CdsArena arena;
  uint64_t ids = 1;
  CdsNode* root = arena.node(arena.AllocNode(kCdsNull, kWildcard, ids));
  EXPECT_EQ(arena.nodes_allocated(), 1u);
  EXPECT_EQ(arena.nodes_recycled(), 0u);
  ASSERT_NE(root->EnsureChild(&arena, 5, &ids), kCdsNull);
  ASSERT_NE(root->EnsureChild(&arena, 6, &ids), kCdsNull);
  EXPECT_EQ(arena.nodes_allocated(), 3u);
  root->InsertInterval(&arena, 3, 8);  // both branches die -> free list
  // The next allocations are served from the free list, not fresh memory.
  ASSERT_NE(root->EnsureChild(&arena, 10, &ids), kCdsNull);
  ASSERT_NE(root->EnsureChild(&arena, 11, &ids), kCdsNull);
  EXPECT_EQ(arena.nodes_allocated(), 3u);
  EXPECT_EQ(arena.nodes_recycled(), 2u);
}

TEST(CdsArenaTest, ResetReclaimsEverythingAndServesWarmMemory) {
  CdsArena arena;
  auto build = [&] {
    uint64_t ids = 1;
    CdsNode* root = arena.node(arena.AllocNode(kCdsNull, kWildcard, ids));
    for (Value v = 0; v < 32; ++v) {
      CdsIndex c = root->EnsureChild(&arena, v * 3, &ids);
      ASSERT_NE(c, kCdsNull);
      arena.node(c)->InsertInterval(&arena, 0, 10);
    }
  };
  build();
  const uint64_t cold_allocated = arena.nodes_allocated();
  const uint64_t peak = arena.peak_bytes();
  EXPECT_GT(cold_allocated, 0u);
  EXPECT_GT(peak, 0u);
  arena.Reset();
  EXPECT_EQ(arena.nodes_allocated(), 0u);
  EXPECT_EQ(arena.nodes_recycled(), 0u);
  build();
  // Identical demand on a warm arena: every node comes from memory the
  // arena already owned — zero fresh allocations, zero heap growth.
  EXPECT_EQ(arena.nodes_allocated(), 0u);
  EXPECT_EQ(arena.nodes_recycled(), cold_allocated);
  EXPECT_EQ(arena.peak_bytes(), peak);
}

// ---------------------------------------------------------------------------
// Cds free-tuple mechanics.

Constraint MakeC(std::vector<Value> pattern, Value lo, Value hi) {
  Constraint c;
  c.pattern = std::move(pattern);
  c.lo = lo;
  c.hi = hi;
  return c;
}

TEST(CdsTest, EmptyCdsReturnsFrontierAsFree) {
  CdsArena arena;
  Cds cds(3, Cds::Options{}, &arena);
  ASSERT_TRUE(cds.ComputeFreeTuple());
  EXPECT_EQ(cds.frontier(), (Tuple{-1, -1, -1}));
}

TEST(CdsTest, RootIntervalAdvancesFirstCoordinate) {
  CdsArena arena;
  Cds cds(2, Cds::Options{}, &arena);
  cds.InsertConstraint(MakeC({}, kNegInf, 4));
  ASSERT_TRUE(cds.ComputeFreeTuple());
  EXPECT_EQ(cds.frontier(), (Tuple{4, -1}));
}

TEST(CdsTest, WildcardConstraintAppliesToEveryPrefix) {
  // Figure 2 top-left: <*,*,(5,7)> — any tuple's third coordinate must
  // avoid (5,7).
  CdsArena arena;
  Cds cds(3, Cds::Options{}, &arena);
  cds.InsertConstraint(MakeC({kWildcard, kWildcard}, 5, 7));
  cds.SetFrontier({1, 2, 6});
  ASSERT_TRUE(cds.ComputeFreeTuple());
  EXPECT_EQ(cds.frontier(), (Tuple{1, 2, 7}));
}

TEST(CdsTest, PatternConstraintAppliesOnlyWhenPatternMatches) {
  // Figure 2 top-right: <*,*,7,*,(4,9)>.
  CdsArena arena;
  Cds cds(5, Cds::Options{}, &arena);
  cds.InsertConstraint(MakeC({kWildcard, kWildcard, 7, kWildcard}, 4, 9));
  cds.SetFrontier({0, 0, 7, 0, 5});
  ASSERT_TRUE(cds.ComputeFreeTuple());
  EXPECT_EQ(cds.frontier(), (Tuple{0, 0, 7, 0, 9}));
  // A non-matching third coordinate is unaffected.
  cds.SetFrontier({0, 0, 8, 0, 5});
  ASSERT_TRUE(cds.ComputeFreeTuple());
  EXPECT_EQ(cds.frontier(), (Tuple{0, 0, 8, 0, 5}));
}

TEST(CdsTest, ExhaustedCoordinateBacktracks) {
  CdsArena arena;
  Cds cds(2, Cds::Options{}, &arena);
  // Second coordinate fully dead under first == 3.
  cds.InsertConstraint(MakeC({3}, kNegInf, kPosInf));
  cds.SetFrontier({3, -1});
  ASSERT_TRUE(cds.ComputeFreeTuple());
  // Truncation kills first-coordinate value 3 entirely.
  EXPECT_EQ(cds.frontier()[0], 4);
}

TEST(CdsTest, FullSpaceCoverageReturnsFalse) {
  CdsArena arena;
  Cds cds(2, Cds::Options{}, &arena);
  cds.InsertConstraint(MakeC({}, kNegInf, kPosInf));
  EXPECT_FALSE(cds.ComputeFreeTuple());
}

TEST(CdsTest, WildcardDeathExhaustsWholeSpace) {
  // <*,(-inf,+inf)>: no second coordinate anywhere -> no tuples at all.
  CdsArena arena;
  Cds cds(2, Cds::Options{}, &arena);
  cds.InsertConstraint(MakeC({kWildcard}, kNegInf, kPosInf));
  EXPECT_FALSE(cds.ComputeFreeTuple());
}

TEST(CdsTest, MovingFrontierSkipsReportedOutputs) {
  CdsArena arena;
  Cds cds(2, Cds::Options{}, &arena);
  ASSERT_TRUE(cds.ComputeFreeTuple());
  const Tuple t = cds.frontier();
  Tuple next = t;
  ++next.back();
  cds.SetFrontier(next);  // Idea 2: no unit-gap insert needed
  ASSERT_TRUE(cds.ComputeFreeTuple());
  EXPECT_EQ(cds.frontier(), next);
}

TEST(CdsTest, EnumeratesExactlyTheFreeLattice) {
  // 1-D: constraints rule out (-inf,2), (4,7), (9,+inf): free = {2,3,4,7,8,9}.
  CdsArena arena;
  Cds cds(1, Cds::Options{}, &arena);
  cds.InsertConstraint(MakeC({}, kNegInf, 2));
  cds.InsertConstraint(MakeC({}, 4, 7));
  cds.InsertConstraint(MakeC({}, 9, kPosInf));
  std::vector<Value> seen;
  while (cds.ComputeFreeTuple()) {
    seen.push_back(cds.frontier()[0]);
    Tuple next = cds.frontier();
    ++next[0];
    cds.SetFrontier(next);
  }
  EXPECT_EQ(seen, (std::vector<Value>{2, 3, 4, 7, 8, 9}));
}

TEST(CdsTest, SubsumedConstraintIsRejected) {
  CdsArena arena;
  Cds cds(2, Cds::Options{}, &arena);
  cds.InsertConstraint(MakeC({}, 2, 9));
  // Pattern value 5 is interior to (2,9): the branch cannot exist.
  EXPECT_FALSE(cds.InsertConstraint(MakeC({5}, 0, 3)));
  EXPECT_EQ(cds.constraints_inserted(), 1u);
}

TEST(CdsTest, ResetRestartsOnWarmArenaWithoutAllocating) {
  CdsArena arena;
  Cds cds(1, Cds::Options{}, &arena);
  auto enumerate = [&] {
    cds.InsertConstraint(MakeC({}, kNegInf, 2));
    cds.InsertConstraint(MakeC({}, 4, 7));
    cds.InsertConstraint(MakeC({}, 9, kPosInf));
    std::vector<Value> seen;
    while (cds.ComputeFreeTuple()) {
      seen.push_back(cds.frontier()[0]);
      Tuple next = cds.frontier();
      ++next[0];
      cds.SetFrontier(next);
    }
    return seen;
  };
  const std::vector<Value> cold = enumerate();
  const uint64_t cold_allocated = arena.nodes_allocated();
  const uint64_t peak = arena.peak_bytes();
  EXPECT_GT(cold_allocated, 0u);
  cds.Reset();
  EXPECT_EQ(cds.constraints_inserted(), 0u);
  EXPECT_EQ(enumerate(), cold);
  // Same run on warm memory: nothing fresh, footprint unchanged.
  EXPECT_EQ(arena.nodes_allocated(), 0u);
  EXPECT_GT(arena.nodes_recycled(), 0u);
  EXPECT_EQ(arena.peak_bytes(), peak);
}

TEST(CdsTest, SharedArenaSequentialCdsInstancesAreIndependent) {
  CdsArena arena;
  std::vector<Value> first;
  {
    Cds cds(1, Cds::Options{}, &arena);
    cds.InsertConstraint(MakeC({}, kNegInf, 3));
    ASSERT_TRUE(cds.ComputeFreeTuple());
    first.push_back(cds.frontier()[0]);
  }
  // A new Cds on the same arena starts from a clean tree: the previous
  // constraint must be gone.
  Cds cds(1, Cds::Options{}, &arena);
  ASSERT_TRUE(cds.ComputeFreeTuple());
  EXPECT_EQ(cds.frontier()[0], -1);
  EXPECT_EQ(first[0], 3);
}

// Resumed searches (resume_depth): a free tuple leaves every depth
// verified, and the next search starts at the first depth that may have
// changed. These pin both directions: a change that reaches a shallow
// depth must restart the search there, and a change elsewhere must not.

TEST(CdsResumeTest, IntervalOverTheFrontierRestartsItsDepth) {
  CdsArena arena;
  Cds cds(3, Cds::Options{}, &arena);
  // A box far from the frontier builds the node the depth-1 pattern
  // below walks to, so that insert only adds an interval.
  cds.InsertConstraint(MakeC({2}, 20, 30));
  cds.SetFrontier({2, 3, 4});
  ASSERT_TRUE(cds.ComputeFreeTuple());
  ASSERT_EQ(cds.frontier(), (Tuple{2, 3, 4}));
  EXPECT_EQ(cds.resume_depth(), 2);
  // Depth 1's value is covered now, under the frontier's own prefix.
  cds.InsertConstraint(MakeC({2}, 2, 9));
  EXPECT_EQ(cds.resume_depth(), 1);
  ASSERT_TRUE(cds.ComputeFreeTuple());
  EXPECT_EQ(cds.frontier(), (Tuple{2, 9, -1}));
  // So is depth 0's: a search resumed below depth 0 would report
  // (2, 9, -1) again.
  cds.InsertConstraint(MakeC({}, 1, 6));
  EXPECT_EQ(cds.resume_depth(), 0);
  ASSERT_TRUE(cds.ComputeFreeTuple());
  EXPECT_EQ(cds.frontier(), (Tuple{6, -1, -1}));
}

TEST(CdsResumeTest, OffPrefixConstraintLeavesTheFreeTupleAlone) {
  CdsArena arena;
  Cds cds(3, Cds::Options{}, &arena);
  // Far boxes build the nodes on the frontier path that the patterns
  // below walk through.
  cds.InsertConstraint(MakeC({2}, 20, 30));
  cds.InsertConstraint(MakeC({kWildcard}, 20, 30));
  cds.SetFrontier({2, 3, 4});
  ASSERT_TRUE(cds.ComputeFreeTuple());
  ASSERT_EQ(cds.frontier(), (Tuple{2, 3, 4}));
  // Patterns that bind a value off the frontier prefix constrain other
  // prefixes only: the search stays at the last depth and the free tuple
  // does not move.
  EXPECT_TRUE(cds.InsertConstraint(MakeC({7}, kNegInf, kPosInf)));
  EXPECT_TRUE(cds.InsertConstraint(MakeC({2, 8}, 0, 10)));
  EXPECT_TRUE(cds.InsertConstraint(MakeC({kWildcard, 5}, 0, 10)));
  EXPECT_EQ(cds.resume_depth(), 2);
  ASSERT_TRUE(cds.ComputeFreeTuple());
  EXPECT_EQ(cds.frontier(), (Tuple{2, 3, 4}));
  // The prefix's own box does move it. The node it creates at depth 2
  // holds no interval before the box's own, so depth 1 stays verified.
  EXPECT_TRUE(cds.InsertConstraint(MakeC({2, 3}, 0, 10)));
  EXPECT_EQ(cds.resume_depth(), 2);
  ASSERT_TRUE(cds.ComputeFreeTuple());
  EXPECT_EQ(cds.frontier(), (Tuple{2, 3, 10}));
}

TEST(CdsResumeTest, ResumeRetainingTreeRestartsFromTheRoot) {
  CdsArena arena;
  Cds cds(3, Cds::Options{}, &arena);
  cds.InsertConstraint(MakeC({kWildcard}, 5, 9));
  cds.SetFrontier({1, 6, 2});
  ASSERT_TRUE(cds.ComputeFreeTuple());
  ASSERT_EQ(cds.frontier(), (Tuple{1, 9, -1}));
  EXPECT_EQ(cds.resume_depth(), 2);
  // The next execution re-seeds the same frontier, yet its search must
  // start at the root: the Idea 6 rotations it re-arms on the way down
  // are not the previous execution's.
  cds.ResumeRetainingTree();
  EXPECT_EQ(cds.resume_depth(), 0);
  cds.SetFrontier({1, 9, -1});
  EXPECT_EQ(cds.resume_depth(), 0);
  ASSERT_TRUE(cds.ComputeFreeTuple());
  EXPECT_EQ(cds.frontier(), (Tuple{1, 9, -1}));
  // SetFrontier resumes at its first changed coordinate, Reset at the
  // root.
  cds.SetFrontier({1, 9, 0});
  EXPECT_EQ(cds.resume_depth(), 2);
  ASSERT_TRUE(cds.ComputeFreeTuple());
  cds.SetFrontier({1, 10, -1});
  EXPECT_EQ(cds.resume_depth(), 1);
  ASSERT_TRUE(cds.ComputeFreeTuple());
  EXPECT_EQ(cds.frontier(), (Tuple{1, 10, -1}));
  cds.Reset();
  EXPECT_EQ(cds.resume_depth(), 0);
}

// The run's AbortPoll ends a free-tuple search in the §4.8 poset regime
// (two incomparable patterns constrain the last depth): a requested stop
// reads as kCancelled, and a budget latched by the CDS arena's own
// growth as kBudgetExceeded. An idle poll lets the same search finish.
TEST(CdsTest, AbortPollEndsAPosetRegimeSearch) {
  auto load_poset = [](Cds* cds) {
    cds->InsertConstraint(MakeC({1, kWildcard}, 3, 6));
    cds->InsertConstraint(MakeC({kWildcard, 2}, 5, 12));
    cds->SetFrontier({1, 2, 4});
  };
  {
    CdsArena arena;
    Cds cds(3, Cds::Options{}, &arena);
    load_poset(&cds);
    const ExecOptions ungoverned;
    AbortPoll idle(ungoverned);
    ASSERT_TRUE(cds.ComputeFreeTuple(&idle));
    EXPECT_EQ(cds.frontier(), (Tuple{1, 2, 12}));
    EXPECT_TRUE(idle.status().ok());
  }
  {
    CdsArena arena;
    Cds cds(3, Cds::Options{}, &arena);
    load_poset(&cds);
    StopToken stop;
    stop.RequestStop();
    ExecOptions stopped;
    stopped.stop = &stop;
    AbortPoll poll(stopped);
    EXPECT_FALSE(cds.ComputeFreeTuple(&poll));
    EXPECT_EQ(poll.status().code(), StatusCode::kCancelled);
  }
  {
    MemoryBudget budget(64);  // less than one slab
    CdsArena arena;
    arena.SetBudget(&budget);
    Cds cds(3, Cds::Options{}, &arena);
    load_poset(&cds);
    ASSERT_TRUE(budget.exceeded());
    ExecOptions governed;
    governed.budget = &budget;
    AbortPoll poll(governed);
    EXPECT_FALSE(cds.ComputeFreeTuple(&poll));
    EXPECT_EQ(poll.status().code(), StatusCode::kBudgetExceeded);
    arena.SetBudget(nullptr);
  }
}

}  // namespace
}  // namespace wcoj
