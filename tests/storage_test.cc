#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "storage/catalog.h"
#include "storage/level_keys.h"
#include "storage/relation.h"
#include "storage/trie.h"
#include "util/rng.h"

namespace wcoj {
namespace {

TEST(RelationTest, BuildSortsAndDedups) {
  Relation r(2);
  r.Add({3, 1});
  r.Add({1, 2});
  r.Add({3, 1});
  r.Add({1, 1});
  r.Build();
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r.RowTuple(0), (Tuple{1, 1}));
  EXPECT_EQ(r.RowTuple(1), (Tuple{1, 2}));
  EXPECT_EQ(r.RowTuple(2), (Tuple{3, 1}));
}

// Build keeps rows staged strictly increasing as they are and sorts
// anything else; these pin both sides of that check.
std::vector<Tuple> BuiltRows(const std::vector<Tuple>& staged) {
  Relation r(static_cast<int>(staged[0].size()));
  for (const Tuple& t : staged) r.Add(t);
  r.Build();
  std::vector<Tuple> rows;
  for (size_t i = 0; i < r.size(); ++i) rows.push_back(r.RowTuple(i));
  return rows;
}

TEST(RelationTest, BuildKeepsSortedDistinctRows) {
  const std::vector<Tuple> sorted = {{0, 5}, {1, 2}, {1, 3}, {4, 0}, {4, 9}};
  EXPECT_EQ(BuiltRows(sorted), sorted);
}

TEST(RelationTest, BuildDedupsSortedRowsWithAnAdjacentDuplicate) {
  EXPECT_EQ(BuiltRows({{0, 5}, {1, 2}, {1, 2}, {4, 0}}),
            (std::vector<Tuple>{{0, 5}, {1, 2}, {4, 0}}));
}

TEST(RelationTest, BuildSortsAnInversionInTheLastRow) {
  EXPECT_EQ(BuiltRows({{0, 5}, {1, 2}, {4, 0}, {1, 1}}),
            (std::vector<Tuple>{{0, 5}, {1, 1}, {1, 2}, {4, 0}}));
}

TEST(RelationTest, AddRowsAndLowerBound) {
  const Value rows[] = {1, 2, 1, 5, 4, 0};
  Relation r(2);
  r.AddRows(rows, 3);
  r.Build();
  ASSERT_EQ(r.size(), 3u);
  const Value probes[][2] = {{0, 0}, {1, 2}, {1, 3}, {4, 0}, {9, 9}};
  const size_t want[] = {0, 0, 1, 2, 3};
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(r.LowerBound(probes[i]), want[i]) << "probe " << i;
  }
}

TEST(RelationTest, ContainsFindsExactTuples) {
  Relation r = Relation::FromTuples(2, {{1, 2}, {1, 5}, {4, 0}});
  EXPECT_TRUE(r.Contains({1, 2}));
  EXPECT_TRUE(r.Contains({4, 0}));
  EXPECT_FALSE(r.Contains({1, 3}));
  EXPECT_FALSE(r.Contains({0, 0}));
  EXPECT_FALSE(r.Contains({5, 0}));
}

TEST(RelationTest, PermutedReordersColumns) {
  Relation r = Relation::FromTuples(2, {{1, 9}, {2, 3}});
  Relation p = r.Permuted({1, 0});
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p.RowTuple(0), (Tuple{3, 2}));
  EXPECT_EQ(p.RowTuple(1), (Tuple{9, 1}));
}

TEST(RelationTest, EmptyRelation) {
  Relation r(3);
  r.Build();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_FALSE(r.Contains({1, 2, 3}));
}

TEST(TrieIteratorTest, WalksPaperExampleIndex) {
  // Relation R from Figure 1: {A2,A4,A5} index.
  Relation r = Relation::FromTuples(
      3, {{5, 1, 4}, {5, 1, 7}, {5, 1, 12}, {7, 4, 6}, {7, 9, 8},
          {7, 9, 13}, {10, 4, 1}});
  TrieIndex index(r);
  TrieIterator it(&index);
  it.Open();  // depth 0
  ASSERT_FALSE(it.AtEnd());
  EXPECT_EQ(it.Key(), 5);
  it.Next();
  EXPECT_EQ(it.Key(), 7);
  it.Open();  // depth 1 under 7
  EXPECT_EQ(it.Key(), 4);
  it.Next();
  EXPECT_EQ(it.Key(), 9);
  it.Open();  // depth 2 under (7,9)
  EXPECT_EQ(it.Key(), 8);
  it.Next();
  EXPECT_EQ(it.Key(), 13);
  it.Next();
  EXPECT_TRUE(it.AtEnd());
  it.Up();
  it.Up();  // back to depth 0, still at 7
  EXPECT_EQ(it.Key(), 7);
  it.Next();
  EXPECT_EQ(it.Key(), 10);
  it.Next();
  EXPECT_TRUE(it.AtEnd());
}

TEST(TrieIteratorTest, SeekSkipsForward) {
  Relation r = Relation::FromTuples(1, {{1}, {4}, {9}, {16}, {25}});
  TrieIndex index(r);
  TrieIterator it(&index);
  it.Open();
  it.Seek(5);
  EXPECT_EQ(it.Key(), 9);
  it.Seek(9);  // seek to current key is a no-op
  EXPECT_EQ(it.Key(), 9);
  it.Seek(26);
  EXPECT_TRUE(it.AtEnd());
}

TEST(TrieIndexTest, SeekGapFindsMembership) {
  Relation r = Relation::FromTuples(2, {{1, 5}, {1, 9}, {3, 2}});
  TrieIndex index(r);
  auto probe = index.SeekGap({1, 9});
  EXPECT_TRUE(probe.found);
  probe = index.SeekGap({3, 2});
  EXPECT_TRUE(probe.found);
}

TEST(TrieIndexTest, SeekGapReportsMaximalGapAtFirstAttr) {
  Relation r = Relation::FromTuples(2, {{1, 5}, {3, 2}, {8, 0}});
  TrieIndex index(r);
  auto probe = index.SeekGap({5, 7});
  EXPECT_FALSE(probe.found);
  EXPECT_EQ(probe.fail_pos, 0);
  EXPECT_EQ(probe.glb, 3);
  EXPECT_EQ(probe.lub, 8);
}

TEST(TrieIndexTest, SeekGapReportsGapUnderPrefix) {
  // Mirrors the §4.2 example: t2=6 falls between A2-values 5 and 7; with
  // the prefix present, gaps come from the deeper attribute.
  Relation r = Relation::FromTuples(
      3, {{5, 1, 4}, {5, 1, 7}, {5, 1, 12}, {7, 4, 6}, {7, 9, 8},
          {7, 9, 13}, {10, 4, 1}});
  TrieIndex index(r);
  auto probe = index.SeekGap({6, 3, 7});
  EXPECT_FALSE(probe.found);
  EXPECT_EQ(probe.fail_pos, 0);
  EXPECT_EQ(probe.glb, 5);
  EXPECT_EQ(probe.lub, 7);

  probe = index.SeekGap({7, 5, 8});  // the paper's second free tuple
  EXPECT_FALSE(probe.found);
  EXPECT_EQ(probe.fail_pos, 1);
  EXPECT_EQ(probe.glb, 4);
  EXPECT_EQ(probe.lub, 9);

  probe = index.SeekGap({5, 1, 8});
  EXPECT_FALSE(probe.found);
  EXPECT_EQ(probe.fail_pos, 2);
  EXPECT_EQ(probe.glb, 7);
  EXPECT_EQ(probe.lub, 12);

  probe = index.SeekGap({5, 1, 1});
  EXPECT_EQ(probe.fail_pos, 2);
  EXPECT_EQ(probe.glb, kNegInf);
  EXPECT_EQ(probe.lub, 4);

  probe = index.SeekGap({5, 1, 100});
  EXPECT_EQ(probe.fail_pos, 2);
  EXPECT_EQ(probe.glb, 12);
  EXPECT_EQ(probe.lub, kPosInf);
}

TEST(TrieIndexTest, SeekGapOnEmptyRelationCoversEverything) {
  Relation r(2);
  r.Build();
  TrieIndex index(r);
  auto probe = index.SeekGap({4, 2});
  EXPECT_FALSE(probe.found);
  EXPECT_EQ(probe.fail_pos, 0);
  EXPECT_EQ(probe.glb, kNegInf);
  EXPECT_EQ(probe.lub, kPosInf);
}

TEST(TrieIndexTest, PermutationBuildsIndexInGivenOrder) {
  Relation r = Relation::FromTuples(2, {{1, 9}, {2, 3}, {2, 7}});
  TrieIndex index(r, {1, 0});  // indexed on (col1, col0)
  TrieIterator it(&index);
  it.Open();
  EXPECT_EQ(it.Key(), 3);
  it.Next();
  EXPECT_EQ(it.Key(), 7);
  it.Next();
  EXPECT_EQ(it.Key(), 9);
}

// Property: trie iteration in order reproduces the sorted relation, and
// Seek agrees with a linear scan, across random relations.
class TrieRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(TrieRandomTest, SeekMatchesLinearScan) {
  Rng rng(GetParam());
  Relation r(2);
  const int n = 50 + GetParam() * 13;
  for (int i = 0; i < n; ++i) {
    r.Add({static_cast<Value>(rng.NextBounded(20)),
           static_cast<Value>(rng.NextBounded(20))});
  }
  r.Build();
  TrieIndex index(r);
  // At depth 0, Seek(v) must land on the least first-column value >= v.
  for (Value v = -1; v <= 21; ++v) {
    TrieIterator it(&index);
    it.Open();
    it.Seek(v);
    Value expected = kPosInf;
    for (size_t row = 0; row < r.size(); ++row) {
      if (r.At(row, 0) >= v) {
        expected = r.At(row, 0);
        break;
      }
    }
    if (expected == kPosInf) {
      EXPECT_TRUE(it.AtEnd());
    } else {
      ASSERT_FALSE(it.AtEnd());
      EXPECT_EQ(it.Key(), expected);
    }
  }
}

TEST_P(TrieRandomTest, SeekGapNeverContainsDataPoints) {
  Rng rng(GetParam() * 7919 + 1);
  Relation r(2);
  for (int i = 0; i < 80; ++i) {
    r.Add({static_cast<Value>(rng.NextBounded(15)),
           static_cast<Value>(rng.NextBounded(15))});
  }
  r.Build();
  TrieIndex index(r);
  for (int i = 0; i < 200; ++i) {
    Tuple t{static_cast<Value>(rng.NextBounded(17)) - 1,
            static_cast<Value>(rng.NextBounded(17)) - 1};
    auto probe = index.SeekGap(t);
    if (probe.found) {
      EXPECT_TRUE(r.Contains(t));
      continue;
    }
    EXPECT_FALSE(r.Contains(t));
    // No data tuple matching the prefix has its fail_pos coordinate
    // strictly inside (glb, lub).
    for (size_t row = 0; row < r.size(); ++row) {
      bool prefix_match = true;
      for (int c = 0; c < probe.fail_pos; ++c) {
        prefix_match &= r.At(row, c) == t[c];
      }
      if (!prefix_match) continue;
      const Value v = r.At(row, probe.fail_pos);
      EXPECT_FALSE(probe.glb < v && v < probe.lub)
          << "data point inside reported gap";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieRandomTest, ::testing::Range(0, 8));

// --- CSR-layout cross-check against a naive row-major reference ---
//
// The reference works directly on the sorted permuted Relation with
// plain row-range scans (the pre-CSR behavior); the CSR TrieIterator
// and SeekGap must agree with it on every relation, including empty
// ones, arity 1, duplicates-heavy and sparse key distributions.

TrieIndex::GapProbe NaiveSeekGap(const Relation& sorted, const Tuple& t) {
  TrieIndex::GapProbe probe;
  size_t lo = 0, hi = sorted.size();
  for (int d = 0; d < sorted.arity(); ++d) {
    size_t rlo = lo;
    while (rlo < hi && sorted.At(rlo, d) < t[d]) ++rlo;
    size_t rhi = rlo;
    while (rhi < hi && sorted.At(rhi, d) == t[d]) ++rhi;
    if (rlo == rhi) {
      probe.found = false;
      probe.fail_pos = d;
      probe.glb = rlo > lo ? sorted.At(rlo - 1, d) : kNegInf;
      probe.lub = rlo < hi ? sorted.At(rlo, d) : kPosInf;
      return probe;
    }
    lo = rlo;
    hi = rhi;
  }
  probe.found = true;
  probe.fail_pos = sorted.arity();
  return probe;
}

// Depth-first walk over the full trie via the iterator contract only.
void EnumerateTrie(TrieIterator* it, int arity, Tuple* prefix,
                   std::vector<Tuple>* out) {
  it->Open();
  while (!it->AtEnd()) {
    prefix->push_back(it->Key());
    if (static_cast<int>(prefix->size()) == arity) {
      out->push_back(*prefix);
    } else {
      EnumerateTrie(it, arity, prefix, out);
    }
    prefix->pop_back();
    it->Next();
  }
  it->Up();
}

// A key of domain class `klass`: tiny (long shared-prefix runs), medium
// (mostly singleton nodes, spans within 16 bits), wide (spans beyond 16
// bits) and int64-extreme (the PR 5 overflow class; kept one away from
// the ends so probes may step past a key).
Value DrawKey(int klass, Rng* rng) {
  switch (klass) {
    case 0:
      return static_cast<Value>(rng->NextBounded(4));
    case 1:
      return static_cast<Value>(rng->NextBounded(1000));
    case 2:
      return static_cast<Value>(rng->NextBounded(Value{1} << 40));
    default:
      return rng->NextBounded(2) == 0
                 ? kNegInf + 2 + static_cast<Value>(rng->NextBounded(1000))
                 : kPosInf - 2 - static_cast<Value>(rng->NextBounded(1000));
  }
}

TEST(TrieCsrPropertyTest, MatchesNaiveReferenceOnRandomRelations) {
  // Levels of >= kAutoMinKeys keys seen per tier: raw, packed16.
  int tier_levels[2] = {0, 0};
  for (int trial = 0; trial < 100; ++trial) {
    Rng rng(1000 + trial);
    const int arity = 1 + trial % 4;
    const int klass = trial / 4 % 4;
    // Up to 400 rows, so medium-domain levels reach the packed16 tier's
    // minimum size; a few empty relations are mixed in.
    const int n = trial % 10 == 9 ? 0 : 1 + static_cast<int>(
                                             rng.NextBounded(400));
    Relation base(arity);
    for (int i = 0; i < n; ++i) {
      Tuple t(arity);
      for (int c = 0; c < arity; ++c) t[c] = DrawKey(klass, &rng);
      base.Add(t);
    }
    base.Build();
    // Random column permutation; the reference is the permuted copy.
    std::vector<int> perm(arity);
    for (int i = 0; i < arity; ++i) perm[i] = i;
    for (int i = arity - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.NextBounded(i + 1)]);
    }
    const Relation sorted = base.Permuted(perm);
    // Whatever tier each level lands on, the trie must reproduce the
    // naive reference identically: the layout is an invisible storage
    // detail.
    TrieIndex index(base, perm);
    ASSERT_EQ(index.size(), sorted.size()) << "trial " << trial;
    for (int d = 0; d < arity; ++d) {
      if (index.LevelSize(d) >= LevelKeys::kAutoMinKeys) {
        ++tier_levels[index.LevelTier(d) == KeyTier::kPacked16];
      }
    }
    Rng probe_rng(9000 + trial);
    // A probe value near the data: a key of the class, stepped by -1, 0
    // or +1.
    auto probe_value = [&] {
      return DrawKey(klass, &probe_rng) +
             static_cast<Value>(probe_rng.NextBounded(3)) - 1;
    };

    // (1) A full iterator walk reproduces the sorted relation exactly.
    std::vector<Tuple> walked;
    Tuple prefix;
    TrieIterator it(&index);
    EnumerateTrie(&it, arity, &prefix, &walked);
    ASSERT_EQ(walked.size(), sorted.size()) << "trial " << trial;
    for (size_t r = 0; r < sorted.size(); ++r) {
      EXPECT_EQ(walked[r], sorted.RowTuple(r)) << "trial " << trial;
    }

    // (2) SeekGap agrees with the naive row-scan reference on random
    // probes (mix of present rows, arbitrary tuples and the domain
    // ends).
    for (int probe_i = 0; probe_i < 50; ++probe_i) {
      Tuple t(arity);
      if (sorted.size() > 0 && probe_i % 3 == 0) {
        t = sorted.RowTuple(probe_rng.NextBounded(sorted.size()));
        if (probe_i % 6 == 0) {
          t[probe_rng.NextBounded(arity)] += 1;  // perturb near real data
        }
      } else {
        for (int c = 0; c < arity; ++c) {
          t[c] = probe_i % 10 == 1   ? kNegInf
                 : probe_i % 10 == 2 ? kPosInf
                                     : probe_value();
        }
      }
      const auto expect = NaiveSeekGap(sorted, t);
      const auto got = index.SeekGap(t);
      EXPECT_EQ(got.found, expect.found) << "trial " << trial;
      EXPECT_EQ(got.fail_pos, expect.fail_pos) << "trial " << trial;
      EXPECT_EQ(got.glb, expect.glb) << "trial " << trial;
      EXPECT_EQ(got.lub, expect.lub) << "trial " << trial;
    }

    // (3) Seek at a random depth matches a linear scan over the rows
    // sharing the prefix of a randomly chosen existing row.
    for (int probe_i = 0; probe_i < 20 && sorted.size() > 0; ++probe_i) {
      const size_t row = probe_rng.NextBounded(sorted.size());
      const int depth = static_cast<int>(probe_rng.NextBounded(arity));
      const Value v = probe_value();
      TrieIterator seek_it(&index);
      seek_it.Open();
      for (int d = 0; d < depth; ++d) {
        seek_it.Seek(sorted.At(row, d));
        ASSERT_FALSE(seek_it.AtEnd());
        ASSERT_EQ(seek_it.Key(), sorted.At(row, d));
        seek_it.Open();
      }
      seek_it.Seek(v);
      // Reference: the prefix group's rows, scanned linearly.
      Value expected = kPosInf;
      for (size_t r = 0; r < sorted.size(); ++r) {
        bool same_group = true;
        for (int d = 0; d < depth; ++d) {
          same_group &= sorted.At(r, d) == sorted.At(row, d);
        }
        if (same_group && sorted.At(r, depth) >= v) {
          expected = std::min(expected, sorted.At(r, depth));
        }
      }
      if (expected == kPosInf) {
        EXPECT_TRUE(seek_it.AtEnd()) << "trial " << trial;
      } else {
        ASSERT_FALSE(seek_it.AtEnd()) << "trial " << trial;
        EXPECT_EQ(seek_it.Key(), expected) << "trial " << trial;
      }
    }

    // (4) Column metadata matches a scan of the relation.
    for (int c = 0; c < arity && sorted.size() > 0; ++c) {
      Value lo = kPosInf, hi = kNegInf;
      for (size_t r = 0; r < sorted.size(); ++r) {
        lo = std::min(lo, sorted.At(r, c));
        hi = std::max(hi, sorted.At(r, c));
      }
      EXPECT_EQ(index.ColMin(c), lo) << "trial " << trial;
      EXPECT_EQ(index.ColMax(c), hi) << "trial " << trial;
    }
  }
  // Both tiers must actually have been exercised.
  EXPECT_GT(tier_levels[0], 0);
  EXPECT_GT(tier_levels[1], 0);
}

// --- Key-tier selection: heuristics and degenerate-shape guards ---

TEST(KeyTierTest, AutoCompressesDenseLevelsAndKeepsSmallOnesRaw) {
  // A dense two-column relation: level-1 keys are plentiful and narrow,
  // so the level is packed16. Level 0 has < kAutoMinKeys distinct keys
  // and stays raw — compression below the threshold cannot pay for its
  // decode cost.
  Relation r(2);
  for (Value a = 0; a < 16; ++a) {
    for (Value b = 0; b < 50; ++b) r.Add({a, b * 3});
  }
  r.Build();
  TrieIndex index(r);
  EXPECT_EQ(index.LevelTier(0), KeyTier::kRaw);
  EXPECT_EQ(index.LevelTier(1), KeyTier::kPacked16);
  EXPECT_LT(index.LevelKeyBytes(1), 16u * 50u * sizeof(Value));
}

// A level's tier follows from its keys alone: a 64-key level of a
// binary relation (the second column, under one first-column key).
KeyTier SecondLevelTier(Value span) {
  Relation r(2);
  for (Value i = 0; i < 64; ++i) {
    r.Add({0, i == 63 ? span : i});
  }
  r.Build();
  const TrieIndex index(r);
  EXPECT_EQ(index.LevelSize(1), 64u);
  return index.LevelTier(1);
}

TEST(KeyTierTest, SixteenBitSpansPackAndWiderSpansStayRaw) {
  // A span within 8 bits packs into the same 16-bit lanes.
  EXPECT_EQ(SecondLevelTier(255), KeyTier::kPacked16);
  EXPECT_EQ(SecondLevelTier(UINT16_MAX), KeyTier::kPacked16);
  // Spans in (2^16 - 1, 2^32) are raw.
  EXPECT_EQ(SecondLevelTier(Value{UINT16_MAX} + 1), KeyTier::kRaw);
  EXPECT_EQ(SecondLevelTier(Value{UINT32_MAX}), KeyTier::kRaw);
  // Below kAutoMinKeys keys a level stays raw whatever its span.
  LevelKeys small;
  std::vector<Value> keys(LevelKeys::kAutoMinKeys - 1);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<Value>(i);
  small.Build(keys, /*compressible=*/true);
  EXPECT_EQ(small.tier(), KeyTier::kRaw);
}

TEST(KeyTierTest, DegenerateShapesNeverCompress) {
  // Empty, arity-1, and single-key-per-level relations stay raw, even
  // where the keys alone would pack.
  Relation empty(2);
  empty.Build();
  Relation unary(1);
  for (Value v = 0; v < 300; ++v) unary.Add({v});
  unary.Build();
  Relation single = Relation::FromTuples(2, {{7, 7}});
  TrieIndex e(empty);
  EXPECT_EQ(e.LevelTier(0), KeyTier::kRaw);
  EXPECT_EQ(e.LevelTier(1), KeyTier::kRaw);
  TrieIndex u(unary);
  EXPECT_EQ(u.LevelTier(0), KeyTier::kRaw);
  TrieIndex s(single);
  EXPECT_EQ(s.LevelTier(0), KeyTier::kRaw);
  EXPECT_EQ(s.LevelTier(1), KeyTier::kRaw);
}

TEST(KeyTierTest, Int64ExtremeDomainsStayRaw) {
  // Spans beyond 16 bits — including the full-int64 spans that overflow
  // naive subtraction — are ineligible for packing.
  Relation r(2);
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    r.Add({static_cast<Value>(i % 8),
           rng.NextBounded(2) == 0
               ? kNegInf + 1 + static_cast<Value>(rng.NextBounded(500))
               : kPosInf - 1 - static_cast<Value>(rng.NextBounded(500))});
  }
  r.Build();
  // Two dense 64-key clusters 2^40 apart: every 64-key block is narrow,
  // but the level as a whole spans more than 16 bits.
  Relation clusters(2);
  for (Value b = 0; b < 64; ++b) {
    clusters.Add({0, b});
    clusters.Add({0, (Value{1} << 40) + b});
  }
  clusters.Build();
  TrieIndex index(r);
  ASSERT_GE(index.Keys(1).size(), LevelKeys::kAutoMinKeys);
  EXPECT_EQ(index.LevelTier(1), KeyTier::kRaw);
  TrieIndex clustered(clusters);
  ASSERT_GE(clustered.Keys(1).size(), LevelKeys::kAutoMinKeys);
  EXPECT_EQ(clustered.LevelTier(1), KeyTier::kRaw);
}

TEST(KeyTierTest, SplitPointsIdenticalAcrossTiers) {
  // The morsel partitioner consumes SplitPoints; the key tier must not
  // perturb it. Scaling every value by 2^33 preserves order and turns
  // the packed16 levels raw, so the split points scale with it.
  Rng rng(121);
  Relation r(2);
  Relation scaled(2);
  const Value kScale = Value{1} << 33;
  for (int i = 0; i < 400; ++i) {
    const Value a = static_cast<Value>(rng.NextBounded(90));
    const Value b = static_cast<Value>(rng.NextBounded(90));
    r.Add({a, b});
    scaled.Add({a * kScale, b * kScale});
  }
  r.Build();
  scaled.Build();
  const TrieIndex packed(r);
  const TrieIndex raw(scaled);
  ASSERT_EQ(packed.LevelTier(0), KeyTier::kPacked16);
  ASSERT_EQ(raw.LevelTier(0), KeyTier::kRaw);
  for (int k : {2, 3, 7, 16}) {
    std::vector<Value> want = packed.SplitPoints(k);
    for (Value& v : want) v *= kScale;
    EXPECT_EQ(raw.SplitPoints(k), want) << "k=" << k;
  }
}

TEST(TrieIndexTest, ColumnMinMaxMetadata) {
  Relation r = Relation::FromTuples(2, {{3, 9}, {5, 1}, {8, 4}});
  TrieIndex index(r);
  EXPECT_EQ(index.ColMin(0), 3);
  EXPECT_EQ(index.ColMax(0), 8);
  EXPECT_EQ(index.ColMin(1), 1);
  EXPECT_EQ(index.ColMax(1), 9);
  // Metadata follows the trie's column order, not the relation's.
  TrieIndex swapped(r, {1, 0});
  EXPECT_EQ(swapped.ColMin(0), 1);
  EXPECT_EQ(swapped.ColMax(0), 9);
  Relation empty(2);
  empty.Build();
  TrieIndex none(empty);
  EXPECT_EQ(none.ColMin(0), kPosInf);
  EXPECT_EQ(none.ColMax(0), kNegInf);
}

TEST(IndexCatalogTest, MemoizesByRelationAndPermutation) {
  Relation r = Relation::FromTuples(2, {{1, 2}, {3, 4}});
  Relation s = Relation::FromTuples(2, {{5, 6}});
  IndexCatalog catalog;
  bool built = false;
  const TrieIndex* a = catalog.GetOrBuild(r, {0, 1}, &built);
  EXPECT_TRUE(built);
  const TrieIndex* b = catalog.GetOrBuild(r, {0, 1}, &built);
  EXPECT_FALSE(built);
  EXPECT_EQ(a, b);  // pointer-identical: one resident index
  const TrieIndex* c = catalog.GetOrBuild(r, {1, 0}, &built);
  EXPECT_TRUE(built);
  EXPECT_NE(a, c);
  const TrieIndex* d = catalog.GetOrBuild(s, {0, 1}, &built);
  EXPECT_TRUE(built);
  EXPECT_NE(a, d);
  EXPECT_EQ(catalog.size(), 3u);
  EXPECT_EQ(catalog.builds(), 3u);
  EXPECT_EQ(catalog.hits(), 1u);
}

TEST(IndexCatalogTest, InvalidateDropsOnlyThatRelation) {
  Relation r = Relation::FromTuples(1, {{1}, {2}});
  Relation s = Relation::FromTuples(1, {{9}});
  IndexCatalog catalog;
  catalog.GetOrBuild(r, {0});
  const TrieIndex* kept = catalog.GetOrBuild(s, {0});
  catalog.Invalidate(&r);
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.GetOrBuild(s, {0}), kept);
  // Replacing r's contents in place then rebuilding reflects the new data.
  r = Relation::FromTuples(1, {{7}});
  bool built = false;
  const TrieIndex* fresh = catalog.GetOrBuild(r, {0}, &built);
  EXPECT_TRUE(built);
  EXPECT_EQ(fresh->size(), 1u);
  EXPECT_EQ(fresh->ColMin(0), 7);
}

// --- SplitPoints: the morsel scheduler's quantile API ---

TEST(SplitPointsTest, DegenerateInputs) {
  Relation empty(1);
  empty.Build();
  EXPECT_TRUE(TrieIndex(empty).SplitPoints(8).empty());
  Relation one = Relation::FromTuples(1, {{5}});
  EXPECT_TRUE(TrieIndex(one).SplitPoints(1).empty());
  EXPECT_TRUE(TrieIndex(one).SplitPoints(0).empty());
  // A single key can never split: the tail range must stay non-empty.
  EXPECT_TRUE(TrieIndex(one).SplitPoints(4).empty());
}

TEST(SplitPointsTest, UnaryQuantilesAreEqualKeyShares) {
  Relation r(1);
  for (Value v = 0; v < 100; ++v) r.Add({v});
  r.Build();
  const TrieIndex index(r);
  const std::vector<Value> splits = index.SplitPoints(4);
  // 100 distinct unit-weight keys into 4 ranges: boundaries at the
  // 25th/50th/75th keys.
  EXPECT_EQ(splits, (std::vector<Value>{24, 49, 74}));
  // More ranges than keys: every key but the last becomes a boundary.
  Relation tiny = Relation::FromTuples(1, {{10}, {20}, {30}});
  const std::vector<Value> all = TrieIndex(tiny).SplitPoints(8);
  EXPECT_EQ(all, (std::vector<Value>{10, 20}));
}

TEST(SplitPointsTest, SubtreeBreadthWeightingIsolatesHubKeys) {
  // Key 0 is a hub with 97 children; keys 1..3 have one child each.
  // Key-count quantiles would cut {0,1} | {2,3}, leaving the first
  // range with 98% of the tuples; breadth weighting must cut the hub
  // off on its own.
  Relation r(2);
  for (Value c = 0; c < 97; ++c) r.Add({0, c});
  r.Add({1, 0});
  r.Add({2, 0});
  r.Add({3, 0});
  r.Build();
  const TrieIndex index(r);
  EXPECT_EQ(index.SplitPoints(2), (std::vector<Value>{0}));
  // Even at finer granularity the hub swallows every quantile it
  // covers and is emitted exactly once; boundaries stay increasing.
  const std::vector<Value> fine = index.SplitPoints(4);
  ASSERT_FALSE(fine.empty());
  EXPECT_EQ(fine.front(), 0);
  for (size_t i = 1; i < fine.size(); ++i) {
    EXPECT_LT(fine[i - 1], fine[i]);
  }
}

TEST(DatabaseTest, PutFindMapAndReplaceInvalidation) {
  Database db;
  const Relation* edge =
      db.Put("edge", Relation::FromTuples(2, {{1, 2}, {2, 3}}));
  ASSERT_NE(edge, nullptr);
  EXPECT_EQ(db.Find("edge"), edge);
  EXPECT_EQ(db.Find("missing"), nullptr);
  EXPECT_EQ(db.Map().at("edge"), edge);

  const TrieIndex* index = db.catalog()->GetOrBuild(*edge, {0, 1});
  EXPECT_EQ(index->size(), 2u);
  // Replacing keeps the resident address but drops the stale index.
  const Relation* replaced =
      db.Put("edge", Relation::FromTuples(2, {{4, 5}}));
  EXPECT_EQ(replaced, edge);
  EXPECT_EQ(db.catalog()->size(), 0u);
  bool built = false;
  const TrieIndex* rebuilt = db.catalog()->GetOrBuild(*edge, {0, 1}, &built);
  EXPECT_TRUE(built);
  EXPECT_EQ(rebuilt->size(), 1u);
}

}  // namespace
}  // namespace wcoj
