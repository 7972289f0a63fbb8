// Differential test harness for the bound search and the key tiers.
//
// Layer 1 pins the search against a std::lower_bound oracle on
// thousands of seeded arrays per element type (int64 keys and the
// unsigned 16-bit lanes of the packed16 tier), over the adversarial
// shape classes the trie produces: empty, single, all-duplicate, dense
// runs, clustered gaps, and int64-extreme domains (the PR 5 overflow
// class). It also pins LevelKeys::LowerBound and UpperBound on both
// tiers against std::lower_bound / std::upper_bound over the decoded
// keys, at the probes where the tier translation and the
// upper-bound-as-(v + 1) rewrite could slip. (The TrieIndex-level walk,
// Seek and SeekGap checks against a naive row-scan reference live in
// storage_test's TrieCsrPropertyTest.)
//
// Layer 2 pins span intersection counting against a
// std::set_intersection oracle on native packed16, native raw and mixed
// (decoded) spans.
//
// Layer 3 runs full engines (lftj, ms, hybrid) on a graph whose trie
// levels are packed16 and on a copy with every node id scaled by 2^33,
// whose levels are raw, and checks every count against a brute-force
// oracle and every engine's tuples against lftj's.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "core/engine.h"
#include "graph/generators.h"
#include "parallel/partitioned_run.h"
#include "query/parser.h"
#include "storage/catalog.h"
#include "storage/intersect.h"
#include "storage/level_keys.h"
#include "storage/search_kernels.h"
#include "storage/trie.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace wcoj {
namespace {

// --- Layer 1: the bound search vs the standard-library oracle ---

// Sorted array corpus for one element type. `extreme` draws values
// hugging the domain ends; Value arrays additionally hug the int64
// sentinels.
template <typename T>
std::vector<std::vector<T>> BuildCorpus(uint64_t seed) {
  const size_t sizes[] = {0,  1,  2,   3,   5,   31,  32,  33, 63,
                          64, 65, 127, 128, 129, 255, 256, 1000};
  const bool is_signed = static_cast<T>(-1) < T{0};
  const T type_min = std::numeric_limits<T>::min();
  const T type_max = std::numeric_limits<T>::max();
  Rng rng(seed);
  std::vector<std::vector<T>> corpus;
  for (const size_t n : sizes) {
    for (int klass = 0; klass < 5; ++klass) {
      for (int rep = 0; rep < 5; ++rep) {
        std::vector<T> a(n);
        switch (klass) {
          case 0:  // uniform random, medium domain
            for (auto& x : a) {
              x = static_cast<T>(rng.NextBounded(1 << 16)) -
                  (is_signed ? static_cast<T>(1 << 15) : T{0});
            }
            break;
          case 1:  // all-duplicate
            std::fill(a.begin(), a.end(),
                      static_cast<T>(rng.NextBounded(100)));
            break;
          case 2: {  // clustered with adversarial gaps
            T base = static_cast<T>(rng.NextBounded(64));
            for (size_t i = 0; i < n; ++i) {
              if (rng.NextBounded(8) == 0) {
                base = static_cast<T>(
                    base + static_cast<T>(type_max / 16) +
                    static_cast<T>(rng.NextBounded(16)));
              }
              a[i] = base;
            }
            break;
          }
          case 3:  // dense consecutive run
            for (size_t i = 0; i < n; ++i) {
              a[i] = static_cast<T>(static_cast<T>(rng.NextBounded(4)) +
                                    static_cast<T>(i));
            }
            break;
          case 4:  // domain-extreme values (the PR 5 overflow class)
            for (auto& x : a) {
              const uint64_t r = rng.NextBounded(1000);
              x = rng.NextBounded(2) == 0
                      ? static_cast<T>(type_min + static_cast<T>(r) +
                                       (is_signed ? 1 : 0))
                      : static_cast<T>(type_max - static_cast<T>(r));
            }
            break;
        }
        std::sort(a.begin(), a.end());
        corpus.push_back(std::move(a));
      }
    }
  }
  return corpus;
}

template <typename T>
std::vector<T> ProbesFor(const std::vector<T>& a, Rng* rng) {
  std::vector<T> probes = {std::numeric_limits<T>::min(),
                           std::numeric_limits<T>::max(), T{0}};
  for (int i = 0; i < 12; ++i) {
    if (!a.empty()) {
      const T e = a[rng->NextBounded(a.size())];
      probes.push_back(e);
      if (e != std::numeric_limits<T>::min()) {
        probes.push_back(static_cast<T>(e - 1));
      }
      if (e != std::numeric_limits<T>::max()) {
        probes.push_back(static_cast<T>(e + 1));
      }
    }
    probes.push_back(static_cast<T>(rng->NextBounded(1 << 16)));
  }
  return probes;
}

template <typename T>
void RunPrimitiveDifferential(uint64_t seed) {
  const std::vector<std::vector<T>> corpus = BuildCorpus<T>(seed);
  ASSERT_GT(corpus.size(), 400u);  // "thousands" across the 2 types
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  for (const std::vector<T>& a : corpus) {
    const size_t n = a.size();
    // Full range plus sub-ranges, so galloping from a nonzero lo and
    // clamping at an interior hi are both exercised.
    const size_t ranges[][2] = {{0, n}, {n / 3, n - n / 4}, {n / 2, n / 2}};
    for (const T v : ProbesFor(a, &rng)) {
      for (const auto& r : ranges) {
        const size_t lo = r[0], hi = std::max(r[0], r[1]);
        const size_t oracle =
            std::lower_bound(a.begin() + lo, a.begin() + hi, v) - a.begin();
        ASSERT_EQ(KernelLowerBound(a.data(), lo, hi, v), oracle)
            << "n=" << n << " lo=" << lo << " hi=" << hi;
      }
    }
  }
}

TEST(KernelPrimitiveTest, Int64MatchesStdLowerBound) {
  RunPrimitiveDifferential<int64_t>(11);
}

TEST(KernelPrimitiveTest, U16MatchesStdLowerBound) {
  RunPrimitiveDifferential<uint16_t>(13);
}

// LevelKeys bounds on both tiers vs std::lower_bound / std::upper_bound
// over the decoded keys. Each level spans exactly `span`, so base - 1,
// base, base + span and base + span + 1 sit on both sides of the packed
// translation's cut-offs; levels hugging INT64_MIN and INT64_MAX put the
// upper bound's v + 1 at the domain edge. The tier follows from the
// keys: packed16 at >= kAutoMinKeys keys with a span within 16 bits,
// raw below that size or beyond that span.
TEST(KernelPrimitiveTest, LevelKeysBoundsMatchStdOracleOnEveryTier) {
  struct Level {
    Value base;
    uint64_t span;  // last key - base
  };
  const uint64_t kU16Max = UINT16_MAX;
  const uint64_t kU32Max = UINT32_MAX;
  const Level levels[] = {
      {-1000, UINT8_MAX},
      {77, kU16Max},
      {kNegInf, kU16Max},
      {kPosInf - static_cast<Value>(kU16Max), kU16Max},
      {-5, kU16Max + 1},
      {-(Value{1} << 31), kU32Max},
      {kPosInf - static_cast<Value>(kU32Max), kU32Max},
      {kNegInf, UINT64_MAX},
  };
  bool saw[2] = {false, false};  // raw, packed16
  // Probes are computed wide and kept when they fit a Value.
  auto add_probe = [](__int128 v, std::vector<Value>* probes) {
    if (v >= kNegInf && v <= kPosInf) {
      probes->push_back(static_cast<Value>(v));
    }
  };
  Rng rng(15);
  for (const Level& spec : levels) {
    for (const size_t n : {2, 3, 17, 40, 63, 64, 65, 300}) {
      std::vector<Value> keys = {spec.base,
                                 static_cast<Value>(
                                     static_cast<uint64_t>(spec.base) +
                                     spec.span)};
      while (keys.size() < n) {
        // Offsets bunch near the ends and spread over the middle, with
        // repeats, so galloping crosses both dense and sparse stretches.
        const uint64_t off = rng.NextBounded(4) == 0
                                 ? rng.NextBounded(8)
                                 : rng.NextBounded(spec.span);
        keys.push_back(
            static_cast<Value>(static_cast<uint64_t>(spec.base) + off));
      }
      std::sort(keys.begin(), keys.end());
      LevelKeys level;
      level.Build(keys, /*compressible=*/true);
      const KeyTier tier =
          n >= LevelKeys::kAutoMinKeys && spec.span <= kU16Max
              ? KeyTier::kPacked16
              : KeyTier::kRaw;
      ASSERT_EQ(level.tier(), tier) << "span=" << spec.span << " n=" << n;
      saw[tier == KeyTier::kPacked16] = true;
      std::vector<Value> decoded;
      for (size_t i = 0; i < n; ++i) decoded.push_back(level.At(i));
      ASSERT_EQ(decoded, keys);

      std::vector<Value> probes = {kNegInf, kPosInf, 0};
      const __int128 base = spec.base;
      for (const __int128 v : {base - 1, base, base + spec.span,
                               base + spec.span + 1}) {
        add_probe(v, &probes);
      }
      for (int i = 0; i < 8; ++i) {
        const __int128 k = keys[rng.NextBounded(n)];
        for (const int d : {-1, 0, 1}) add_probe(k + d, &probes);
      }
      // Sub-ranges start at a nonzero lo, so the gallop and the packed
      // translation both run from inside the array.
      const size_t ranges[][2] = {
          {0, n}, {1, n}, {n / 3, n - n / 4}, {n / 2, n / 2}, {n - 1, n}};
      for (const Value v : probes) {
        for (const auto& r : ranges) {
          const size_t lo = r[0], hi = std::max(r[0], r[1]);
          const auto first = decoded.begin() + lo;
          const auto last = decoded.begin() + hi;
          const size_t lb =
              std::lower_bound(first, last, v) - decoded.begin();
          const size_t ub =
              std::upper_bound(first, last, v) - decoded.begin();
          ASSERT_EQ(level.LowerBound(lo, hi, v), lb)
              << TierName(tier) << " base=" << spec.base << " n=" << n
              << " lo=" << lo << " hi=" << hi << " v=" << v;
          ASSERT_EQ(level.UpperBound(lo, hi, v), ub)
              << TierName(tier) << " base=" << spec.base << " n=" << n
              << " lo=" << lo << " hi=" << hi << " v=" << v;
        }
      }
    }
  }
  EXPECT_TRUE(saw[0] && saw[1]);
}

// --- Layer 2: span intersection counting vs a std::set_intersection oracle ---

// The keys of one span, decoded one At() at a time — independent of the
// intersector's lane and bulk-decode paths.
std::vector<Value> SpanKeys(const KeySpan& s) {
  std::vector<Value> keys;
  for (size_t i = s.begin; i < s.end; ++i) keys.push_back(s.keys->At(i));
  return keys;
}

uint64_t OracleIntersectCount(const std::vector<KeySpan>& spans, Value lo,
                              Value hi) {
  std::vector<Value> acc;
  for (const Value v : SpanKeys(spans[0])) {
    if (lo <= v && v <= hi) acc.push_back(v);
  }
  for (size_t i = 1; i < spans.size(); ++i) {
    const std::vector<Value> keys = SpanKeys(spans[i]);
    std::vector<Value> next;
    std::set_intersection(acc.begin(), acc.end(), keys.begin(), keys.end(),
                          std::back_inserter(next));
    acc = std::move(next);
  }
  return acc.size();
}

// Two relations whose level-1 groups (the children of one first-column
// key) draw from one shared value pool, so spans from either index
// intersect. Group sizes are skewed — a few hub groups hold most rows —
// so both the merge and the gallop strategy fire. `stride` spaces the
// pool: 1 and 37 keep each level-1 span within 16 bits (packed16),
// 2^30 does not (raw). Children draw from pool slots [first, 400), so a
// nonzero `first` moves the packed16 base. The draws do not depend on
// the stride, so every stride builds the same relation up to an
// order-preserving scaling.
Relation GroupedRelation(Value stride, uint64_t seed, Value first) {
  Rng rng(seed);
  Relation r(2);
  for (int i = 0; i < 3000; ++i) {
    const Value parent =
        static_cast<Value>(rng.NextBounded(1 + rng.NextBounded(24)));
    const Value child =
        (first + static_cast<Value>(rng.NextBounded(400 - first))) * stride;
    r.Add({parent, child});
  }
  r.Build();
  return r;
}

// Spans come from two tries (one LevelKeys shared by many spans: the
// native-lane path, packed16 or raw by stride) and from a standalone
// raw level. Mixing it with packed16 spans, or mixing the two tries'
// packed16 levels, whose bases differ, takes the decode path.
TEST(SpanIntersectTest, CountMatchesOracleOnEveryTier) {
  struct Call {
    // (source, parent key); source 2 is the whole standalone level.
    std::vector<std::pair<int, Value>> spans;
    Value lo, hi;
  };
  // (count, probes) per call of the first stride; every stride must
  // reproduce it, since counts and probe counts alike are tier-blind.
  std::vector<std::pair<uint64_t, uint64_t>> first;
  for (const Value stride : {Value{1}, Value{37}, Value{1} << 30}) {
    const Relation rels[2] = {GroupedRelation(stride, 5, 0),
                              GroupedRelation(stride, 6, 1)};
    const KeyTier tier =
        399 * stride <= Value{UINT16_MAX} ? KeyTier::kPacked16 : KeyTier::kRaw;
    Rng rng(3);
    std::vector<Value> pool_subset;
    for (Value v = 0; v < 400; ++v) {
      if (rng.NextBounded(3) == 0) pool_subset.push_back(v * stride);
    }
    std::vector<Call> calls;
    for (int i = 0; i < 400; ++i) {
      Call c;
      const int k = 1 + static_cast<int>(rng.NextBounded(4));
      for (int j = 0; j < k; ++j) {
        c.spans.push_back({static_cast<int>(rng.NextBounded(3)),
                           static_cast<Value>(rng.NextBounded(24))});
      }
      switch (i % 4) {
        case 0:  // no window
          c.lo = kNegInf;
          c.hi = kPosInf;
          break;
        case 1:  // window inside the pool, possibly empty (lo > hi)
          c.lo = static_cast<Value>(rng.NextBounded(400)) * stride;
          c.hi = static_cast<Value>(rng.NextBounded(400)) * stride;
          break;
        case 2:  // one-sided, off the pool's grid
          c.lo = static_cast<Value>(rng.NextBounded(400)) * stride + 1;
          c.hi = kPosInf;
          break;
        default:
          c.lo = kNegInf;
          c.hi = static_cast<Value>(rng.NextBounded(400)) * stride - 1;
          break;
      }
      calls.push_back(std::move(c));
    }

    const TrieIndex indexes[2] = {TrieIndex(rels[0]), TrieIndex(rels[1])};
    ASSERT_EQ(indexes[0].LevelTier(1), tier) << "stride " << stride;
    ASSERT_EQ(indexes[1].LevelTier(1), tier) << "stride " << stride;
    if (tier == KeyTier::kPacked16) {
      ASSERT_NE(indexes[0].Keys(1).packed_base(),
                indexes[1].Keys(1).packed_base());
    }
    LevelKeys standalone;
    standalone.Build(pool_subset, /*compressible=*/false);
    ASSERT_EQ(standalone.tier(), KeyTier::kRaw);
    SpanIntersector intersector;
    std::vector<std::pair<uint64_t, uint64_t>> out;
    for (const Call& c : calls) {
      std::vector<KeySpan> spans;
      for (const auto& [which, parent] : c.spans) {
        if (which == 2) {
          spans.push_back({&standalone, 0, standalone.size()});
          continue;
        }
        const TrieIndex& index = indexes[which];
        const size_t p = index.LowerBound(0, 0, index.LevelSize(0), parent);
        if (p == index.LevelSize(0) || index.KeyAt(0, p) != parent) {
          spans.push_back({&index.Keys(1), 0, 0});  // absent: empty span
        } else {
          spans.push_back({&index.Keys(1), index.ChildBegin(0, p),
                           index.ChildEnd(0, p)});
        }
      }
      const uint64_t expected = OracleIntersectCount(spans, c.lo, c.hi);
      IntersectWork work;
      const uint64_t got = intersector.Count(spans, c.lo, c.hi, &work);
      EXPECT_EQ(got, expected) << "stride " << stride;
      out.push_back({got, work.probes});
    }
    if (first.empty()) {
      first = std::move(out);
    } else {
      EXPECT_EQ(out, first) << "stride " << stride;
    }
  }
}

// --- Layer 3: full engines on packed16 and raw copies of one graph ---

// `rel` with every value multiplied by `scale`: order-preserving, so
// every join answer scales with it.
Relation Scaled(const Relation& rel, Value scale) {
  Relation out(rel.arity());
  for (size_t r = 0; r < rel.size(); ++r) {
    Tuple t = rel.RowTuple(r);
    for (Value& v : t) v *= scale;
    out.Add(t);
  }
  out.Build();
  return out;
}

// Every engine answers each query collecting tuples, on the graph as
// given (its trie levels are packed16) and on a copy whose node ids are
// scaled by 2^33 (spans beyond 16 bits: raw levels; still below
// kWildcard, so Minesweeper's domain check passes). Each count must
// match a brute-force oracle and each engine's tuples lftj's. The
// engines built on LFTJ (lftj, and hybrid's suffix joins) answer again
// count-only — the run shape every paper table and served query takes,
// where LFTJ counts its last GAO variable with one span intersection
// instead of binding it. LFTJ only compares keys, so its count-only
// seek counter must be the same on both copies.
TEST(KernelTierDifferentialTest, EngineResultsIdenticalAcrossTiers) {
  Graph g = ErdosRenyi(/*num_nodes=*/220, /*num_edges=*/1100, /*seed=*/21);
  Relation third(1);  // every third node: a second unary atom
  for (Value v = 0; v < 220; v += 3) third.Add({v});
  third.Build();
  const Relation packed[] = {g.EdgeRelationSymmetric(),
                             g.EdgeRelationOriented(), g.NodeRelation(),
                             third};
  const Value kScale = Value{1} << 33;
  const Relation raw[] = {Scaled(packed[0], kScale), Scaled(packed[1], kScale),
                          Scaled(packed[2], kScale), Scaled(packed[3], kScale)};
  // The binary relations' levels land on the tier each copy stands for.
  for (int d = 0; d < 2; ++d) {
    EXPECT_EQ(TrieIndex(packed[0]).LevelTier(d), KeyTier::kPacked16);
    EXPECT_EQ(TrieIndex(raw[0]).LevelTier(d), KeyTier::kRaw);
  }
  auto put_relations = [](Database* db, const Relation (&rels)[4]) {
    db->Put("edge", rels[0]);
    db->Put("edge_lt", rels[1]);
    db->Put("node", rels[2]);
    db->Put("third", rels[3]);
  };
  const struct {
    const char* text;
    std::vector<std::string> gao;
  } queries[] = {
      // The last depth joins 1, 2 and 3 atoms.
      {"edge(a,b), edge(b,c)", {"a", "b", "c"}},
      {"edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)", {"a", "b", "c"}},
      {"edge_lt(a,b), edge_lt(a,c), edge_lt(a,d), edge_lt(b,c), "
       "edge_lt(b,d), edge_lt(c,d)",
       {"a", "b", "c", "d"}},
      {"edge(a,b), edge(b,c), edge(c,d)", {"a", "b", "c", "d"}},
      // Filters in GAO order (the last variable's lower window end),
      // reversed onto the last variable (its upper end), reversed
      // between earlier variables (checked before counting), and one
      // the data already implies. On the 2-paths c may equal a, so an
      // off-by-one window end changes the count.
      {"edge(a,b), edge(b,c), edge(a,c), a<b, b<c", {"a", "b", "c"}},
      {"edge(a,b), edge(b,c), a<c", {"a", "b", "c"}},
      {"edge(a,b), edge(b,c), c<a", {"a", "b", "c"}},
      {"edge(a,b), edge(b,c), edge(a,c), b<a", {"a", "b", "c"}},
      {"edge_lt(a,b), edge_lt(b,c), edge_lt(a,c), a<c", {"a", "b", "c"}},
      // One variable: the first depth is the last one.
      {"node(a), third(a)", {"a"}},
  };
  ExecOptions collect;
  collect.collect_tuples = true;
  const ExecOptions count_only;
  for (const auto& spec : queries) {
    const Query q = MustParseQuery(spec.text);
    uint64_t expected = 0;  // the brute-force count; scaling keeps it
    uint64_t lftj_seeks[2] = {0, 0};
    for (const int copy : {0, 1}) {
      const char* tier = copy == 0 ? "packed16" : "raw";
      Database db;
      put_relations(&db, copy == 0 ? packed : raw);
      const BoundQuery bq = Bind(q, db, spec.gao);
      if (copy == 0) expected = BruteForceCount(bq);
      ASSERT_GT(expected, 0u) << spec.text;
      std::vector<Tuple> lftj_tuples;
      for (const char* engine_name : {"lftj", "ms", "hybrid"}) {
        const std::string config =
            std::string(engine_name) + " " + spec.text + " " + tier;
        const auto engine = CreateEngine(engine_name);
        ASSERT_NE(engine, nullptr);
        ExecResult r = engine->Execute(bq, collect);
        std::sort(r.tuples.begin(), r.tuples.end());
        EXPECT_EQ(r.count, expected) << config;
        EXPECT_EQ(r.tuples.size(), expected) << config;
        if (std::string(engine_name) == "lftj") {
          lftj_tuples = std::move(r.tuples);
        } else {
          EXPECT_EQ(r.tuples, lftj_tuples) << config;
        }

        if (std::string(engine_name) == "ms") continue;
        const ExecResult c = engine->Execute(bq, count_only);
        EXPECT_EQ(c.count, expected) << config;
        if (std::string(engine_name) != "lftj") continue;
        lftj_seeks[copy] = c.stats.seeks;
        // Morsels restrict the first variable to [var0_min, var0_max];
        // on the one-variable query that range is the counted window
        // itself.
        const ExecResult p =
            PartitionedExecute(*engine, bq, count_only, /*num_threads=*/2,
                               /*granularity=*/4);
        EXPECT_EQ(p.count, expected) << config << " partitioned";
      }
    }
    EXPECT_EQ(lftj_seeks[0], lftj_seeks[1]) << spec.text;
  }
}

}  // namespace
}  // namespace wcoj
