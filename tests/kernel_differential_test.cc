// Differential test harness for the bound search and the compressed key
// tiers.
//
// Layer 1 pins the search against a std::lower_bound oracle on
// thousands of seeded arrays per element type (int64 keys and the
// unsigned 8/16/32-bit lanes the packed tiers store), over the
// adversarial shape classes the trie produces: empty, single,
// all-duplicate, dense runs, clustered gaps, and int64-extreme domains
// (the PR 5 overflow class). It also pins LevelKeys::LowerBound and
// UpperBound on every tier against std::lower_bound / std::upper_bound
// over the decoded keys, at the probes where the tier translation and
// the upper-bound-as-(v + 1) rewrite could slip.
//
// Layer 2 pins every tier at the TrieIndex level: walk, Seek, and
// SeekGap results must be bit-identical to the raw-tier oracle on
// randomized relations.
//
// Layer 3 sweeps full engines (lftj, ms, hybrid) across tier policies
// and asserts bit-identical query results and seek counters.

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
#include "util/rng.h"

namespace wcoj {
namespace {

// Restores the previous tier policy on scope exit so no test leaks a
// forced configuration into the rest of the suite.
struct TierPolicyGuard {
  TierPolicy prev_policy;
  TierPolicyGuard() : prev_policy(DefaultTierPolicy()) {}
  ~TierPolicyGuard() { SetDefaultTierPolicy(prev_policy); }
};

constexpr TierPolicy kSweepPolicies[] = {TierPolicy::kRawOnly,
                                         TierPolicy::kForcePacked};

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
  ASSERT_GT(corpus.size(), 400u);  // "thousands" across the 4 types
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

TEST(KernelPrimitiveTest, U32MatchesStdLowerBound) {
  RunPrimitiveDifferential<uint32_t>(12);
}

TEST(KernelPrimitiveTest, U16MatchesStdLowerBound) {
  RunPrimitiveDifferential<uint16_t>(13);
}

TEST(KernelPrimitiveTest, U8MatchesStdLowerBound) {
  RunPrimitiveDifferential<uint8_t>(14);
}

// LevelKeys bounds on every tier vs std::lower_bound / std::upper_bound
// over the decoded keys. Each level spans exactly its lane maximum (or
// more, for raw), so base - 1, base, base + lane max and base + lane
// max + 1 sit on both sides of the packed translation's cut-offs; levels
// hugging INT64_MIN and INT64_MAX put the upper bound's v + 1 at the
// domain edge.
TEST(KernelPrimitiveTest, LevelKeysBoundsMatchStdOracleOnEveryTier) {
  struct Level {
    KeyTier tier;
    Value base;
    uint64_t span;  // last key - base
  };
  const uint64_t kU32Max = UINT32_MAX;
  const Level levels[] = {
      {KeyTier::kPacked8, -1000, UINT8_MAX},
      {KeyTier::kPacked8, kNegInf, UINT8_MAX},
      {KeyTier::kPacked8, kPosInf - UINT8_MAX, UINT8_MAX},
      {KeyTier::kPacked16, 77, UINT16_MAX},
      {KeyTier::kPacked16, kNegInf, UINT16_MAX},
      {KeyTier::kPacked16, kPosInf - UINT16_MAX, UINT16_MAX},
      {KeyTier::kPacked32, -(Value{1} << 31), kU32Max},
      {KeyTier::kPacked32, kNegInf, kU32Max},
      {KeyTier::kPacked32, kPosInf - static_cast<Value>(kU32Max), kU32Max},
      {KeyTier::kRaw, -5, kU32Max + 1},
      {KeyTier::kRaw, kNegInf, UINT64_MAX},
  };
  // Probes are computed wide and kept when they fit a Value.
  auto add_probe = [](__int128 v, std::vector<Value>* probes) {
    if (v >= kNegInf && v <= kPosInf) {
      probes->push_back(static_cast<Value>(v));
    }
  };
  Rng rng(15);
  for (const Level& spec : levels) {
    for (const size_t n : {2, 3, 17, 40, 300}) {
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
      level.Build(keys, TierPolicy::kForcePacked, /*compressible=*/true);
      ASSERT_EQ(level.tier(), spec.tier)
          << TierName(spec.tier) << " n=" << n;
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
              << TierName(spec.tier) << " base=" << spec.base << " n=" << n
              << " lo=" << lo << " hi=" << hi << " v=" << v;
          ASSERT_EQ(level.UpperBound(lo, hi, v), ub)
              << TierName(spec.tier) << " base=" << spec.base << " n=" << n
              << " lo=" << lo << " hi=" << hi << " v=" << v;
        }
      }
    }
  }
}

// --- Layer 2: every tier vs the raw oracle index ---

// Everything observable through the trie's probe interfaces, collected
// deterministically so configurations compare with one EXPECT each.
struct TrieObservations {
  std::vector<Tuple> walk;
  std::vector<Value> seeks;  // flattened (key-or-sentinel) per probe
  std::vector<int64_t> gaps;  // flattened SeekGap fields per probe
  std::vector<Value> splits;
  Tuple col_stats;

  bool operator==(const TrieObservations& o) const = default;
};

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

TrieObservations Observe(const TrieIndex& index,
                         const std::vector<Tuple>& probes) {
  TrieObservations obs;
  const int arity = index.arity();
  Tuple prefix;
  TrieIterator walk_it(&index);
  EnumerateTrie(&walk_it, arity, &prefix, &obs.walk);
  for (const Tuple& t : probes) {
    const auto gap = index.SeekGap(t);
    obs.gaps.push_back(gap.found);
    obs.gaps.push_back(gap.fail_pos);
    obs.gaps.push_back(gap.glb);
    obs.gaps.push_back(gap.lub);
    // Seek down the probe's prefix for as long as it stays resident,
    // recording the landed key (or kPosInf at end) at each depth.
    TrieIterator it(&index);
    it.Open();
    for (int d = 0; d < arity; ++d) {
      it.Seek(t[d]);
      if (it.AtEnd()) {
        obs.seeks.push_back(kPosInf);
        break;
      }
      obs.seeks.push_back(it.Key());
      if (it.Key() != t[d] || d + 1 == arity) break;
      it.Open();
    }
  }
  obs.splits = index.SplitPoints(7);
  for (int c = 0; c < arity; ++c) {
    obs.col_stats.push_back(index.ColMin(c));
    obs.col_stats.push_back(index.ColMax(c));
  }
  return obs;
}

Relation RandomRelation(int arity, int rows, int klass, Rng* rng) {
  Relation r(arity);
  for (int i = 0; i < rows; ++i) {
    Tuple t(arity);
    for (int c = 0; c < arity; ++c) {
      switch (klass) {
        case 0:  // tiny domain: long duplicate runs, packed8 territory
          t[c] = static_cast<Value>(rng->NextBounded(5));
          break;
        case 1:  // medium domain
          t[c] = static_cast<Value>(rng->NextBounded(2000));
          break;
        case 2:  // wide domain: beyond every packed width, stays raw
          t[c] = static_cast<Value>(rng->NextBounded(1ull << 40));
          break;
        default:  // int64-extreme: must never compress, must stay exact
          t[c] = rng->NextBounded(2) == 0
                     ? kNegInf + 1 +
                           static_cast<Value>(rng->NextBounded(1000))
                     : kPosInf - 1 -
                           static_cast<Value>(rng->NextBounded(1000));
          break;
      }
    }
    r.Add(t);
  }
  r.Build();
  return r;
}

TEST(KernelTierDifferentialTest, TrieMatchesRawOracle) {
  bool saw_packed = false;
  for (int trial = 0; trial < 48; ++trial) {
    Rng rng(4000 + trial);
    const int arity = 1 + trial % 4;
    const int klass = trial % 4;
    const int rows =
        trial % 11 == 10 ? 0 : 1 + static_cast<int>(rng.NextBounded(220));
    const Relation rel = RandomRelation(arity, rows, klass, &rng);
    // Probe mix: resident tuples, near-misses, random, domain extremes.
    std::vector<Tuple> probes;
    for (int i = 0; i < 60; ++i) {
      Tuple t(arity);
      if (rel.size() > 0 && i % 3 == 0) {
        t = rel.RowTuple(rng.NextBounded(rel.size()));
        if (i % 6 == 0) t[rng.NextBounded(arity)] += 1;
      } else {
        for (int c = 0; c < arity; ++c) {
          switch (i % 4) {
            case 0:
              t[c] = static_cast<Value>(rng.NextBounded(2000)) - 1000;
              break;
            case 1:
              t[c] = kNegInf + static_cast<Value>(rng.NextBounded(3));
              break;
            case 2:
              t[c] = kPosInf - static_cast<Value>(rng.NextBounded(3));
              break;
            default:
              t[c] = static_cast<Value>(rng.NextBounded(1ull << 40));
              break;
          }
        }
      }
      probes.push_back(std::move(t));
    }

    const TrieIndex oracle_index(rel, {}, TierPolicy::kRawOnly);
    const TrieObservations oracle = Observe(oracle_index, probes);

    for (const TierPolicy policy : kSweepPolicies) {
      const TrieIndex index(rel, {}, policy);
      for (int d = 0; d < index.arity(); ++d) {
        saw_packed |= index.LevelTier(d) == KeyTier::kPacked8 ||
                      index.LevelTier(d) == KeyTier::kPacked16 ||
                      index.LevelTier(d) == KeyTier::kPacked32;
        if (arity == 1 || rel.size() == 0) {
          // Degenerate guard: unary and empty tries never compress.
          EXPECT_EQ(index.LevelTier(d), KeyTier::kRaw)
              << "trial " << trial << " policy "
              << TierPolicyName(policy);
        }
      }
      EXPECT_EQ(Observe(index, probes), oracle)
          << "trial " << trial << " tier policy " << TierPolicyName(policy);
    }
  }
  // The sweep must actually have exercised compressed layouts.
  EXPECT_TRUE(saw_packed);
}

// --- Layer 2b: span intersection counting vs a std::set_intersection oracle ---

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
// pool: 1 packs into 8/16 bits, 37 into 16/32, 2^30 never packs.
Relation GroupedRelation(Value stride, uint64_t seed) {
  Rng rng(seed);
  Relation r(2);
  for (int i = 0; i < 3000; ++i) {
    const Value parent =
        static_cast<Value>(rng.NextBounded(1 + rng.NextBounded(24)));
    const Value child = static_cast<Value>(rng.NextBounded(400)) * stride;
    r.Add({parent, child});
  }
  r.Build();
  return r;
}

// Spans come from two tries built under the swept policy (one
// LevelKeys shared by many spans: the native-lane path) and from a
// standalone raw level (mixed with packed spans: the decode path).
TEST(SpanIntersectTest, CountMatchesOracleOnEveryTier) {
  struct Call {
    // (source, parent key); source 2 is the whole standalone level.
    std::vector<std::pair<int, Value>> spans;
    Value lo, hi;
  };
  for (const Value stride : {Value{1}, Value{37}, Value{1} << 30}) {
    const Relation rels[2] = {GroupedRelation(stride, 5 + stride),
                              GroupedRelation(stride, 6 + stride)};
    Rng rng(static_cast<uint64_t>(stride));
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

    // Runs every call against indexes built under `policy`, checking
    // each count against the oracle; returns (count, probes) per call.
    auto run = [&](TierPolicy policy, const std::string& config) {
      const TrieIndex indexes[2] = {TrieIndex(rels[0], {}, policy),
                                    TrieIndex(rels[1], {}, policy)};
      LevelKeys standalone;
      standalone.Build(pool_subset, TierPolicy::kRawOnly,
                       /*compressible=*/true);
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
        EXPECT_EQ(got, expected) << config << " stride " << stride;
        out.push_back({got, work.probes});
      }
      return out;
    };

    const auto oracle = run(TierPolicy::kRawOnly, "raw-only");
    for (const TierPolicy policy :
         {TierPolicy::kAuto, TierPolicy::kForcePacked}) {
      const std::string config = TierPolicyName(policy);
      // Counts and probe counts alike are tier-blind.
      EXPECT_EQ(run(policy, config), oracle) << config << " stride "
                                             << stride;
    }
  }
}

// --- Layer 3: full-engine sweep, bit-identical results across configs ---

// Every engine answers each query per tier policy collecting tuples,
// which must match the raw-tier oracle bit for bit. The
// engines built on LFTJ (lftj, and hybrid's suffix joins) answer again
// count-only — the run shape every paper table and served query takes,
// where LFTJ counts its last GAO variable with one span intersection
// instead of binding it: that count must match the oracle too, and its
// seek counter must not move with the tier.
TEST(KernelTierDifferentialTest, EngineResultsIdenticalAcrossTiers) {
  TierPolicyGuard guard;
  Graph g = ErdosRenyi(/*num_nodes=*/220, /*num_edges=*/1100, /*seed=*/21);
  const Relation edge = g.EdgeRelationSymmetric();
  const Relation edge_lt = g.EdgeRelationOriented();
  const Relation node = g.NodeRelation();
  Relation third(1);  // every third node: a second unary atom
  for (Value v = 0; v < 220; v += 3) third.Add({v});
  third.Build();
  auto put_relations = [&](Database* db) {
    db->Put("edge", edge);
    db->Put("edge_lt", edge_lt);
    db->Put("node", node);
    db->Put("third", third);
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
  for (const auto& spec : queries) {
    const Query q = MustParseQuery(spec.text);
    for (const char* engine_name : {"lftj", "ms", "hybrid"}) {
      const auto engine = CreateEngine(engine_name);
      ASSERT_NE(engine, nullptr);
      const bool runs_lftj = std::string(engine_name) != "ms";
      ExecOptions collect;
      collect.collect_tuples = true;
      const ExecOptions count_only;

      // Oracle: raw tier.
      SetDefaultTierPolicy(TierPolicy::kRawOnly);
      uint64_t oracle_count;
      std::vector<Tuple> oracle_tuples;
      uint64_t oracle_seeks = 0;
      {
        Database db;
        put_relations(&db);
        ExecResult r = engine->Execute(Bind(q, db, spec.gao), collect);
        oracle_count = r.count;
        oracle_tuples = std::move(r.tuples);
        std::sort(oracle_tuples.begin(), oracle_tuples.end());
        if (runs_lftj) {
          const ExecResult c =
              engine->Execute(Bind(q, db, spec.gao), count_only);
          EXPECT_EQ(c.count, oracle_count)
              << engine_name << " " << spec.text;
          oracle_seeks = c.stats.seeks;
        }
      }
      ASSERT_GT(oracle_count, 0u) << spec.text;
      EXPECT_EQ(oracle_tuples.size(), oracle_count) << spec.text;

      for (const TierPolicy policy :
           {TierPolicy::kAuto, TierPolicy::kRawOnly,
            TierPolicy::kForcePacked}) {
        SetDefaultTierPolicy(policy);
        const std::string config = std::string(engine_name) + " " +
                                   spec.text + " " + TierPolicyName(policy);
        Database db;  // fresh catalog: indexes rebuilt under `policy`
        put_relations(&db);
        const BoundQuery bq = Bind(q, db, spec.gao);
        ExecResult r = engine->Execute(bq, collect);
        std::sort(r.tuples.begin(), r.tuples.end());
        EXPECT_EQ(r.count, oracle_count) << config;
        EXPECT_EQ(r.tuples, oracle_tuples) << config;

        if (!runs_lftj) continue;
        const ExecResult c = engine->Execute(bq, count_only);
        EXPECT_EQ(c.count, oracle_count) << config;
        EXPECT_EQ(c.stats.seeks, oracle_seeks) << config;

        if (std::string(engine_name) == "lftj") {
          // Morsels restrict the first variable to [var0_min,
          // var0_max]; on the one-variable query that range is the
          // counted window itself.
          const ExecResult p = PartitionedExecute(
              *engine, bq, count_only, /*num_threads=*/2,
              /*granularity=*/4);
          EXPECT_EQ(p.count, oracle_count) << config << " partitioned";
        }
      }
    }
  }
}

}  // namespace
}  // namespace wcoj
