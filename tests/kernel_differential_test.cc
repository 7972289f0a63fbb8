// Differential test harness for the SIMD search kernels and the
// compressed key tiers (ISSUE 6).
//
// Layer 1 pins every dispatched kernel against a std::lower_bound /
// std::upper_bound oracle on thousands of seeded arrays per element
// type (int64 keys and the unsigned 8/16/32-bit lanes the packed tiers
// store), over the adversarial shape classes the trie produces:
// empty, single, all-duplicate, dense runs, clustered gaps, and
// int64-extreme domains (the PR 5 overflow class).
//
// Layer 2 pins every (kernel, tier) pair at the TrieIndex level: walk,
// Seek, and SeekGap results must be bit-identical to the raw-tier /
// scalar-kernel oracle on randomized relations.
//
// Layer 3 sweeps full engines (lftj, ms, hybrid) across tier policies
// and kernels and asserts bit-identical query results, and layer 4 pins
// dispatch transparency: forcing --kernel=scalar vs auto must leave
// EngineStats seek counters untouched on a fixed workload.

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

// Restores auto dispatch and the previous tier policy on scope exit so
// no test leaks a forced configuration into the rest of the suite.
struct DispatchGuard {
  TierPolicy prev_policy;
  DispatchGuard() : prev_policy(DefaultTierPolicy()) {}
  ~DispatchGuard() {
    ForceSearchKernel(KernelKind::kAuto);
    SetDefaultTierPolicy(prev_policy);
  }
};

constexpr TierPolicy kSweepPolicies[] = {TierPolicy::kRawOnly,
                                         TierPolicy::kForcePacked};

// --- Layer 1: kernel primitives vs the standard-library oracle ---

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
  DispatchGuard guard;
  const std::vector<std::vector<T>> corpus = BuildCorpus<T>(seed);
  ASSERT_GT(corpus.size(), 400u);  // "thousands" across the 4 types
  for (const KernelKind kernel : SupportedKernels()) {
    ASSERT_EQ(ForceSearchKernel(kernel), kernel);
    Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
    for (const std::vector<T>& a : corpus) {
      const size_t n = a.size();
      // Full range plus sub-ranges, so galloping from a nonzero lo and
      // clamping at an interior hi are both exercised.
      const size_t ranges[][2] = {
          {0, n}, {n / 3, n - n / 4}, {n / 2, n / 2}};
      for (const T v : ProbesFor(a, &rng)) {
        for (const auto& r : ranges) {
          const size_t lo = r[0], hi = std::max(r[0], r[1]);
          const size_t lb_oracle =
              std::lower_bound(a.begin() + lo, a.begin() + hi, v) -
              a.begin();
          const size_t ub_oracle =
              std::upper_bound(a.begin() + lo, a.begin() + hi, v) -
              a.begin();
          ASSERT_EQ(KernelLowerBound(a.data(), lo, hi, v), lb_oracle)
              << KernelName(kernel) << " n=" << n << " lo=" << lo
              << " hi=" << hi;
          ASSERT_EQ(KernelUpperBound(a.data(), lo, hi, v), ub_oracle)
              << KernelName(kernel) << " n=" << n << " lo=" << lo
              << " hi=" << hi;
        }
      }
    }
  }
}

TEST(KernelPrimitiveTest, Int64MatchesStdOracleOnEveryKernel) {
  RunPrimitiveDifferential<int64_t>(11);
}

TEST(KernelPrimitiveTest, U32MatchesStdOracleOnEveryKernel) {
  RunPrimitiveDifferential<uint32_t>(12);
}

TEST(KernelPrimitiveTest, U16MatchesStdOracleOnEveryKernel) {
  RunPrimitiveDifferential<uint16_t>(13);
}

TEST(KernelPrimitiveTest, U8MatchesStdOracleOnEveryKernel) {
  RunPrimitiveDifferential<uint8_t>(14);
}

// --- Layer 2: (kernel, tier) pairs vs the raw/scalar oracle index ---

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

TEST(KernelTierDifferentialTest, TrieMatchesRawScalarOracle) {
  DispatchGuard guard;
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
    ASSERT_EQ(ForceSearchKernel(KernelKind::kScalar), KernelKind::kScalar);
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
      for (const KernelKind kernel : SupportedKernels()) {
        ForceSearchKernel(kernel);
        const TrieObservations got = Observe(index, probes);
        EXPECT_EQ(got, oracle)
            << "trial " << trial << " kernel " << KernelName(kernel)
            << " tier policy " << TierPolicyName(policy);
      }
      ForceSearchKernel(KernelKind::kScalar);
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
TEST(SpanIntersectTest, CountMatchesOracleOnEveryKernelAndTier) {
  DispatchGuard guard;
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

    ForceSearchKernel(KernelKind::kScalar);
    const auto oracle = run(TierPolicy::kRawOnly, "raw-only/scalar");
    for (const TierPolicy policy :
         {TierPolicy::kAuto, TierPolicy::kRawOnly,
          TierPolicy::kForcePacked}) {
      for (const KernelKind kernel : SupportedKernels()) {
        ForceSearchKernel(kernel);
        const std::string config =
            std::string(TierPolicyName(policy)) + "/" + KernelName(kernel);
        // Counts and probe counts alike are configuration-blind.
        EXPECT_EQ(run(policy, config), oracle) << config << " stride "
                                               << stride;
      }
    }
  }
}

// --- Layer 3: full-engine sweep, bit-identical results across configs ---

// Every engine answers each query per (tier policy, kernel) collecting
// tuples, which must match the raw/scalar oracle bit for bit. The
// engines built on LFTJ (lftj, and hybrid's suffix joins) answer again
// count-only — the run shape every paper table and served query takes,
// where LFTJ counts its last GAO variable with one span intersection
// instead of binding it: that count must match the oracle too, and its
// seek counter must not move with the configuration.
TEST(KernelTierDifferentialTest, EngineResultsIdenticalAcrossKernelsAndTiers) {
  DispatchGuard guard;
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

      // Oracle: raw tier, scalar kernel.
      SetDefaultTierPolicy(TierPolicy::kRawOnly);
      ForceSearchKernel(KernelKind::kScalar);
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
        for (const KernelKind kernel : SupportedKernels()) {
          ForceSearchKernel(kernel);
          const std::string config = std::string(engine_name) + " " +
                                     spec.text + " " +
                                     TierPolicyName(policy) + "/" +
                                     KernelName(kernel);
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
}

// --- Layer 4: dispatch is transparent to the engines' cost model ---

// Forcing --kernel=scalar vs auto must change only how a lower bound is
// computed, never how many seeks an engine issues: the kernels are
// drop-in replacements below the counting layer. Regression-pins the
// dispatch seam on a fixed workload.
TEST(KernelDispatchTest, SeekCountersIdenticalScalarVsAuto) {
  DispatchGuard guard;
  SetDefaultTierPolicy(TierPolicy::kAuto);
  Graph g = ErdosRenyi(/*num_nodes=*/500, /*num_edges=*/3000, /*seed=*/33);
  const Relation edge_lt = g.EdgeRelationOriented();
  const Query q =
      MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  for (const char* engine_name : {"lftj", "ms"}) {
    const auto engine = CreateEngine(engine_name);
    EngineStats scalar_stats, auto_stats;
    uint64_t scalar_count = 0, auto_count = 0;
    {
      ForceSearchKernel(KernelKind::kScalar);
      Database db;
      db.Put("edge_lt", edge_lt);
      ExecResult r =
          engine->Execute(Bind(q, db, {"a", "b", "c"}), ExecOptions{});
      scalar_stats = r.stats;
      scalar_count = r.count;
    }
    {
      const KernelKind best = ForceSearchKernel(KernelKind::kAuto);
      SCOPED_TRACE(std::string("auto kernel resolved to ") +
                   KernelName(best));
      Database db;
      db.Put("edge_lt", edge_lt);
      ExecResult r =
          engine->Execute(Bind(q, db, {"a", "b", "c"}), ExecOptions{});
      auto_stats = r.stats;
      auto_count = r.count;
    }
    EXPECT_EQ(scalar_count, auto_count) << engine_name;
    EXPECT_EQ(scalar_stats.seeks, auto_stats.seeks) << engine_name;
    EXPECT_EQ(scalar_stats.free_tuples, auto_stats.free_tuples)
        << engine_name;
    EXPECT_EQ(scalar_stats.constraints_inserted,
              auto_stats.constraints_inserted)
        << engine_name;
  }
}

// --- Dispatch plumbing: names, support, forcing ---

TEST(KernelDispatchTest, NamesRoundTripAndSupportIsSane) {
  DispatchGuard guard;
  for (const KernelKind k :
       {KernelKind::kScalar, KernelKind::kSse4, KernelKind::kAvx2,
        KernelKind::kNeon, KernelKind::kAuto}) {
    KernelKind parsed;
    ASSERT_TRUE(ParseKernelName(KernelName(k), &parsed));
    EXPECT_EQ(parsed, k);
  }
  KernelKind parsed;
  EXPECT_FALSE(ParseKernelName("avx512", &parsed));
  EXPECT_FALSE(ParseKernelName("", &parsed));

  const std::vector<KernelKind> supported = SupportedKernels();
  ASSERT_FALSE(supported.empty());
  EXPECT_EQ(supported.front(), KernelKind::kScalar);
  for (const KernelKind k : supported) EXPECT_TRUE(KernelSupported(k));

  // Forcing resolves to a concrete supported kind, and auto picks the
  // best one, which must itself be supported.
  const KernelKind best = ForceSearchKernel(KernelKind::kAuto);
  EXPECT_NE(best, KernelKind::kAuto);
  EXPECT_TRUE(KernelSupported(best));
  EXPECT_EQ(ActiveSearchKernel(), best);
  EXPECT_EQ(ForceSearchKernel(KernelKind::kScalar), KernelKind::kScalar);
  EXPECT_EQ(ActiveSearchKernel(), KernelKind::kScalar);
}

}  // namespace
}  // namespace wcoj
