#ifndef WCOJ_TESTS_CDS_REFERENCE_H_
#define WCOJ_TESTS_CDS_REFERENCE_H_

// The pre-arena, pointer-based CDS implementation, kept verbatim (modulo
// header-only inlining) as a reference oracle: tests/cds_differential_test.cc
// replays identical constraint / free-tuple workloads through this
// implementation and the arena one and requires bit-identical frontier
// sequences and counters.
//
// Every node is a separate std::make_unique heap object owning a
// std::vector pointList; interval merges free subtrees through recursive
// unique_ptr destruction — exactly the allocator-bound behaviour the
// arena refactor (src/core/cds_arena.h) removed. Do not "fix" or tune
// this copy: its value is being the faithful baseline.
//
// Also defined here: DriveCdsWorkload, the deterministic engine-shaped
// workload the differential test runs against either implementation;
// bench/micro_storage.cc runs it against the arena one only.

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/constraint.h"
#include "util/rng.h"
#include "util/value.h"

namespace wcoj {
namespace cdsref {

class CdsNode {
 public:
  struct Entry {
    Value v;
    bool left = false;
    bool right = false;
    std::unique_ptr<CdsNode> child;
  };

  CdsNode(CdsNode* parent, Value label, uint64_t id)
      : parent_(parent), label_(label), id_(id) {}

  CdsNode(const CdsNode&) = delete;
  CdsNode& operator=(const CdsNode&) = delete;

  Value Next(Value x) const {
    const size_t i = LowerBound(x);
    if (i < entries_.size() && entries_[i].v == x) return x;
    if (i > 0 && entries_[i - 1].left) {
      assert(i < entries_.size() && entries_[i].right);
      return entries_[i].v;
    }
    return x;
  }

  bool HasNoFreeValue() const { return Next(-1) == kPosInf; }

  void InsertInterval(Value l, Value r) {
    assert(l < r);
    {
      const size_t i = LowerBound(l);
      if (i < entries_.size() && entries_[i].v == l) {
        if (entries_[i].left) {
          assert(i + 1 < entries_.size() && entries_[i + 1].right);
          r = std::max(r, entries_[i + 1].v);
        }
      } else if (i > 0 && entries_[i - 1].left) {
        assert(i < entries_.size() && entries_[i].right);
        l = entries_[i - 1].v;
        r = std::max(r, entries_[i].v);
      }
    }
    {
      const size_t j = LowerBound(r);
      if (!(j < entries_.size() && entries_[j].v == r) && j > 0 &&
          entries_[j - 1].left) {
        assert(j < entries_.size() && entries_[j].right);
        r = entries_[j].v;
      }
    }
    {
      size_t b = LowerBound(l);
      if (b < entries_.size() && entries_[b].v == l) ++b;
      const size_t e = LowerBound(r);
      for (size_t k = b; k < e; ++k) {
        if (entries_[k].left) --left_count_;
      }
      entries_.erase(entries_.begin() + b, entries_.begin() + e);
    }
    auto ensure = [&](Value v) -> Entry& {
      const size_t i = LowerBound(v);
      if (i < entries_.size() && entries_[i].v == v) return entries_[i];
      return *entries_.insert(entries_.begin() + i,
                              Entry{v, false, false, {}});
    };
    ensure(r).right = true;
    Entry& le = ensure(l);
    if (!le.left) {
      le.left = true;
      ++left_count_;
    }
  }

  CdsNode* Child(Value v) const {
    const size_t i = LowerBound(v);
    if (i < entries_.size() && entries_[i].v == v) {
      return entries_[i].child.get();
    }
    return nullptr;
  }

  CdsNode* EnsureChild(Value v, uint64_t* id_counter) {
    const size_t i = LowerBound(v);
    if (i < entries_.size() && entries_[i].v == v) {
      if (entries_[i].child == nullptr) {
        entries_[i].child = std::make_unique<CdsNode>(this, v, ++*id_counter);
      }
      return entries_[i].child.get();
    }
    if (i > 0 && entries_[i - 1].left) return nullptr;
    auto it =
        entries_.insert(entries_.begin() + i, Entry{v, false, false, {}});
    it->child = std::make_unique<CdsNode>(this, v, ++*id_counter);
    return it->child.get();
  }

  CdsNode* wildcard_child() const { return wildcard_child_.get(); }
  CdsNode* EnsureWildcardChild(uint64_t* id_counter) {
    if (wildcard_child_ == nullptr) {
      wildcard_child_ =
          std::make_unique<CdsNode>(this, kWildcard, ++*id_counter);
    }
    return wildcard_child_.get();
  }

  bool has_intervals() const { return left_count_ > 0; }

  Value FirstEntryGe(Value x) const {
    const size_t i = LowerBound(x);
    return i < entries_.size() ? entries_[i].v : kPosInf;
  }

  uint64_t CountEntriesGe(Value x) const {
    size_t i = LowerBound(x);
    uint64_t n = entries_.size() - i;
    if (n > 0 && entries_.back().v == kPosInf) --n;
    return n;
  }

  CdsNode* parent() const { return parent_; }
  Value label() const { return label_; }
  uint64_t id() const { return id_; }

  bool complete() const { return complete_; }
  void NoteExhaustedRotation() {
    if (++exhausted_rotations_ >= 2) complete_ = true;
  }

  const std::vector<Entry>& entries() const { return entries_; }
  size_t NumIntervals() const { return left_count_; }

 private:
  size_t LowerBound(Value v) const {
    size_t lo = 0, hi = entries_.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (entries_[mid].v < v) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  CdsNode* parent_;
  Value label_;
  uint64_t id_;
  std::vector<Entry> entries_;
  std::unique_ptr<CdsNode> wildcard_child_;
  size_t left_count_ = 0;
  int exhausted_rotations_ = 0;
  bool complete_ = false;
};

class Cds {
 public:
  struct Options {
    bool idea6_complete_nodes = true;
    std::vector<bool> completeness_blocked;
  };

  Cds(int num_vars, const Options& options)
      : num_vars_(num_vars), options_(options) {
    assert(num_vars >= 1 && num_vars < 63);
    root_ = std::make_unique<CdsNode>(nullptr, kWildcard, ++id_counter_);
    frontier_.assign(num_vars_, kFrontierFloor);
    rotations_.resize(num_vars_);
  }

  void SetFrontier(const Tuple& t) {
    assert(static_cast<int>(t.size()) == num_vars_);
    frontier_ = t;
  }

  bool InsertConstraint(const Constraint& c) {
    assert(c.depth() < num_vars_);
    assert(c.lo < c.hi);
    CdsNode* node = root_.get();
    for (const Value p : c.pattern) {
      node = p == kWildcard ? node->EnsureWildcardChild(&id_counter_)
                            : node->EnsureChild(p, &id_counter_);
      if (node == nullptr) return false;
    }
    node->InsertInterval(c.lo, c.hi);
    ++constraints_inserted_;
    return true;
  }

  bool ComputeFreeTuple() {
    depth_ = 0;
    std::vector<ChainNode> chain;
    for (;;) {
      if (depth_ < 0) return false;
      bool is_chain = true;
      Gather(depth_, &chain, &is_chain);
      bool chain_mode = is_chain;
      if (!is_chain) {
        CdsNode* exact = EnsureExactNode(depth_);
        if (exact != nullptr &&
            (chain.empty() || chain.front().node != exact)) {
          const uint64_t full_mask =
              depth_ == 0 ? 0 : ((uint64_t{1} << depth_) - 1);
          chain.insert(chain.begin(), {exact, full_mask});
        }
      }

      const Value x = frontier_[depth_];
      CdsNode* bottom = chain.empty() ? nullptr : chain.front().node;
      const bool completeness_ok =
          options_.idea6_complete_nodes &&
          (options_.completeness_blocked.empty() ||
           !options_.completeness_blocked[depth_]);
      if (chain_mode && bottom != nullptr && completeness_ok) {
        Rotation& rot = rotations_[depth_];
        if (x == kFrontierFloor) {
          rot.bottom_id = bottom->id();
          rot.valid = true;
        } else if (rot.bottom_id != bottom->id()) {
          rot.valid = false;
        }
      }

      complete_shortcut_ok_ = completeness_ok;
      const Value y =
          chain.empty() ? x : GetFreeValue(x, chain, 0, chain_mode).y;
      if (y == kPosInf) {
        if (chain_mode && bottom != nullptr && completeness_ok &&
            rotations_[depth_].valid &&
            rotations_[depth_].bottom_id == bottom->id()) {
          bottom->NoteExhaustedRotation();
        }
        CdsNode* dead = nullptr;
        for (const ChainNode& cn : chain) {
          if (cn.node->HasNoFreeValue()) {
            dead = cn.node;
            break;
          }
        }
        if (dead != nullptr) {
          Truncate(dead);
        } else {
          --depth_;
          if (depth_ >= 0) ++frontier_[depth_];
        }
        for (int i = depth_ + 1; i < num_vars_; ++i) {
          frontier_[i] = kFrontierFloor;
        }
        continue;
      }

      if (y > x) {
        for (int i = depth_ + 1; i < num_vars_; ++i) {
          frontier_[i] = kFrontierFloor;
        }
      }
      frontier_[depth_] = y;
      if (depth_ == num_vars_ - 1) return true;
      ++depth_;
    }
  }

  const Tuple& frontier() const { return frontier_; }

  uint64_t DrainCompleteLastLevel(uint64_t required_mask) {
    const int d = num_vars_ - 1;
    std::vector<ChainNode> chain;
    bool is_chain;
    Gather(d, &chain, &is_chain);
    if (!is_chain || chain.empty()) return 0;
    if ((required_mask & ~chain.front().eq_mask) != 0) return 0;
    CdsNode* bottom = chain.front().node;
    if (!bottom->complete()) return 0;
    const uint64_t k = bottom->CountEntriesGe(frontier_[d] + 1);
    counted_outputs_ += k;
    frontier_[d] = kPosInf;
    return k;
  }

  uint64_t constraints_inserted() const { return constraints_inserted_; }
  uint64_t counted_outputs() const { return counted_outputs_; }

 private:
  static constexpr Value kFrontierFloor = -1;

  struct ChainNode {
    CdsNode* node;
    uint64_t eq_mask;
  };

  void Gather(int depth, std::vector<ChainNode>* out, bool* is_chain) {
    std::vector<ChainNode> cur = {{root_.get(), 0}};
    std::vector<ChainNode> next;
    for (int d = 0; d < depth; ++d) {
      next.clear();
      for (const ChainNode& cn : cur) {
        if (CdsNode* w = cn.node->wildcard_child()) {
          next.push_back({w, cn.eq_mask});
        }
        if (CdsNode* c = cn.node->Child(frontier_[d])) {
          next.push_back({c, cn.eq_mask | (uint64_t{1} << d)});
        }
      }
      cur.swap(next);
    }
    out->clear();
    for (const ChainNode& cn : cur) {
      if (cn.node->has_intervals()) out->push_back(cn);
    }
    std::sort(out->begin(), out->end(),
              [](const ChainNode& a, const ChainNode& b) {
                return std::popcount(a.eq_mask) > std::popcount(b.eq_mask);
              });
    *is_chain = true;
    for (size_t i = 0; i + 1 < out->size(); ++i) {
      if (((*out)[i].eq_mask & (*out)[i + 1].eq_mask) !=
          (*out)[i + 1].eq_mask) {
        *is_chain = false;
        break;
      }
    }
  }

  CdsNode* EnsureExactNode(int depth) {
    CdsNode* node = root_.get();
    for (int d = 0; d < depth && node != nullptr; ++d) {
      node = node->EnsureChild(frontier_[d], &id_counter_);
    }
    return node;
  }

  struct FreeValue {
    Value y;
    bool backtracked;
  };
  FreeValue GetFreeValue(Value x, const std::vector<ChainNode>& chain,
                         size_t i, bool chain_mode) {
    if (i >= chain.size()) return {x, false};
    CdsNode* u = chain[i].node;
    if (chain_mode && complete_shortcut_ok_ && i == 0 && u->complete()) {
      return {u->FirstEntryGe(x), false};
    }
    Value y = x;
    for (;;) {
      const Value y1 = u->Next(y);
      if (y1 == kPosInf) {
        y = kPosInf;
        break;
      }
      const FreeValue rest = GetFreeValue(y1, chain, i + 1, chain_mode);
      if (rest.y == y1) {
        y = y1;
        break;
      }
      y = rest.y;
    }
    if ((chain_mode || i == 0) && x != kNegInf && x - 1 < y) {
      u->InsertInterval(x - 1, y);
    }
    return {y, false};
  }

  void Truncate(CdsNode* u) {
    for (;;) {
      --depth_;
      if (depth_ < 0) return;
      CdsNode* parent = u->parent();
      assert(parent != nullptr);
      if (u->label() != kWildcard) {
        const Value x = u->label();
        parent->InsertInterval(x - 1, x + 1);
        return;
      }
      u = parent;
    }
  }

  int num_vars_;
  Options options_;
  uint64_t id_counter_ = 0;
  std::unique_ptr<CdsNode> root_;
  Tuple frontier_;
  int depth_ = 0;
  uint64_t constraints_inserted_ = 0;
  uint64_t counted_outputs_ = 0;
  bool complete_shortcut_ok_ = true;

  struct Rotation {
    uint64_t bottom_id = 0;
    bool valid = false;
  };
  std::vector<Rotation> rotations_;
};

}  // namespace cdsref

// ---------------------------------------------------------------------------
// Shared deterministic workload driver.

struct CdsWorkloadResult {
  std::vector<Tuple> frontiers;  // every free tuple (iff collect_frontiers)
  uint64_t num_frontiers = 0;    // always counted
  uint64_t frontier_hash = 0;    // FNV-1a over the full sequence
  uint64_t inserted = 0;         // accepted constraint inserts
  uint64_t counted = 0;          // DrainCompleteLastLevel tallies
};

// What DriveCdsWorkload does around a verified output.
enum class CdsDrain {
  // Never drains: plain Minesweeper reports every output through the
  // frontier.
  kNever,
  // #Minesweeper's best case: gaps constrain only the prefix (depths
  // before the last), and once a prefix has passed its first free tuple
  // every later free tuple under it is an output. Last-level sweeps then
  // finish under a stable bottom node, which earns completeness, and the
  // drain fires. Needs num_vars >= 3.
  kCountMode,
};

// Drives one CDS implementation through an engine-shaped loop: compute a
// free tuple, then either report it (advance the moving frontier past it,
// occasionally draining the last level like #Minesweeper) or insert
// gap-box constraints around it. Patterns are derived from the frontier
// prefix the way MakeConstraint lifts atom-local gaps: `chain_only`
// produces prefix-equality patterns (masks nest -> chain regime), and
// otherwise arbitrary equality subsets (the §4.8 poset regime, the shape
// cyclic queries produce without Idea 7). Values come from a skewed
// (NextBounded-of-NextBounded) distribution so shallow branches carry
// long runs, mirroring graph degree skew. Fully deterministic per seed.
//
// CdsT needs: InsertConstraint, ComputeFreeTuple, frontier, SetFrontier,
// DrainCompleteLastLevel, constraints_inserted, counted_outputs — the
// shared surface of wcoj::Cds and wcoj::cdsref::Cds.
//
// `collect_frontiers` materializes the full free-tuple sequence for the
// differential test's exact diffing; the benchmark passes false so the
// timed region is pure CDS work (the hash still pins the sequence).
// `drain` picks the output handling (CdsDrain); every mode rolls the
// same dice, so the random stream does not depend on it.
// `off_frontier` adds two moves the engine makes and the plain workload
// does not: some patterns bind a value off the frontier (a gap box whose
// equality no longer matches the moved prefix, which must not disturb
// the current search), and some gap rounds end with an Idea-7-style jump
// that advances a shallow coordinate and resets the deeper ones. Its
// extra dice are rolled only when it is set, so the plain workload's
// random stream does not depend on it.
template <class CdsT>
CdsWorkloadResult DriveCdsWorkload(CdsT* cds, int num_vars, uint64_t seed,
                                   int max_free_tuples, bool chain_only,
                                   Value domain, bool collect_frontiers,
                                   CdsDrain drain, bool off_frontier = false) {
  assert(drain != CdsDrain::kCountMode || num_vars >= 3);
  Rng rng(seed);
  CdsWorkloadResult result;
  auto skewed = [&](Value bound) -> Value {
    return static_cast<Value>(
        rng.NextBounded(rng.NextBounded(static_cast<uint64_t>(bound)) + 1));
  };
  // Domain bounds at every depth (what InsertDomainBounds derives from
  // index metadata): keeps the lattice finite so exhaustion, truncation
  // and backtracking all get exercised.
  for (int d = 0; d < num_vars; ++d) {
    Constraint lo, hi;
    lo.pattern.assign(d, kWildcard);
    lo.lo = kNegInf;
    lo.hi = 0;
    hi.pattern.assign(d, kWildcard);
    hi.lo = domain - 1;
    hi.hi = kPosInf;
    if (cds->InsertConstraint(lo)) ++result.inserted;
    if (cds->InsertConstraint(hi)) ++result.inserted;
  }
  Tuple advance;  // reused advance buffer: no per-tuple allocation
  Tuple prev;     // the previous free tuple (kCountMode only)
  while (static_cast<int>(result.num_frontiers) < max_free_tuples &&
         cds->ComputeFreeTuple()) {
    const Tuple& t = cds->frontier();
    ++result.num_frontiers;
    for (Value v : t) {  // FNV-1a over the sequence
      result.frontier_hash =
          (result.frontier_hash ^ static_cast<uint64_t>(v)) * 1099511628211u;
    }
    if (collect_frontiers) result.frontiers.push_back(t);
    const bool continues_prefix =
        drain == CdsDrain::kCountMode && !prev.empty() &&
        std::equal(t.begin(), t.end() - 1, prev.begin());
    if (drain == CdsDrain::kCountMode) prev = t;
    if (rng.NextBounded(4) == 0 || continues_prefix) {
      // "Verified output": drain the completed class (Idea 8) when the
      // dice say so, else advance the moving frontier past the output
      // (Idea 2) — a fired drain already exhausted the class, exactly
      // like the engine's handling.
      uint64_t drained = 0;
      if (rng.NextBounded(4) == 0 && drain != CdsDrain::kNever) {
        drained = cds->DrainCompleteLastLevel(0);
        result.counted += drained;
      }
      if (drained == 0) {
        if (t.back() == kPosInf) break;
        advance = t;
        ++advance.back();
        cds->SetFrontier(advance);
      }
      continue;
    }
    // "Gap probes hit": insert 1-3 constraints shaped around the free
    // tuple, exactly how §4.5 lifts atom gaps to global constraints.
    // Every pattern binds at least one frontier equality and intervals
    // are narrow (gap boxes from skewed atoms constrain the current
    // prefix's subspace, not whole attribute bands), so the frontier
    // grinds through the lattice prefix by prefix — the sustained
    // insert / merge / truncate churn the arena targets.
    const int k = 1 + static_cast<int>(rng.NextBounded(3));
    for (int j = 0; j < k; ++j) {
      int depth = 1 + static_cast<int>(rng.NextBounded(num_vars - 1));
      if (drain == CdsDrain::kCountMode) depth = std::min(depth, num_vars - 2);
      Constraint c;
      c.pattern.assign(depth, kWildcard);
      if (chain_only) {
        // Equalities on a frontier prefix: masks nest across inserts.
        const int eq = 1 + static_cast<int>(rng.NextBounded(depth));
        for (int d = 0; d < eq; ++d) c.pattern[d] = t[d];
      } else {
        // Arbitrary equality subset: incomparable masks -> poset.
        const int forced = static_cast<int>(rng.NextBounded(depth));
        for (int d = 0; d < depth; ++d) {
          if (d == forced || rng.NextBounded(2) == 0) c.pattern[d] = t[d];
        }
      }
      const Value center = t[depth] < 0 ? 0 : t[depth];
      c.lo = center - 1 - skewed(domain / 16 + 2);
      c.hi = center + 1 + skewed(domain / 16 + 2);
      if (off_frontier && rng.NextBounded(3) == 0) {
        // Move one bound equality off the frontier value.
        const int d = static_cast<int>(rng.NextBounded(depth));
        if (c.pattern[d] != kWildcard) c.pattern[d] = t[d] + 1 + skewed(4);
      }
      if (cds->InsertConstraint(c)) ++result.inserted;
    }
    if (off_frontier && rng.NextBounded(4) == 0) {
      // Idea 7: a non-skeleton gap advances a shallow coordinate past
      // values the CDS never sees, and the deeper ones restart.
      const int d = static_cast<int>(rng.NextBounded(num_vars - 1));
      advance = t;
      advance[d] += 1 + skewed(3);
      std::fill(advance.begin() + d + 1, advance.end(), Value{-1});
      cds->SetFrontier(advance);
    }
  }
  assert(result.inserted == cds->constraints_inserted());
  assert(result.counted == cds->counted_outputs());
  return result;
}

}  // namespace wcoj

#endif  // WCOJ_TESTS_CDS_REFERENCE_H_
