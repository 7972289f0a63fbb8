#ifndef WCOJ_STORAGE_TRIE_H_
#define WCOJ_STORAGE_TRIE_H_

// TrieIndex: a level-wise CSR (columnar) trie over a Relation, standing
// in for the LogicBlox B-tree/trie index.
//
// For each trie depth d the index stores one contiguous array of the
// distinct keys at that depth (grouped by parent node, sorted within
// each group) plus a parallel child-offset array into depth d+1 — the
// classic CSR encoding. A node is (depth, index-into-that-level); its
// children occupy [ChildBegin(d, i), ChildEnd(d, i)) at depth d+1.
// Every hot operation therefore gallops over one contiguous key array
// per level instead of striding through row-major tuples, so a seek
// touches full cache lines of keys and hardware prefetch engages.
//
// Each level's key array lives behind a LevelKeys tier
// (storage/level_keys.h): raw int64 or 16-bit packed offsets, decided
// per level by its keys alone at build time. Seeks run through the one
// bound search (storage/search_kernels.h) in the tier's native lane
// width; iterators and engines stay layout-blind.
//
// The layout is built in a single pass over the (permutation-sorted)
// rows of the source relation — no intermediate permuted Relation copy
// is materialized, roughly halving peak build memory.
//
// Two access paths are provided:
//
//  * TrieIterator — the open/up/next/seek interface Leapfrog Triejoin is
//    written against (Veldhuizen '14, section 3).
//  * SeekGap — Minesweeper's probe (§4.5): given a projected tuple, either
//    confirm membership or return the maximal gap box around it via
//    greatest-lower-bound / least-upper-bound seeks.
//
// Seeks use galloping (exponential) search so a run of short moves costs
// amortized O(1 + log distance), which both algorithms' analyses assume.

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/intersect.h"
#include "storage/level_keys.h"
#include "storage/relation.h"
#include "util/mem_budget.h"
#include "util/status.h"
#include "util/value.h"

namespace wcoj {

class TrieIndex {
 public:
  // `perm[i]` = column of `rel` exposed at trie depth i. Identity if
  // empty; otherwise must be a full permutation of rel's columns. Each
  // level's key tier follows from its keys (LevelKeys::Build).
  // `budget`, when set, is charged (strictly, for the build's duration)
  // with the build's estimated peak footprint before any staging
  // allocation happens; a refusal — or the "trie.build" failpoint —
  // aborts the build, leaving an empty index whose build_status() is
  // non-OK. Callers must check build_ok() before installing or probing
  // a governed build.
  TrieIndex(const Relation& rel, std::vector<int> perm = {},
            MemoryBudget* budget = nullptr);

  // OK unless the build was aborted (budget refusal or injected
  // allocation failure). An aborted index is structurally a valid empty
  // trie but answers nothing — never use it for real queries.
  bool build_ok() const { return build_status_.ok(); }
  const Status& build_status() const { return build_status_; }

  int arity() const { return static_cast<int>(levels_.size()); }
  size_t size() const { return rows_; }  // leaf count == row count
  const std::vector<int>& perm() const { return perm_; }
  // True when the index is a zero-copy view over a mapped catalog file
  // (storage/persist.h); the mapping is owned by this index and dies
  // with it.
  bool mapped() const { return mmap_backing_ != nullptr; }

  // --- CSR level accessors ---

  // Number of trie nodes at `depth` (== distinct prefixes of length
  // depth+1). The deepest level has size() nodes.
  size_t LevelSize(int depth) const { return levels_[depth].keys.size(); }
  Value KeyAt(int depth, size_t node) const {
    return levels_[depth].keys.At(node);
  }
  // The level's key array behind its tier-blind accessor.
  const LevelKeys& Keys(int depth) const { return levels_[depth].keys; }
  // Tier introspection for tests, benches, and reports.
  KeyTier LevelTier(int depth) const { return levels_[depth].keys.tier(); }
  size_t LevelKeyBytes(int depth) const {
    return levels_[depth].keys.MemoryBytes();
  }
  // Children of node (depth, node) at depth+1; requires depth < arity-1.
  size_t ChildBegin(int depth, size_t node) const {
    return levels_[depth].child[node];
  }
  size_t ChildEnd(int depth, size_t node) const {
    return levels_[depth].child[node + 1];
  }

  // Least node index in [lo, hi) at `depth` whose key is >= v
  // (LowerBound) resp. > v (UpperBound), galloping from lo through the
  // level's LevelKeys. Used by the iterator and the baseline probe path;
  // exposed for tests.
  size_t LowerBound(int depth, size_t lo, size_t hi, Value v) const {
    return levels_[depth].keys.LowerBound(lo, hi, v);
  }
  size_t UpperBound(int depth, size_t lo, size_t hi, Value v) const {
    return levels_[depth].keys.UpperBound(lo, hi, v);
  }

  // Min/max value of trie column `col` (a real system reads these from
  // index metadata). Level 0 is an O(1) read of the key array's ends;
  // deeper levels are one contiguous scan over that level's distinct
  // keys. Computed lazily on first use — thread-safe, and cold builds
  // that never read them skip the scan — then cached for the index's
  // lifetime. kPosInf/kNegInf when empty.
  Value ColMin(int col) const {
    EnsureColStats();
    return col_min_[col];
  }
  Value ColMax(int col) const {
    EnsureColStats();
    return col_max_[col];
  }

  // Skew-aware quantile split points over the level-0 key array, for
  // the morsel scheduler's var0 range selection. Returns at most k-1
  // strictly increasing resident values s_1 < ... < s_m such that the
  // k ranges (-inf, s_1], (s_1, s_2], ..., (s_m, +inf) carry roughly
  // equal weight, where a key's weight is its direct child count (its
  // subtree breadth) for arity > 1 and 1 for unary tries. On power-law
  // data the breadth weighting keeps hub keys from leaving one range
  // with most of the tuples, which plain key-count quantiles would.
  // Fewer than k-1 values come back when one key alone swallows several
  // quantiles (an extreme hub) or the level has fewer keys than ranges.
  std::vector<Value> SplitPoints(int k) const;

  struct GapProbe {
    bool found = false;  // the whole tuple is present
    int fail_pos = 0;    // first trie depth where the prefix left the index
    Value glb = kNegInf;  // greatest indexed value < t[fail_pos] under prefix
    Value lub = kPosInf;  // least indexed value > t[fail_pos] under prefix
  };

  // Probes a full tuple over this index's columns (already in trie order).
  // One gallop per level over that level's contiguous key array. Counts
  // seeks into *seek_counter when provided.
  GapProbe SeekGap(const Tuple& t, uint64_t* seek_counter = nullptr) const;

 public:
  // Child offsets are 32-bit: a level never holds more nodes than the
  // relation has rows, and 4-byte offsets keep the CSR arrays dense.
  // (Public: the on-disk format in storage/persist.* stores them.)
  using Offset = uint32_t;

 private:
  struct Level {
    LevelKeys keys;             // distinct keys, grouped by parent
    const Offset* child = nullptr;  // keys.size()+1 offsets into the next
                                    // level; null at the deepest level
    std::vector<Offset> child_store;  // owned backing; empty when mapped
  };

  // Assembled field-by-field by the persist layer's mapper, which binds
  // every level to sections of an mmap'd file instead of building.
  TrieIndex() = default;
  friend class TrieIndexMapper;  // storage/persist.cc

  void EnsureColStats() const;

  std::vector<Level> levels_;  // levels_[d] = trie depth d
  size_t rows_ = 0;
  std::vector<int> perm_;
  Status build_status_;  // non-OK iff the build was aborted
  // Keeps the mapped file alive for view-backed indexes (type-erased so
  // this header does not depend on storage/persist.h).
  std::shared_ptr<const void> mmap_backing_;
  // Per-trie-column metadata; lazily filled under col_stats_once_.
  mutable std::once_flag col_stats_once_;
  mutable std::vector<Value> col_min_, col_max_;
};

// Cursor over a TrieIndex. Depth -1 is the virtual root; Open() descends,
// Up() ascends, Next()/Seek() move within the current level's key group.
// Keys within a group are distinct in the CSR layout, so Next() is a
// plain increment and Key() a contiguous array read.
class TrieIterator {
 public:
  explicit TrieIterator(const TrieIndex* index);

  int depth() const { return depth_; }
  bool AtEnd() const;
  Value Key() const;

  void Open();          // requires !AtEnd() at current depth (or root)
  void Up();            // requires depth >= 0
  void Next();          // requires !AtEnd()
  void Seek(Value v);   // least key >= v at current depth; may land AtEnd

  // The keys from the current position to the end of the current group
  // (right after Open(): the whole group), for counting intersections
  // over them without moving the iterator (storage/intersect.h).
  KeySpan Span() const {
    const Level& lv = levels_[depth_];
    return {&index_->Keys(depth_), lv.pos, lv.group_hi};
  }

  uint64_t seeks() const { return seeks_; }

 private:
  struct Level {
    size_t group_hi;  // one past the node range under the parent node
    size_t pos;       // current node at this depth
  };

  const TrieIndex* index_;
  int depth_;
  std::vector<Level> levels_;
  uint64_t seeks_ = 0;
};

}  // namespace wcoj

#endif  // WCOJ_STORAGE_TRIE_H_
