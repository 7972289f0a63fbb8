#include "storage/trie.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "util/failpoint.h"

namespace wcoj {

TrieIndex::TrieIndex(const Relation& rel, std::vector<int> perm,
                     MemoryBudget* budget)
    : perm_(std::move(perm)) {
  assert(rel.built());
  const int arity = rel.arity();
  if (perm_.empty()) {
    perm_.resize(arity);
    for (int i = 0; i < arity; ++i) perm_[i] = i;
  }
  assert(static_cast<int>(perm_.size()) == arity);
  levels_.resize(arity);
  const size_t n = rel.size();
  assert(n < std::numeric_limits<Offset>::max());

  // Governed build: reserve the estimated peak footprint (raw key
  // staging + child offsets, the dominant terms) strictly before any
  // staging vector grows. The charge covers only the build — resident
  // catalog indexes are process memory, shared across queries, and are
  // not billed to whichever query happened to build them first.
  static FailPoint& build_fp = FailPoints::Register("trie.build");
  ScopedCharge build_charge(budget);
  const uint64_t build_estimate =
      uint64_t{n} * (8u * static_cast<unsigned>(arity) + 8u) + 4096;
  if (WCOJ_FAILPOINT(build_fp)) {
    build_status_ = Status(StatusCode::kResourceExhausted,
                           "trie build: injected allocation failure "
                           "(failpoint trie.build)");
    return;
  }
  if (!build_charge.TryCharge(build_estimate)) {
    build_status_ = Status(StatusCode::kBudgetExceeded,
                           "trie build over memory budget");
    return;
  }

  bool identity = true;
  for (int i = 0; i < arity; ++i) identity &= perm_[i] == i;

  // Row visit order under the permutation. The relation's own sort is
  // already the identity order; otherwise sort row indices — the rows
  // themselves are never copied.
  std::vector<Offset> order;
  if (!identity) {
    order.resize(n);
    for (size_t i = 0; i < n; ++i) order[i] = static_cast<Offset>(i);
    std::sort(order.begin(), order.end(), [&](Offset a, Offset b) {
      for (int d = 0; d < arity; ++d) {
        const Value va = rel.At(a, perm_[d]);
        const Value vb = rel.At(b, perm_[d]);
        if (va != vb) return va < vb;
      }
      return false;
    });
  }

  // Single pass over the sorted rows: the first depth whose value
  // differs from the previous row's opens a fresh node there and at
  // every deeper depth. Appending a node at depth d records its
  // child-range start — the next level's size at that moment. Keys are
  // staged raw per level, then handed to each level's tier encoder.
  std::vector<std::vector<Value>> raw_keys(arity);
  raw_keys[arity - 1].reserve(n);
  Tuple cur(arity), prev(arity);
  for (size_t i = 0; i < n; ++i) {
    const size_t row = identity ? i : order[i];
    for (int d = 0; d < arity; ++d) cur[d] = rel.At(row, perm_[d]);
    int d = 0;
    if (i > 0) {
      while (d < arity && cur[d] == prev[d]) ++d;
      // The source relation is duplicate-free and perm_ is a full
      // permutation, so consecutive rows always differ somewhere.
      assert(d < arity);
    }
    for (; d < arity; ++d) {
      if (d + 1 < arity) {
        levels_[d].child_store.push_back(
            static_cast<Offset>(raw_keys[d + 1].size()));
      }
      raw_keys[d].push_back(cur[d]);
    }
    cur.swap(prev);
  }
  // Close every node's child range with the final sentinel offset.
  for (int d = 0; d + 1 < arity; ++d) {
    levels_[d].child_store.push_back(
        static_cast<Offset>(raw_keys[d + 1].size()));
  }
  rows_ = raw_keys[arity - 1].size();
  assert(rows_ == n);

  // Per-level tier selection. Degenerate shapes — empty tries and
  // arity-1 relations (leaf-only probe structures whose every read is a
  // decode, and the morsel scheduler's SplitPoints input) — stay raw.
  const bool compressible = rows_ > 0 && arity > 1;
  for (int d = 0; d < arity; ++d) {
    levels_[d].keys.Build(std::move(raw_keys[d]), compressible);
    if (d + 1 < arity) levels_[d].child = levels_[d].child_store.data();
  }
}

void TrieIndex::EnsureColStats() const {
  std::call_once(col_stats_once_, [this] {
    col_min_.assign(arity(), kPosInf);
    col_max_.assign(arity(), kNegInf);
    if (rows_ == 0) return;
    // Level 0 is globally sorted; deeper levels scan their (distinct,
    // contiguous) key array, never the full row set.
    col_min_[0] = levels_[0].keys.At(0);
    col_max_[0] = levels_[0].keys.At(levels_[0].keys.size() - 1);
    for (int c = 1; c < arity(); ++c) {
      const LevelKeys& keys = levels_[c].keys;
      for (size_t i = 0; i < keys.size(); ++i) {
        const Value v = keys.At(i);
        col_min_[c] = std::min(col_min_[c], v);
        col_max_[c] = std::max(col_max_[c], v);
      }
    }
  });
}

std::vector<Value> TrieIndex::SplitPoints(int k) const {
  std::vector<Value> splits;
  // Degenerate guards: nothing to split with one range, no rows, or a
  // single level-0 key (the tail range must stay non-empty).
  if (k <= 1 || rows_ == 0) return splits;
  const LevelKeys& keys = levels_[0].keys;
  const size_t n = keys.size();
  if (n < 2) return splits;
  const Offset* child = arity() > 1 ? levels_[0].child : nullptr;
  const uint64_t total = child != nullptr ? child[n] : n;
  // One pass accumulating weight; key i becomes a split point when the
  // cumulative weight first reaches the next quantile target. total and
  // k both fit comfortably below 2^32, so total * j stays in uint64.
  uint64_t cum = 0;
  uint64_t j = 1;
  const uint64_t parts = static_cast<uint64_t>(k);
  for (size_t i = 0; i + 1 < n && j < parts; ++i) {
    cum += child != nullptr ? child[i + 1] - child[i] : 1;
    if (cum * parts >= total * j) {
      splits.push_back(keys.At(i));
      // A hub key can swallow several quantiles; emit it once and skip
      // every target it already satisfies.
      while (j < parts && cum * parts >= total * j) ++j;
    }
  }
  return splits;
}

TrieIndex::GapProbe TrieIndex::SeekGap(const Tuple& t,
                                       uint64_t* seek_counter) const {
  assert(static_cast<int>(t.size()) == arity());
  GapProbe probe;
  size_t lo = 0, hi = LevelSize(0);
  for (int d = 0; d < arity(); ++d) {
    if (seek_counter != nullptr) ++*seek_counter;
    const LevelKeys& keys = levels_[d].keys;
    const size_t p = keys.LowerBound(lo, hi, t[d]);
    if (p == hi || keys.At(p) != t[d]) {
      // t[d] absent under this prefix: the gap is (glb, lub) at depth d.
      probe.found = false;
      probe.fail_pos = d;
      probe.glb = p > lo ? keys.At(p - 1) : kNegInf;
      probe.lub = p < hi ? keys.At(p) : kPosInf;
      return probe;
    }
    if (d + 1 < arity()) {
      lo = ChildBegin(d, p);
      hi = ChildEnd(d, p);
    }
  }
  probe.found = true;
  probe.fail_pos = arity();
  return probe;
}

TrieIterator::TrieIterator(const TrieIndex* index)
    : index_(index), depth_(-1) {
  levels_.reserve(index->arity());
}

bool TrieIterator::AtEnd() const {
  assert(depth_ >= 0);
  const Level& lv = levels_[depth_];
  return lv.pos >= lv.group_hi;
}

Value TrieIterator::Key() const {
  assert(depth_ >= 0 && !AtEnd());
  return index_->KeyAt(depth_, levels_[depth_].pos);
}

void TrieIterator::Open() {
  size_t lo, hi;
  if (depth_ < 0) {
    lo = 0;
    hi = index_->LevelSize(0);
  } else {
    assert(!AtEnd());
    lo = index_->ChildBegin(depth_, levels_[depth_].pos);
    hi = index_->ChildEnd(depth_, levels_[depth_].pos);
  }
  ++depth_;
  if (static_cast<size_t>(depth_) >= levels_.size()) levels_.emplace_back();
  Level& lv = levels_[depth_];
  lv.group_hi = hi;
  lv.pos = lo;
}

void TrieIterator::Up() {
  assert(depth_ >= 0);
  --depth_;
}

void TrieIterator::Next() {
  assert(!AtEnd());
  ++levels_[depth_].pos;  // keys at a level are distinct under one parent
}

void TrieIterator::Seek(Value v) {
  assert(depth_ >= 0);
  Level& lv = levels_[depth_];
  ++seeks_;
  lv.pos = index_->LowerBound(depth_, lv.pos, lv.group_hi, v);
}

}  // namespace wcoj
