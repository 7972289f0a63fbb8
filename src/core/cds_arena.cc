#include "core/cds_arena.h"

#include <algorithm>
#include <bit>

#include "core/constraint.h"
#include "util/failpoint.h"

namespace wcoj {

// ---------------------------------------------------------------------------
// CdsNode

size_t CdsNode::LowerBound(Value v) const {
  const CdsEntry* d = data();
  // The common node is tiny (the inline tier exists because of it) and
  // its entries are 16 bytes and contiguous: a branch-predictable linear
  // scan over at most two cache lines beats binary search there.
  if (size_ <= 8) {
    size_t i = 0;
    while (i < size_ && d[i].v < v) ++i;
    return i;
  }
  size_t lo = 0, hi = size_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (d[mid].v < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Value CdsNode::Next(Value x) const {
  const size_t i = LowerBound(x);
  const CdsEntry* d = data();
  if (i < size_ && d[i].v == x) return x;  // endpoints free
  if (i > 0 && d[i - 1].left) {
    // x lies strictly inside the interval (d[i-1].v, d[i].v).
    assert(i < size_ && d[i].right);
    return d[i].v;
  }
  return x;
}

Value CdsNode::NextFrom(Value x, uint32_t* hint) const {
  const CdsEntry* d = data();
  size_t i = *hint;
  assert(i <= size_);
  if (i < size_ && d[i].v < x) {
    // Gallop from the hint, then bisect the bracket: a run of short
    // forward moves costs amortized O(1 + log distance).
    size_t off = 1;
    while (i + off < size_ && d[i + off].v < x) off <<= 1;
    size_t lo = i + off / 2 + 1;  // d[i + off/2].v < x held above
    size_t hi = i + off < size_ ? i + off : size_;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (d[mid].v < x) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    i = lo;
  }
  *hint = static_cast<uint32_t>(i);
  if (i < size_ && d[i].v == x) return x;  // endpoints free
  if (i > 0 && d[i - 1].left) {
    assert(i < size_ && d[i].right);
    return d[i].v;
  }
  return x;
}

CdsEntry* CdsNode::InsertEntryAt(CdsArena* arena, size_t i, Value v) {
  if (size_ == capacity_) {
    const uint32_t grown = capacity_ * 2;  // 4 -> 8 -> 16 -> ...
    CdsEntry* buf = arena->AllocEntries(grown);
    std::memcpy(buf, data(), size_ * sizeof(CdsEntry));
    if (capacity_ > kInlineEntries) arena->FreeEntries(spill_, capacity_);
    spill_ = buf;
    capacity_ = grown;
  }
  CdsEntry* d = data();
  std::memmove(d + i + 1, d + i, (size_ - i) * sizeof(CdsEntry));
  ++size_;
  d[i] = CdsEntry{v, kCdsNull, false, false};
  return &d[i];
}

void CdsNode::EraseEntries(CdsArena* arena, size_t b, size_t e) {
  if (b == e) return;
  CdsEntry* d = data();
  for (size_t k = b; k < e; ++k) {
    if (d[k].left) --left_count_;
    if (d[k].child != kCdsNull) arena->FreeSubtree(d[k].child);
  }
  std::memmove(d + b, d + e, (size_ - e) * sizeof(CdsEntry));
  size_ -= static_cast<uint32_t>(e - b);
}

void CdsNode::InsertInterval(CdsArena* arena, Value l, Value r,
                             uint32_t hint) {
  assert(l < r);
  // One search for l (none with a hint). No entry lies strictly inside a
  // stored interval, so a stored left endpoint's successor is its right
  // endpoint, and the entries the merge deletes are exactly those after
  // l's slot that are below r: one forward walk, which EraseEntries has
  // to make anyway to free their child subtrees.
  CdsEntry* d = data();
  size_t i;
  if (hint == kNoHint) {
    i = LowerBound(l);
  } else {
    i = hint;
    if (i > 0 && d[i - 1].v == l) --i;
  }
  assert(i == LowerBound(l));
  bool have_l = i < size_ && d[i].v == l;
  if (!have_l && i > 0 && d[i - 1].left) {
    // l is strictly inside (d[i-1], d[i]): the merge starts at d[i-1].
    --i;
    have_l = true;
  }
  // The merged interval's left end is d[i] if have_l, else a new entry
  // inserted at i. Entries [b, e) lie strictly inside it.
  const size_t b = have_l ? i + 1 : i;
  size_t e = b;
  while (e < size_ && d[e].v < r) ++e;
  // r strictly inside a stored interval (the one starting at d[e-1]):
  // absorb it, keeping its right end d[e]. Touching at an endpoint does
  // not merge: open intervals leave endpoints free.
  if (e < size_ && d[e].v != r && e > 0 && d[e - 1].left) r = d[e].v;
  EraseEntries(arena, b, e);
  // Upsert r at the erase position, then l at the search position.
  d = data();
  CdsEntry* re = b < size_ && d[b].v == r ? &d[b] : InsertEntryAt(arena, b, r);
  re->right = true;
  CdsEntry* le = have_l ? &data()[i] : InsertEntryAt(arena, i, l);
  if (!le->left) {
    le->left = true;
    ++left_count_;
  }
}

CdsIndex CdsNode::Child(Value v) const {
  const size_t i = LowerBound(v);
  const CdsEntry* d = data();
  if (i < size_ && d[i].v == v) return d[i].child;
  return kCdsNull;
}

CdsIndex CdsNode::EnsureChild(CdsArena* arena, Value v, uint64_t* id_counter) {
  const size_t i = LowerBound(v);
  CdsEntry* d = data();
  if (i < size_ && d[i].v == v) {
    if (d[i].child == kCdsNull) {
      d[i].child = arena->AllocNode(self_, v, ++*id_counter);
    }
    return d[i].child;
  }
  if (i > 0 && d[i - 1].left) return kCdsNull;  // v is covered
  CdsEntry* e = InsertEntryAt(arena, i, v);
  e->child = arena->AllocNode(self_, v, ++*id_counter);
  return e->child;
}

CdsIndex CdsNode::EnsureWildcardChild(CdsArena* arena, uint64_t* id_counter) {
  if (wildcard_child_ == kCdsNull) {
    wildcard_child_ = arena->AllocNode(self_, kWildcard, ++*id_counter);
  }
  return wildcard_child_;
}

Value CdsNode::FirstEntryGe(Value x) const {
  const size_t i = LowerBound(x);
  return i < size_ ? data()[i].v : kPosInf;
}

uint64_t CdsNode::CountEntriesGe(Value x) const {
  const size_t i = LowerBound(x);
  uint64_t n = size_ - i;
  // Only the tail can hold the +inf sentinel.
  if (n > 0 && data()[size_ - 1].v == kPosInf) --n;
  return n;
}

// ---------------------------------------------------------------------------
// CdsArena

int CdsArena::SizeClass(uint32_t capacity) {
  assert(capacity >= (1u << kMinCapLog2) && std::has_single_bit(capacity));
  const int cls = std::countr_zero(capacity) - kMinCapLog2;
  assert(cls >= 0 && cls < kNumClasses);
  // Every power-of-two capacity in [8, 2^31] has its own class, so the
  // clamp below is provably dead; it only bounds the index for the
  // optimizer (and for contract-violating callers in release builds).
  return std::clamp(cls, 0, kNumClasses - 1);
}

void CdsArena::SetBudget(MemoryBudget* budget) {
  if (budget == budget_) return;
  if (budget_ != nullptr && charged_ > 0) budget_->Release(charged_);
  budget_ = budget;
  charged_ = 0;
  if (budget_ != nullptr && total_bytes_ > 0) {
    budget_->ForceCharge(total_bytes_);
    charged_ = total_bytes_;
  }
}

void CdsArena::NoteGrowth(uint64_t bytes) {
  total_bytes_ += bytes;
  if (budget_ != nullptr) {
    budget_->ForceCharge(bytes);
    charged_ += bytes;
  }
  static FailPoint& fp = FailPoints::Register("arena.slab");
  if (WCOJ_FAILPOINT(fp)) alloc_failed_ = true;
}

CdsIndex CdsArena::AllocNode(CdsIndex parent, Value label, uint64_t id) {
  CdsIndex idx;
  if (free_nodes_ != kCdsNull) {
    idx = free_nodes_;
    free_nodes_ = node(idx)->parent_;
    ++nodes_recycled_;
  } else {
    assert(node_cursor_ != 0 && "arena node space exhausted (2^32 nodes)");
    idx = node_cursor_++;
    const size_t slab = idx >> kNodeSlabLog2;
    if (slab == node_slabs_.size()) {
      node_slabs_.push_back(std::make_unique<CdsNode[]>(kNodesPerSlab));
      NoteGrowth(uint64_t{kNodesPerSlab} * sizeof(CdsNode));
    }
    if (idx < node_high_water_) {
      ++nodes_recycled_;  // warm slab memory from an earlier epoch
    } else {
      node_high_water_ = idx + 1;
      ++nodes_allocated_;
    }
  }
  CdsNode* n = &node_slabs_[idx >> kNodeSlabLog2][idx & (kNodesPerSlab - 1)];
  n->Init(parent, label, id);
  n->self_ = idx;
  return n->self_;
}

void CdsArena::FreeSubtree(CdsIndex root) {
  // Depth is bounded by the query's variable count (< 63), so plain
  // recursion is safe.
  CdsNode* n = node(root);
  const CdsEntry* d = n->data();
  for (uint32_t i = 0; i < n->size_; ++i) {
    if (d[i].child != kCdsNull) FreeSubtree(d[i].child);
  }
  if (n->wildcard_child_ != kCdsNull) FreeSubtree(n->wildcard_child_);
  if (n->capacity_ > CdsNode::kInlineEntries) {
    FreeEntries(n->spill_, n->capacity_);
  }
  n->parent_ = free_nodes_;
  free_nodes_ = root;
}

CdsEntry* CdsArena::AllocEntries(uint32_t capacity) {
  const int cls = SizeClass(capacity);
  if (free_bufs_[cls] != nullptr) {
    FreeBuf* f = free_bufs_[cls];
    free_bufs_[cls] = f->next;
    return reinterpret_cast<CdsEntry*>(f);
  }
  if (capacity > kEntriesPerSlab) {
    large_bufs_.push_back({cls, std::make_unique<CdsEntry[]>(capacity)});
    NoteGrowth(uint64_t{capacity} * sizeof(CdsEntry));
    return large_bufs_.back().buf.get();
  }
  if (cur_entry_slab_ == nullptr ||
      entry_slab_used_ + capacity > kEntriesPerSlab) {
    if (entry_slab_next_ == entry_slabs_.size()) {
      entry_slabs_.push_back(std::make_unique<CdsEntry[]>(kEntriesPerSlab));
      NoteGrowth(uint64_t{kEntriesPerSlab} * sizeof(CdsEntry));
    }
    cur_entry_slab_ = entry_slabs_[entry_slab_next_].get();
    ++entry_slab_next_;
    entry_slab_used_ = 0;
  }
  CdsEntry* p = cur_entry_slab_ + entry_slab_used_;
  entry_slab_used_ += capacity;
  return p;
}

void CdsArena::FreeEntries(CdsEntry* buf, uint32_t capacity) {
  const int cls = SizeClass(capacity);
  FreeBuf* f = reinterpret_cast<FreeBuf*>(buf);
  f->next = free_bufs_[cls];
  free_bufs_[cls] = f;
}

void CdsArena::Reset() {
  node_cursor_ = 1;
  free_nodes_ = kCdsNull;
  cur_entry_slab_ = nullptr;
  entry_slab_next_ = 0;
  entry_slab_used_ = 0;
  for (FreeBuf*& head : free_bufs_) head = nullptr;
  // Every large buffer is idle after an epoch bump; hand them all back
  // to their classes so the next epoch reuses them instead of mallocing.
  for (LargeBuf& lb : large_bufs_) {
    FreeBuf* f = reinterpret_cast<FreeBuf*>(lb.buf.get());
    f->next = free_bufs_[lb.size_class];
    free_bufs_[lb.size_class] = f;
  }
  nodes_allocated_ = 0;
  nodes_recycled_ = 0;
}

}  // namespace wcoj
