#ifndef WCOJ_CORE_CDS_ARENA_H_
#define WCOJ_CORE_CDS_ARENA_H_

// Arena-backed storage for the constraint data structure (§4.3-§4.8).
//
// The CDS is the engine's highest-churn structure: every gap-box insert
// may create nodes, every interval merge deletes whole subtrees, and a
// partitioned run used to tear the whole tree down once per job.
// Backing it with the general-purpose heap (one std::make_unique per
// node, one std::vector per pointList) made allocator traffic the
// dominant cost once the trie side went columnar (PR 3). This header is
// the replacement:
//
//  - CdsArena: bump-pointer slab allocator for nodes and pointList
//    buffers. Nodes live by value in fixed slabs addressed by 32-bit
//    indices; freed nodes go on an intrusive free list threaded through
//    the node storage itself. pointList buffers come in power-of-two
//    size classes carved from 64 KiB entry slabs (larger classes get
//    dedicated blocks), with one intrusive free list per class, so
//    subtree deletion returns every node and buffer in O(subtree)
//    without touching malloc.
//  - Reset(): an epoch bump that reclaims every node and buffer at once
//    while keeping the slabs — O(#size classes + #large buffers),
//    independent of tree size. A warm arena serves the next build from
//    memory it already owns; the allocated/recycled counters
//    (EngineStats::cds_*) make that observable.
//  - CdsNode: the node itself. Children are referenced by 32-bit arena
//    indices instead of unique_ptr (a 16-byte entry instead of 24, and
//    entries become trivially relocatable, so pointList edits are
//    memmoves), and the first kInlineEntries pointList entries live
//    inside the node — the common tiny node never allocates a buffer.
//
// Contract: one live tree per arena. Resetting the arena (directly or
// by constructing/Reset()ing a Cds on it) invalidates every node index,
// node pointer, and entry pointer previously handed out. Node pointers
// are otherwise stable: slabs never move.

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "util/mem_budget.h"
#include "util/value.h"

namespace wcoj {

class CdsArena;

// Arena-relative node reference. 0 is the null reference (slot 0 is
// reserved), so zero links read as "no child".
using CdsIndex = uint32_t;
inline constexpr CdsIndex kCdsNull = 0;

// One pointList entry (Idea 1): a sorted value that is simultaneously a
// potential interval endpoint (left/right flags) and a potential
// equality-child label.
struct CdsEntry {
  Value v;
  CdsIndex child;  // equality branch labeled v, or kCdsNull
  bool left;       // v is a left endpoint of a stored interval
  bool right;      // v is a right endpoint of a stored interval
};
static_assert(sizeof(CdsEntry) == 16, "pointList entries must stay dense");

class CdsNode {
 public:
  // pointLists up to this size live inside the node; only larger ones
  // draw a pooled buffer from the arena.
  static constexpr uint32_t kInlineEntries = 4;

  // Smallest y >= x not strictly inside any stored interval. Entry
  // values themselves are never covered (intervals are open), so they
  // are free.
  Value Next(Value x) const;

  // Next with a resumable position hint for monotone query runs (the
  // GetFreeValue ping-pong probes one node with nondecreasing values
  // while its pointList is untouched): *hint must be a position with
  // every earlier entry < x (0 always qualifies); the search gallops
  // forward from it instead of bisecting the whole pointList, and the
  // hint is advanced for the next call. Identical results to Next.
  Value NextFrom(Value x, uint32_t* hint) const;

  // True iff the single interval (-inf, +inf) covers everything. (The
  // probe value -1 is the frontier floor; data values are >= 0.)
  bool HasNoFreeValue() const { return Next(-1) == kPosInf; }

  // Inserts open interval (l, r), l < r, merging overlaps and deleting
  // subsumed entries together with their child subtrees (returned to
  // the arena's free lists). Intervals that contain no integer are
  // still stored: their endpoints feed the pointList free-value
  // bookkeeping that Idea 6 depends on.
  //
  // Cost: one pointList search for l, plus a forward walk over exactly
  // the entries the merge deletes (those strictly inside the merged
  // interval, whose child subtrees must be freed anyway), plus at most
  // two endpoint upserts. The dominant unit-gap insert (l, l+1) deletes
  // nothing, so it is one search and two upserts.
  //
  // `hint`, when given, is the index of the first entry > l — a caller
  // whose own probe already found it (GetFreeValue's first NextFrom lands
  // on lower_bound(l + 1)) saves the search: l then sits at that slot or
  // the one before it.
  static constexpr uint32_t kNoHint = UINT32_MAX;
  void InsertInterval(CdsArena* arena, Value l, Value r,
                      uint32_t hint = kNoHint);

  // Child with equality label v, or kCdsNull.
  CdsIndex Child(Value v) const;
  // Creates the child if absent. Returns kCdsNull if v is covered by an
  // interval (the branch is subsumed; nothing to create).
  CdsIndex EnsureChild(CdsArena* arena, Value v, uint64_t* id_counter);

  CdsIndex wildcard_child() const { return wildcard_child_; }
  CdsIndex EnsureWildcardChild(CdsArena* arena, uint64_t* id_counter);

  bool has_intervals() const { return left_count_ > 0; }

  // First entry value >= x, or +inf if none. Used for complete nodes.
  Value FirstEntryGe(Value x) const;
  // Number of finite entry values in [x, +inf): the remaining free
  // values of a complete node (used by #Minesweeper).
  uint64_t CountEntriesGe(Value x) const;

  CdsIndex parent() const { return parent_; }
  Value label() const { return label_; }
  uint64_t id() const { return id_; }

  bool complete() const { return complete_; }
  void NoteExhaustedRotation() {
    if (++exhausted_rotations_ >= 2) complete_ = true;
  }

  uint32_t num_entries() const { return size_; }
  const CdsEntry& entry(size_t i) const { return data()[i]; }
  size_t NumIntervals() const { return left_count_; }

 private:
  friend class CdsArena;

  void Init(CdsIndex parent, Value label, uint64_t id) {
    label_ = label;
    id_ = id;
    spill_ = nullptr;
    parent_ = parent;
    wildcard_child_ = kCdsNull;
    size_ = 0;
    capacity_ = kInlineEntries;
    left_count_ = 0;
    exhausted_rotations_ = 0;
    complete_ = false;
  }

  CdsEntry* data() { return capacity_ > kInlineEntries ? spill_ : inline_; }
  const CdsEntry* data() const {
    return capacity_ > kInlineEntries ? spill_ : inline_;
  }

  // Index of first entry with value >= v.
  size_t LowerBound(Value v) const;
  // Makes room at position i (growing into a pooled buffer when the
  // inline tier or current buffer fills) and default-initializes the
  // new entry to {v, no child, no flags}.
  CdsEntry* InsertEntryAt(CdsArena* arena, size_t i, Value v);
  // Erases [b, e), freeing the child subtrees of the erased entries and
  // dropping their left flags from left_count_.
  void EraseEntries(CdsArena* arena, size_t b, size_t e);

  Value label_;  // kWildcard for the wildcard branch
  uint64_t id_;
  CdsEntry* spill_;  // pooled pointList buffer when capacity_ > inline
  CdsIndex self_;    // this node's own arena index
  CdsIndex parent_;  // doubles as the free-list link while freed
  CdsIndex wildcard_child_;
  uint32_t size_;
  uint32_t capacity_;
  uint32_t left_count_;  // number of entries with the left flag
  uint16_t exhausted_rotations_;
  bool complete_;
  CdsEntry inline_[kInlineEntries];  // small-buffer tier
};

class CdsArena {
 public:
  CdsArena() = default;
  ~CdsArena() { SetBudget(nullptr); }
  // Free-list heads point into the slabs; moving/copying would leave a
  // second owner with dangling heads. Arenas live in ExecScratch slots.
  CdsArena(const CdsArena&) = delete;
  CdsArena& operator=(const CdsArena&) = delete;

  // Installs (or clears) the query's memory governor. Charges the
  // arena's existing footprint to the new budget and releases it from
  // the old one, so a warm scratch arena counts fully against whichever
  // query is currently running on it. Growth while installed is
  // ForceCharged: the slab the arena already committed to always lands,
  // the governor latches, and the engine winds down at its next poll.
  // Engines install opts.budget before running and clear it (nullptr)
  // before returning — the budget's lifetime is the query's.
  void SetBudget(MemoryBudget* budget);
  MemoryBudget* budget() const { return budget_; }

  // Sticky simulated-allocation-failure latch, set by the "arena.slab"
  // failpoint at slab/large-buffer growth (the allocation itself still
  // completes — a torn CDS is worse than a late failure). Engines poll
  // it like the budget latch and fail with kResourceExhausted.
  bool alloc_failed() const { return alloc_failed_; }
  void ClearAllocFailed() { alloc_failed_ = false; }

  CdsNode* node(CdsIndex i) {
    assert(i != kCdsNull && i < node_cursor_);
    return &node_slabs_[i >> kNodeSlabLog2][i & (kNodesPerSlab - 1)];
  }
  const CdsNode* node(CdsIndex i) const {
    assert(i != kCdsNull && i < node_cursor_);
    return &node_slabs_[i >> kNodeSlabLog2][i & (kNodesPerSlab - 1)];
  }

  CdsIndex AllocNode(CdsIndex parent, Value label, uint64_t id);
  // Returns `root` and its whole subtree (nodes and pointList buffers)
  // to the free lists. O(subtree); no heap traffic.
  void FreeSubtree(CdsIndex root);

  // Pooled pointList buffer of exactly `capacity` entries (a power of
  // two >= 2 * CdsNode::kInlineEntries).
  CdsEntry* AllocEntries(uint32_t capacity);
  void FreeEntries(CdsEntry* buf, uint32_t capacity);

  // Epoch bump: reclaims every node and buffer at once, keeps all slab
  // memory, and zeroes the per-epoch counters.
  void Reset();

  // Per-epoch accounting (surfaced as EngineStats::cds_*): a node
  // allocation is "recycled" when served from a free list or from slab
  // memory already carved out in an earlier epoch, "allocated" when it
  // extended the arena's high-water footprint. A warm steady state
  // reports nodes_allocated() == 0.
  uint64_t nodes_allocated() const { return nodes_allocated_; }
  uint64_t nodes_recycled() const { return nodes_recycled_; }
  // High-water heap footprint in bytes across all epochs (slabs plus
  // dedicated large buffers; never shrinks before destruction).
  uint64_t peak_bytes() const { return total_bytes_; }

 private:
  static constexpr int kNodeSlabLog2 = 10;  // 1024 nodes per slab
  static constexpr uint32_t kNodesPerSlab = 1u << kNodeSlabLog2;
  static constexpr uint32_t kEntriesPerSlab = 4096;  // 64 KiB per slab
  static constexpr int kMinCapLog2 = 3;  // smallest pooled buffer: 8
  // One class per representable power-of-two capacity (8 .. 2^31), so
  // SizeClass can never alias a larger request onto a smaller class.
  static constexpr int kNumClasses = 32 - kMinCapLog2;

  static int SizeClass(uint32_t capacity);

  // Accounting hook for every site that grows the arena's heap
  // footprint: bumps total_bytes_, charges the installed budget, and
  // evaluates the "arena.slab" failpoint.
  void NoteGrowth(uint64_t bytes);

  struct FreeBuf {
    FreeBuf* next;
  };
  struct LargeBuf {
    int size_class;
    std::unique_ptr<CdsEntry[]> buf;
  };

  std::vector<std::unique_ptr<CdsNode[]>> node_slabs_;
  CdsIndex node_cursor_ = 1;      // next unbumped slot; 0 is reserved
  CdsIndex node_high_water_ = 1;  // fresh-memory frontier across epochs
  CdsIndex free_nodes_ = kCdsNull;

  std::vector<std::unique_ptr<CdsEntry[]>> entry_slabs_;
  CdsEntry* cur_entry_slab_ = nullptr;
  size_t entry_slab_next_ = 0;  // next retained slab to (re)open
  uint32_t entry_slab_used_ = 0;
  FreeBuf* free_bufs_[kNumClasses] = {};
  std::vector<LargeBuf> large_bufs_;  // capacity > kEntriesPerSlab

  uint64_t nodes_allocated_ = 0;  // epoch-local
  uint64_t nodes_recycled_ = 0;   // epoch-local
  uint64_t total_bytes_ = 0;

  MemoryBudget* budget_ = nullptr;
  uint64_t charged_ = 0;  // bytes charged to budget_ so far
  bool alloc_failed_ = false;
};

}  // namespace wcoj

#endif  // WCOJ_CORE_CDS_ARENA_H_
