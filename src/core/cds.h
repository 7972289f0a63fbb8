#ifndef WCOJ_CORE_CDS_H_
#define WCOJ_CORE_CDS_H_

// Constraint data structure (CDS, §4.3-§4.8).
//
// A tree with one level per GAO attribute. Edges are labeled with equality
// values or a wildcard; a node's pattern is the label sequence from the
// root. Each node stores a *pointList* (Idea 1): one sorted entry sequence
// where every entry value is simultaneously a potential interval endpoint
// (left/right flags) and a potential equality-child label. Stored open
// intervals are pairwise non-overlapping; overlapping inserts merge, and
// entries strictly inside a newly inserted interval are deleted together
// with their child subtrees (those branches are subsumed by the gap).
//
// Storage: nodes and pointList buffers live in a CdsArena
// (core/cds_arena.h) — slab-allocated, index-linked, recycled through
// free lists. A Cds always borrows its arena from the caller (the
// engines pass their ExecScratch's), so repeated runs reuse warm memory
// and a steady-state execution performs no heap allocation at all.
//
// ComputeFreeTuple implements Algorithm 4 with:
//   Idea 2 (moving frontier), Idea 5 (backtracking & truncation),
//   Idea 6 (complete nodes after two exhausted rotations), and the
//   poset fallback of §4.8 (when the gathered nodes do not form a chain,
//   caching goes into an exact-prefix specialization node and
//   completeness is disabled — the expensive general case the paper
//   describes, used by the "ms-noidea7" ablation).
//
// Unlike Algorithm 4, a search does not restart at the root: it resumes
// at the first depth that may have changed since the last free tuple
// (resume_depth). Most free tuples move only the last coordinate — Idea
// 2's step past a reported output, or a gap at the deepest depth — so a
// search re-gathers and re-probes one depth instead of all of them.
// Passing a verified depth again would change nothing: its chain and
// intervals are the same, its value is still free, the Idea 5 unit gap
// it would store is stored, and its Idea 6 rotation stays as it is.
//
// The poset regime can spend unbounded time between free tuples (the
// paper's "thrashing" cells), so the search checks the run's AbortPoll
// (core/engine.h) on every step; the Cds keeps no run control of its own.
//
// The counting hook (Idea 8, #Minesweeper): in count mode, when the
// bottom node at the last depth is complete, the remaining outputs for the
// current prefix class are exactly its finite pointList entries; they are
// tallied in one scan instead of being enumerated through the frontier.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/cds_arena.h"
#include "core/constraint.h"
#include "util/value.h"

namespace wcoj {

class AbortPoll;

class Cds {
 public:
  // Widest query a Cds serves: pattern equality positions are kept as
  // 64-bit masks (eq_mask) with room for shifts up to depth num_vars - 1.
  static constexpr int kMaxVars = 62;

  struct Options {
    bool idea6_complete_nodes = true;
    // Depths where frontier jumps can skip values without caching them
    // (Idea 7 advances from non-skeleton atoms, filter advances). A node's
    // pointList at such a depth may miss free values, so completeness
    // (Idea 6) must not be claimed there — the §4.12 observation that
    // Idea 6 applies to the path attributes while Idea 7 owns the clique
    // attributes. Empty means "no depth excluded".
    std::vector<bool> completeness_blocked;
  };

  // Builds on `arena` (non-null; the per-worker ExecScratch's on the
  // engine path) after Reset()ing it — at most one live Cds per arena,
  // and constructing a new one invalidates the previous tree. The arena
  // must outlive the Cds.
  Cds(int num_vars, const Options& options, CdsArena* arena);

  // Epoch bump: reclaims the whole tree via CdsArena::Reset and restarts
  // from an empty CDS with the same options. Never walks the tree, and
  // on a warm arena never touches malloc.
  void Reset();

  // Reset with a new shape: rebinds the Cds to a (possibly different)
  // query's variable count and options while keeping every internal
  // scratch vector's capacity. This is how a per-worker ExecScratch
  // serves one warm Cds shell to run after run (ExecScratch::AcquireCds).
  void Reconfigure(int num_vars, const Options& options);

  // Rearms the shell for another execution of the SAME query over the
  // SAME data while keeping the whole constraint tree. Stored gap boxes
  // are facts about the indexed relations — independent of the var0
  // range a morsel scans — so a later morsel of one partitioned run may
  // start from every constraint its worker accumulated instead of
  // re-deriving them (ExecScratch::AcquireCds's token-matched path).
  // Only the search depth and the Idea 6 rotation trackers are cleared:
  // a rotation validated in one morsel and exhausted in a later,
  // possibly non-adjacent one would claim a contiguous
  // floor-to-exhaustion sweep that never happened, so rotations —
  // unlike the completeness marks they earn, which are per-pattern
  // facts — must not span executions. The caller re-seeds the frontier
  // via SetFrontier.
  void ResumeRetainingTree();

  // Inserts a gap-box constraint (pattern walk from the root, interval at
  // the final node). Returns false if the constraint was subsumed by an
  // existing interval along the walk.
  bool InsertConstraint(const Constraint& c);

  // Advances the frontier to the next tuple >= the current frontier that
  // avoids every stored constraint. Returns false when the output space is
  // exhausted. On true, frontier() holds the free tuple; trailing
  // coordinates may be -1 when no constraint restricts them yet. Also
  // returns false, mid-search, once `poll` (if given) fires.
  //
  // The search starts at resume_depth(), not at the root. A returned free
  // tuple leaves every depth verified; afterwards SetFrontier unverifies
  // from its first changed coordinate, InsertConstraint from its pattern
  // depth (only when the pattern generalizes the frontier prefix),
  // DrainCompleteLastLevel the last depth, and Reset, Reconfigure and
  // ResumeRetainingTree everything. A search that returns false leaves
  // nothing verified. The frontier, tree and Idea 6 rotations it leaves
  // are exactly those a search from the root would leave.
  bool ComputeFreeTuple(AbortPoll* poll = nullptr);

  const Tuple& frontier() const { return frontier_; }
  void SetFrontier(const Tuple& t);

  // Depth the next ComputeFreeTuple starts its search at. Every depth
  // above it still holds a value known to be free against the current
  // tree; see InvalidateLevelsFrom for what lowers it.
  int resume_depth() const { return std::min(verified_, num_vars_ - 1); }

  // #Minesweeper (Idea 8): callable right after the engine verified and
  // reported the frontier tuple at the last depth. If the last depth's
  // bottom node is complete (chain mode) and its equality positions cover
  // `required_mask` — the union of the prefix positions of every atom
  // participating at the last depth, so each such atom sees identical
  // projections whenever this bottom recurs — then every remaining
  // pointList entry of the current prefix class is a verified output.
  // Tallies them in one scan, exhausts the class, and returns the number
  // tallied (0 if the shortcut does not apply).
  uint64_t DrainCompleteLastLevel(uint64_t required_mask);

  uint64_t constraints_inserted() const { return constraints_inserted_; }
  // Outputs tallied wholesale by the count-mode complete-node shortcut.
  uint64_t counted_outputs() const { return counted_outputs_; }

  const CdsArena& arena() const { return *arena_; }

 private:
  struct ChainNode {
    CdsNode* node;
    uint64_t eq_mask;  // bitmask of equality (non-wildcard) positions
  };

  CdsNode* n(CdsIndex i) { return arena_->node(i); }

  // All interval-bearing nodes at `depth` whose pattern generalizes the
  // frontier prefix, most specialized first. Sets *is_chain to whether
  // their equality masks are nested. Served from the incremental level
  // cache below: level d+1 is derived from level d and frontier_[d], so
  // the common descend-one-level step is O(|level|) instead of a fresh
  // O(depth * |levels|) walk from the root.
  void Gather(int depth, std::vector<ChainNode>* out, bool* is_chain);

  // The one staleness rule of the level cache and the resume depth.
  // Must be called whenever something at depth - 1 that the search read
  // may have changed: frontier_[depth-1], or the intervals or children
  // of a node there whose pattern generalizes the frontier prefix
  // (interval inserts, subtree deletion by merges or truncation, node
  // creation by InsertConstraint/EnsureExactNode). Cached levels >= depth
  // are stale (level 0, the root, never is), and depths >= depth - 1 are
  // no longer verified — unless the change only created a child
  // (`node_created`): a new node holds no interval, so it joins no chain
  // and every verified value stays free.
  void InvalidateLevelsFrom(int depth, bool node_created = false) {
    if (levels_valid_ > depth) levels_valid_ = depth < 1 ? 1 : depth;
    if (!node_created && verified_ >= depth) {
      verified_ = depth < 1 ? 0 : depth - 1;
    }
  }

  // Node whose pattern equals the frontier prefix of length `depth`
  // exactly (creating it if needed); poset-mode caching target (§4.8).
  CdsNode* EnsureExactNode(int depth);

  // Algorithm 5. `chain[i..]` is the remaining (sub)chain, bottom first.
  // `allow_cache` is false in poset mode except at the dedicated bottom.
  struct FreeValue {
    Value y;
    bool backtracked;
  };
  FreeValue GetFreeValue(Value x, const std::vector<ChainNode>& chain,
                         size_t i, bool chain_mode);

  // Algorithm 6. May delete `u`'s branch; adjusts depth_.
  void Truncate(CdsNode* u);

  int num_vars_;
  Options options_;
  uint64_t id_counter_ = 0;
  CdsArena* arena_;
  CdsIndex root_ = kCdsNull;
  Tuple frontier_;
  int depth_ = 0;
  // Depths [0, verified_) of the frontier hold free values against the
  // current tree; ComputeFreeTuple resumes there. Between searches it
  // only drops, through InvalidateLevelsFrom.
  int verified_ = 0;
  uint64_t constraints_inserted_ = 0;
  uint64_t counted_outputs_ = 0;
  bool complete_shortcut_ok_ = true;  // per-depth gate set by the caller

  // Idea 6 rotation tracking: a node may be marked complete only after a
  // full -1 -> +inf rotation at its depth with a stable bottom node.
  struct Rotation {
    uint64_t bottom_id = 0;
    bool valid = false;
  };
  std::vector<Rotation> rotations_;

  // Incremental Gather cache: levels_[d] is the full set of nodes whose
  // pattern generalizes the frontier prefix of length d (interval-free
  // nodes included — they may gain intervals without changing
  // membership). levels_[d] is valid iff d < levels_valid_; level 0 is
  // {root}. The vectors are reused across calls and Resets, so a warm
  // steady state gathers without allocating.
  std::vector<std::vector<ChainNode>> levels_;
  int levels_valid_ = 1;
  // Reusable chain scratch for ComputeFreeTuple/DrainCompleteLastLevel.
  std::vector<ChainNode> chain_;
};

}  // namespace wcoj

#endif  // WCOJ_CORE_CDS_H_
