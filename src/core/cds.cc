#include "core/cds.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "core/engine.h"

namespace wcoj {

namespace {

// Frontier coordinates start below every data value; Minesweeper refuses
// keys outside [0, kWildcard).
constexpr Value kFrontierFloor = -1;

}  // namespace

Cds::Cds(int num_vars, const Options& options, CdsArena* arena)
    : num_vars_(num_vars), options_(options), arena_(arena) {
  assert(num_vars >= 1 && num_vars <= kMaxVars);
  assert(arena_ != nullptr);
  Reset();
}

void Cds::Reset() {
  arena_->Reset();
  id_counter_ = 0;
  root_ = arena_->AllocNode(kCdsNull, kWildcard, ++id_counter_);
  frontier_.assign(num_vars_, kFrontierFloor);
  depth_ = 0;
  constraints_inserted_ = 0;
  counted_outputs_ = 0;
  complete_shortcut_ok_ = true;
  rotations_.assign(num_vars_, Rotation{});
  // Grow-only: a Reconfigure to fewer variables keeps the deeper level
  // vectors (and their capacity) parked for the next bigger query.
  if (levels_.size() < static_cast<size_t>(num_vars_)) {
    levels_.resize(num_vars_);
  }
  levels_[0].clear();
  levels_[0].push_back({n(root_), 0});
  InvalidateLevelsFrom(1);  // and nothing is verified
}

void Cds::Reconfigure(int num_vars, const Options& options) {
  assert(num_vars >= 1 && num_vars <= kMaxVars);
  num_vars_ = num_vars;
  options_ = options;
  Reset();
}

void Cds::ResumeRetainingTree() {
  depth_ = 0;
  // The next search starts from the root: the caller re-seeds the
  // frontier, and the rotations below restart with it.
  InvalidateLevelsFrom(1);
  // See the header: in-progress rotations must not survive into a
  // sweep over a different var0 range. Completeness already earned by
  // full within-execution rotations stays — those marks are facts about
  // the node's pattern, not about any particular range.
  rotations_.assign(num_vars_, Rotation{});
}

void Cds::SetFrontier(const Tuple& t) {
  assert(static_cast<int>(t.size()) == num_vars_);
  for (int d = 0; d < num_vars_; ++d) {
    if (frontier_[d] != t[d]) {
      InvalidateLevelsFrom(d + 1);  // levels d+1.. depend on frontier_[d]
      break;
    }
  }
  frontier_ = t;
}

bool Cds::InsertConstraint(const Constraint& c) {
  assert(c.depth() < num_vars_);
  assert(c.lo < c.hi);
  // Precise staleness: a node created at depth d+1, or an interval (and
  // the subtrees its merge deletes) under the final node, only affects
  // cached levels and verified depths if its whole path generalizes the
  // current frontier prefix — patterns that bind a non-frontier equality
  // live outside every level and every chain. Most inserts therefore
  // stale only the depths from their pattern depth on, keeping the
  // shallow gathers warm and the next search short.
  bool generalizes = true;
  CdsNode* node = n(root_);
  int d = 0;
  for (const Value p : c.pattern) {
    const uint64_t ids_before = id_counter_;
    const CdsIndex next = p == kWildcard
                              ? node->EnsureWildcardChild(arena_, &id_counter_)
                              : node->EnsureChild(arena_, p, &id_counter_);
    generalizes = generalizes && (p == kWildcard || p == frontier_[d]);
    if (id_counter_ != ids_before && generalizes) {
      InvalidateLevelsFrom(d + 1, /*node_created=*/true);
    }
    if (next == kCdsNull) return false;  // subsumed along the walk
    node = n(next);
    ++d;
  }
  if (generalizes) InvalidateLevelsFrom(c.depth() + 1);
  node->InsertInterval(arena_, c.lo, c.hi);
  ++constraints_inserted_;
  return true;
}

void Cds::Gather(int depth, std::vector<ChainNode>* out, bool* is_chain) {
  for (int d = levels_valid_; d <= depth; ++d) {
    const std::vector<ChainNode>& cur = levels_[d - 1];
    std::vector<ChainNode>& next = levels_[d];
    next.clear();
    for (const ChainNode& cn : cur) {
      if (const CdsIndex w = cn.node->wildcard_child(); w != kCdsNull) {
        next.push_back({n(w), cn.eq_mask});
      }
      if (const CdsIndex c = cn.node->Child(frontier_[d - 1]); c != kCdsNull) {
        next.push_back({n(c), cn.eq_mask | (uint64_t{1} << (d - 1))});
      }
    }
  }
  if (levels_valid_ < depth + 1) levels_valid_ = depth + 1;
  out->clear();
  for (const ChainNode& cn : levels_[depth]) {
    if (cn.node->has_intervals()) out->push_back(cn);
  }
  std::sort(out->begin(), out->end(), [](const ChainNode& a, const ChainNode& b) {
    return std::popcount(a.eq_mask) > std::popcount(b.eq_mask);
  });
  *is_chain = true;
  for (size_t i = 0; i + 1 < out->size(); ++i) {
    // Nested iff the more general mask is a subset of the more special one.
    if (((*out)[i].eq_mask & (*out)[i + 1].eq_mask) != (*out)[i + 1].eq_mask) {
      *is_chain = false;
      break;
    }
  }
}

CdsNode* Cds::EnsureExactNode(int depth) {
  CdsNode* node = n(root_);
  for (int d = 0; d < depth && node != nullptr; ++d) {
    const uint64_t ids_before = id_counter_;
    const CdsIndex next = node->EnsureChild(arena_, frontier_[d], &id_counter_);
    // The exact path generalizes the frontier by construction, so a
    // created node at depth d+1 stales the cached levels from there.
    if (id_counter_ != ids_before) InvalidateLevelsFrom(d + 1);
    node = next == kCdsNull ? nullptr : n(next);
  }
  return node;
}

Cds::FreeValue Cds::GetFreeValue(Value x, const std::vector<ChainNode>& chain,
                                 size_t i, bool chain_mode) {
  if (i >= chain.size()) return {x, false};
  CdsNode* u = chain[i].node;
  if (chain_mode && complete_shortcut_ok_ && i == 0 && u->complete()) {
    // Idea 6: a complete node's pointList is exactly the chain's free
    // values; iterate it directly, no ping-pong.
    return {u->FirstEntryGe(x), false};
  }
  // u's pointList is stable for the duration of this loop (recursive
  // calls insert only into deeper chain members) and the probes never
  // decrease, so they resume from a galloping position hint. The first
  // leaves it at lower_bound(x), the slot the Idea 5 insert below needs.
  uint32_t pos = 0;
  Value y1 = u->NextFrom(x, &pos);
  const uint32_t x_pos = pos;
  Value y;
  for (;;) {
    if (y1 == kPosInf) {
      y = kPosInf;
      break;
    }
    const FreeValue rest = GetFreeValue(y1, chain, i + 1, chain_mode);
    if (rest.y == y1) {
      y = y1;
      break;
    }
    // Includes +inf: NextFrom(+inf) is +inf, which ends the loop.
    y1 = u->NextFrom(rest.y, &pos);
  }
  // Idea 5 caching: record that [x, y) holds no free value. Sound into any
  // node all of whose co-chain members are generalizations — every node in
  // chain mode, only the dedicated exact-prefix bottom in poset mode.
  if ((chain_mode || i == 0) && x != kNegInf && x - 1 < y) {
    u->InsertInterval(arena_, x - 1, y, x_pos);
  }
  return {y, false};
}

void Cds::Truncate(CdsNode* u) {
  // Algorithm 6: walk up to the first non-wildcard edge and kill that
  // branch with a unit gap; all-wildcard paths exhaust the whole space.
  for (;;) {
    --depth_;
    if (depth_ < 0) return;
    assert(u->parent() != kCdsNull);
    CdsNode* parent = n(u->parent());
    if (u->label() != kWildcard) {
      const Value x = u->label();
      parent->InsertInterval(arena_, x - 1, x + 1);  // frees u's subtree
      return;
    }
    u = parent;
  }
}

bool Cds::ComputeFreeTuple(AbortPoll* poll) {
  // Depths [0, verified_) still hold values that are free against the
  // current tree. Passing one again would gather the same chain, find
  // its value free, store the unit gap it already stores and leave its
  // rotation as it is, so the search resumes at the first depth that
  // may have changed. From here the loop keeps depths [0, depth_) free
  // itself; nothing counts as verified until it returns a free tuple.
  depth_ = resume_depth();
  verified_ = 0;
  std::vector<ChainNode>& chain = chain_;
  for (;;) {
    if (poll != nullptr && poll->Check()) return false;
    if (depth_ < 0) return false;
    bool is_chain = true;
    Gather(depth_, &chain, &is_chain);
    bool chain_mode = is_chain;
    if (!is_chain) {
      // §4.8 poset fallback: cache into the exact-prefix specialization
      // (EnsureExactNode stales the affected cached levels itself).
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
      // Depth exhausted: Idea 6 bookkeeping, then truncate a fully covered
      // node (Idea 5) or plainly backtrack.
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
        Truncate(dead);  // adjusts depth_; frees the dead branch
      } else {
        --depth_;
        if (depth_ >= 0) ++frontier_[depth_];
      }
      // The prefix at depth_ changed (and truncation freed a branch at
      // depth_ + 1); deeper coordinates and cached levels restart.
      InvalidateLevelsFrom(depth_ + 1);
      for (int i = depth_ + 1; i < num_vars_; ++i) {
        frontier_[i] = kFrontierFloor;
      }
      continue;
    }

    // The value moved: deeper coordinates belong to an older prefix and
    // restart from the floor, and the Idea 5 cache inserts may have
    // deleted child branches strictly inside (x-1, y) under the chain
    // nodes at this depth. (A y == x descent only inserts unit gaps —
    // x was free, so nothing merges and nothing is deleted — and the
    // cached levels stay warm.) Unlike Algorithm 4's line 13 we never
    // reset on an empty next chain — that would rewind the caller's
    // moving frontier below already-reported outputs.
    if (y > x) {
      InvalidateLevelsFrom(depth_ + 1);
      for (int i = depth_ + 1; i < num_vars_; ++i) {
        frontier_[i] = kFrontierFloor;
      }
    }
    frontier_[depth_] = y;
    if (depth_ == num_vars_ - 1) {
      verified_ = num_vars_;
      return true;
    }
    ++depth_;
  }
}

uint64_t Cds::DrainCompleteLastLevel(uint64_t required_mask) {
  const int d = num_vars_ - 1;
  std::vector<ChainNode>& chain = chain_;
  bool is_chain;
  Gather(d, &chain, &is_chain);
  if (!is_chain || chain.empty()) return 0;
  if ((required_mask & ~chain.front().eq_mask) != 0) return 0;
  CdsNode* bottom = chain.front().node;
  if (!bottom->complete()) return 0;
  const uint64_t k = bottom->CountEntriesGe(frontier_[d] + 1);
  counted_outputs_ += k;
  frontier_[d] = kPosInf;  // exhaust the class; next call backtracks
  InvalidateLevelsFrom(d + 1);
  return k;
}

}  // namespace wcoj
