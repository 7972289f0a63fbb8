#include "core/leapfrog.h"

#include <algorithm>
#include <cassert>

namespace wcoj {

// LFTJ runs the leapfrog loop below at every GAO depth but the last,
// and at the last depth only when it collects tuples: a count-only run
// counts its last variable with one storage/intersect.h span
// intersection per binding of the others instead. Every Seek lands in
// TrieIndex::LowerBound and from there in the dispatched SIMD
// block-search kernels (storage/search_kernels.h), over whatever key
// tier the level was built with. The loop itself stays scalar
// bookkeeping — index wrap-around is a compare instead of a modulo so
// the per-advance cost is a handful of predictable ops.

LeapfrogJoin::LeapfrogJoin(std::vector<TrieIterator*> iters)
    : iters_(std::move(iters)) {
  assert(!iters_.empty());
}

void LeapfrogJoin::Init() {
  at_end_ = false;
  for (auto* it : iters_) {
    if (it->AtEnd()) {
      at_end_ = true;
      return;
    }
  }
  // Sort by current key so iters_[0] holds the min and the last the max.
  std::sort(iters_.begin(), iters_.end(),
            [](TrieIterator* a, TrieIterator* b) { return a->Key() < b->Key(); });
  p_ = 0;
  Search();
}

void LeapfrogJoin::Search() {
  assert(!at_end_);
  const size_t k = iters_.size();
  Value max_key = iters_[p_ == 0 ? k - 1 : p_ - 1]->Key();
  for (;;) {
    TrieIterator* it = iters_[p_];
    if (it->Key() == max_key) return;  // all k keys equal
    it->Seek(max_key);
    if (it->AtEnd()) {
      at_end_ = true;
      return;
    }
    max_key = it->Key();
    p_ = p_ + 1 == k ? 0 : p_ + 1;
  }
}

Value LeapfrogJoin::Key() const {
  assert(!at_end_);
  return iters_[p_]->Key();
}

void LeapfrogJoin::Next() {
  assert(!at_end_);
  iters_[p_]->Next();
  if (iters_[p_]->AtEnd()) {
    at_end_ = true;
    return;
  }
  p_ = p_ + 1 == iters_.size() ? 0 : p_ + 1;
  Search();
}

void LeapfrogJoin::Seek(Value v) {
  assert(!at_end_);
  if (Key() >= v) return;
  iters_[p_]->Seek(v);
  if (iters_[p_]->AtEnd()) {
    at_end_ = true;
    return;
  }
  p_ = p_ + 1 == iters_.size() ? 0 : p_ + 1;
  Search();
}

}  // namespace wcoj
