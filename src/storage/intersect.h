#ifndef WCOJ_STORAGE_INTERSECT_H_
#define WCOJ_STORAGE_INTERSECT_H_

// Span intersection counting: |{v in [lo, hi] : v is a key of every
// span}| over k sorted CSR key runs, in one call.
//
// This is the count-only form of the unary leapfrog join: when a join
// only needs how many values its last variable takes, walking the
// intersection one Seek at a time (each a tier switch plus a bound
// search) is replaced by one pass over the spans.
//
//  * Each span is first clamped to the [lo, hi] window; a clamp costs a
//    bound search only when the span's first (last) key lies outside it.
//  * Spans are processed shortest first. The running candidate set (at
//    first the shortest span) meets each further span by a branch-free
//    merge when their lengths are comparable, or, when the span is at
//    least kGallopRatio times longer, by galloping every candidate into
//    it with LevelKeys::LowerBound. The choice depends only on lengths,
//    so the work — and the probe count below — is the same under every
//    key tier.
//  * When every span reads the same tier and the same frame of
//    reference (raw, or packed with one base — always the case when all
//    spans come from one LevelKeys, the self-join shape), merges compare
//    the tier's native lanes with no decoding. Otherwise non-raw spans
//    are decoded into a reused buffer first.
//
// Buffers are owned by the SpanIntersector and grow only to the
// longest span they have held, so a run reuses them across calls.

#include <cstddef>
#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "storage/level_keys.h"
#include "util/value.h"

namespace wcoj {

// Keys [begin, end) of one trie level; the range must lie within one
// parent group (sorted, distinct).
struct KeySpan {
  const LevelKeys* keys = nullptr;
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
};

// What one Count call did. `probes` are bound searches (window clamps
// and gallop steps) — the unit engines report as seeks. `merged` are
// keys a linear merge stepped over; they are work but not seeks.
struct IntersectWork {
  uint64_t probes = 0;
  uint64_t merged = 0;
};

class SpanIntersector {
 public:
  // A span at least this many times longer than the candidate set is
  // galloped into instead of merged.
  static constexpr size_t kGallopRatio = 4;

  // Number of values in [lo, hi] present in every span. Clamps and
  // reorders `spans` in place; adds the call's work to *work.
  uint64_t Count(std::span<KeySpan> spans, Value lo, Value hi,
                 IntersectWork* work);

 private:
  // Ping-pong candidate sets in one lane type.
  template <typename T>
  struct Candidates {
    std::vector<T> buf[2];
  };

  // Intersects spans (clamped, shortest first) whose keys are read as
  // lanes of type T; a key is base + lane.
  template <typename T>
  uint64_t CountLanes(std::span<const KeySpan> spans, Value base,
                      IntersectWork* work);
  // Span s as a T array: its own payload when the tier stores T, else
  // (T == Value only) decoded into decoded_[slot].
  template <typename T>
  const T* Lanes(const KeySpan& s, int slot);

  std::vector<Value> decoded_[2];
  std::tuple<Candidates<uint8_t>, Candidates<uint16_t>, Candidates<uint32_t>,
             Candidates<Value>>
      candidates_;
};

}  // namespace wcoj

#endif  // WCOJ_STORAGE_INTERSECT_H_
