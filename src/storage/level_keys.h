#ifndef WCOJ_STORAGE_LEVEL_KEYS_H_
#define WCOJ_STORAGE_LEVEL_KEYS_H_

// LevelKeys: one trie level's key array behind a tier-blind accessor.
//
// PR 3 made every level a contiguous sorted-within-group int64 array.
// For dense levels that is 8 bytes per key even when the whole level
// spans a few hundred distinct values — most of every cache line a seek
// touches is sign extension. LevelKeys keeps the raw layout as the
// default *tier* and adds one compressed family, chosen per level at
// build time: kPacked8/16/32, fixed-width offsets from the level's
// minimum key (frame of reference). A level is eligible when max-min
// fits the width; a seek translates its target once and gallops over
// the narrow lanes, so the working set shrinks 8x/4x/2x. A level whose
// keys span more than 2^32 stays raw.
//
// Every read goes through At / LowerBound / UpperBound, so iterators,
// SeekGap, SplitPoints, and the engines above them are layout-blind.
// Bound searches gallop (amortized O(1 + log distance), the contract
// both join algorithms assume) and finish in the branch-free block count
// of storage/search_kernels.h, in the tier's native lane width.
//
// Encoding never changes results: an ineligible or degenerate level
// (empty, single-key, or any level of an arity-1 trie) silently stays
// raw, including under the force policy the tests sweep. The
// differential harness (tests/kernel_differential_test.cc) pins every
// tier against the raw-tier oracle.
//
// Storage is a pointer + backing pair: every tier reads through const
// pointers, which normally aim at vectors the LevelKeys owns (Build),
// but can instead be bound to externally owned bytes (BindRawView /
// BindPackedView) — the zero-copy path the persistent catalog
// (storage/persist.h) uses to serve a level straight out of an mmap'd
// file. View-backed levels hold no heap memory and decode exactly like
// owned ones; the mapping must outlive the LevelKeys.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/value.h"

namespace wcoj {

enum class KeyTier : uint8_t { kRaw, kPacked8, kPacked16, kPacked32 };

// How a build chooses tiers. kAuto packs only levels where the smaller
// working set is worth the decode (>= kAutoMinKeys keys); kRawOnly pins
// the PR 3 layout (the oracle configuration); kForcePacked packs every
// encodable level regardless of size — the knob differential tests
// sweep.
enum class TierPolicy : uint8_t { kAuto, kRawOnly, kForcePacked };

const char* TierName(KeyTier tier);
const char* TierPolicyName(TierPolicy policy);
// Inverse of TierPolicyName; false on unknown names.
bool ParseTierPolicyName(const char* name, TierPolicy* out);

class LevelKeys {
 public:
  LevelKeys() = default;
  // The decode pointers aim into the owned stores, so a member-wise copy
  // would alias another object's backing; moves are fine (vector moves
  // keep their heap buffers, so the pointers stay valid).
  LevelKeys(const LevelKeys&) = delete;
  LevelKeys& operator=(const LevelKeys&) = delete;
  LevelKeys(LevelKeys&&) = default;
  LevelKeys& operator=(LevelKeys&&) = default;

  // Under kAuto, levels below this key count always stay raw.
  static constexpr size_t kAutoMinKeys = 64;

  // Takes ownership of a level's keys (sorted within each parent group)
  // and encodes them per `policy`. `compressible` is the degenerate-level
  // guard: when false (arity-1 tries, empty or single-key levels) the
  // tier is pinned to kRaw whatever the policy says.
  void Build(std::vector<Value> keys, TierPolicy policy, bool compressible);

  // --- Non-owning views (the storage/persist.h mmap path) ---
  //
  // Bind this level to encoded payloads owned elsewhere (a mapped
  // catalog file). The bytes must stay valid and immutable for the
  // LevelKeys' lifetime and be aligned to the element width. Any owned
  // backing is released; MemoryBytes() reports 0 afterwards.
  void BindRawView(const Value* keys, size_t n);
  void BindPackedView(KeyTier tier, Value base, const void* payload,
                      size_t n);

  // --- Encoded-payload introspection (serialization support) ---
  //
  // The tier's key array (raw keys or packed offsets) exactly as decoded
  // reads see it; PayloadBytes is its size.
  const void* PayloadData() const;
  size_t PayloadBytes() const;
  Value packed_base() const { return base_; }

  size_t size() const { return size_; }
  KeyTier tier() const { return tier_; }
  // True when this level reads externally owned bytes (BindXxxView).
  bool is_view() const { return view_; }

  // Decodes the key at index i. O(1) for every tier.
  Value At(size_t i) const {
    switch (tier_) {
      case KeyTier::kRaw:
        return raw_[i];
      case KeyTier::kPacked8:
        return base_ + static_cast<Value>(p8_[i]);
      case KeyTier::kPacked16:
        return base_ + static_cast<Value>(p16_[i]);
      case KeyTier::kPacked32:
        return base_ + static_cast<Value>(p32_[i]);
    }
    return 0;  // unreachable
  }

  // Decodes keys [lo, hi) into out[0, hi - lo), switching on the tier
  // once per call rather than once per key.
  void Decode(size_t lo, size_t hi, Value* out) const;

  // Least index in [lo, hi) whose key is >= v resp. > v; [lo, hi) must
  // lie within one sorted parent group. Gallops from lo through
  // KernelLowerBound in the tier's native lane width; an upper bound is
  // the lower bound of v + 1.
  size_t LowerBound(size_t lo, size_t hi, Value v) const;
  size_t UpperBound(size_t lo, size_t hi, Value v) const;

  // Heap bytes held by the encoded key array. View-backed levels own
  // nothing and report 0; PayloadBytes() sizes the encoded array
  // regardless of ownership.
  size_t MemoryBytes() const;

 private:
  // Packs `keys` into the narrowest width their span fits; a span
  // beyond 32 bits leaves the level raw.
  void TryPack(const std::vector<Value>& keys);

  KeyTier tier_ = KeyTier::kRaw;
  size_t size_ = 0;
  bool view_ = false;
  // Decode pointers: aimed at the owned stores below, or at mapped
  // bytes in view mode. Only the active tier's pointers are set.
  const Value* raw_ = nullptr;  // kRaw
  // kPacked*: key = base_ + p{w}_[i]
  Value base_ = 0;
  const uint8_t* p8_ = nullptr;
  const uint16_t* p16_ = nullptr;
  const uint32_t* p32_ = nullptr;
  // Owned backing (empty in view mode).
  std::vector<Value> raw_store_;
  std::vector<uint8_t> p8_store_;
  std::vector<uint16_t> p16_store_;
  std::vector<uint32_t> p32_store_;
};

}  // namespace wcoj

#endif  // WCOJ_STORAGE_LEVEL_KEYS_H_
