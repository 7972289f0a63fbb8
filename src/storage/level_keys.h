#ifndef WCOJ_STORAGE_LEVEL_KEYS_H_
#define WCOJ_STORAGE_LEVEL_KEYS_H_

// LevelKeys: one trie level's key array behind a tier-blind accessor.
//
// Every level is a contiguous sorted-within-group key array. For a dense
// level, 8 bytes per key is mostly sign extension, so a level may be
// stored in one compressed *tier* instead of raw int64: kPacked16,
// 16-bit offsets from the level's minimum key (frame of reference). A
// seek translates its target once and gallops over the narrow lanes,
// so the working set shrinks 4x.
//
// The tier is a pure function of the keys, decided in Build: a
// compressible level with at least kAutoMinKeys keys whose span
// (max - min) fits 16 bits is packed16; every other level is raw.
// Nothing else chooses an encoding, so a level's bytes depend only on
// the relation and the permutation it was built from.
//
// Every read goes through At / LowerBound / UpperBound, so iterators,
// SeekGap, SplitPoints, and the engines above them are layout-blind.
// Bound searches gallop (amortized O(1 + log distance), the contract
// both join algorithms assume) and finish in the branch-free block count
// of storage/search_kernels.h, in the tier's native lane width.
// Encoding never changes results: tests/storage_test.cc and
// tests/kernel_differential_test.cc build inputs that land on each tier
// and check both against naive references.
//
// Storage is a pointer + backing pair: both tiers read through const
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

// The values are the on-disk tier tags of storage/persist.h; 1, 3 and 4
// belonged to retired tiers (packed8, packed32, delta) and stay unused.
enum class KeyTier : uint8_t { kRaw = 0, kPacked16 = 2 };

const char* TierName(KeyTier tier);

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

  // Levels below this key count stay raw: the decode is not worth it.
  static constexpr size_t kAutoMinKeys = 64;

  // Takes ownership of a level's keys (sorted within each parent group)
  // and encodes them: packed16 when `compressible`, at least
  // kAutoMinKeys keys, and a span that fits 16 bits; raw otherwise.
  // `compressible` is the degenerate-level guard: false for arity-1
  // tries and for empty or single-key levels.
  void Build(std::vector<Value> keys, bool compressible);

  // --- Non-owning views (the storage/persist.h mmap path) ---
  //
  // Bind this level to encoded payloads owned elsewhere (a mapped
  // catalog file). The bytes must stay valid and immutable for the
  // LevelKeys' lifetime and be aligned to the element width. Any owned
  // backing is released; MemoryBytes() reports 0 afterwards.
  void BindRawView(const Value* keys, size_t n);
  void BindPackedView(Value base, const uint16_t* payload, size_t n);

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

  // Decodes the key at index i. O(1) for both tiers.
  Value At(size_t i) const {
    return tier_ == KeyTier::kRaw ? raw_[i]
                                  : base_ + static_cast<Value>(p16_[i]);
  }

  // Decodes keys [lo, hi) into out[0, hi - lo), testing the tier once
  // per call rather than once per key.
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
  KeyTier tier_ = KeyTier::kRaw;
  size_t size_ = 0;
  bool view_ = false;
  // Decode pointers: aimed at the owned stores below, or at mapped
  // bytes in view mode. Only the active tier's pointers are set.
  const Value* raw_ = nullptr;  // kRaw
  // kPacked16: key = base_ + p16_[i]
  Value base_ = 0;
  const uint16_t* p16_ = nullptr;
  // Owned backing (empty in view mode).
  std::vector<Value> raw_store_;
  std::vector<uint16_t> p16_store_;
};

}  // namespace wcoj

#endif  // WCOJ_STORAGE_LEVEL_KEYS_H_
