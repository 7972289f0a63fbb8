#include "storage/level_keys.h"

#include <algorithm>

#include "storage/search_kernels.h"

namespace wcoj {

namespace {

// max - min as an unsigned span; two's-complement subtraction is exact
// for any int64 pair, which is what keeps the int64-extreme domains
// (the PR 5 overflow class) out of undefined behavior here.
uint64_t Span(Value lo, Value hi) {
  return static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
}

}  // namespace

const char* TierName(KeyTier tier) {
  return tier == KeyTier::kPacked16 ? "packed16" : "raw";
}

void LevelKeys::Build(std::vector<Value> keys, bool compressible) {
  *this = LevelKeys();  // drop any previous backing or view
  size_ = keys.size();
  if (compressible && size_ >= kAutoMinKeys) {
    const auto [min_it, max_it] =
        std::minmax_element(keys.begin(), keys.end());
    // A span beyond 16 bits (int64-extreme domains included) stays raw.
    if (Span(*min_it, *max_it) <= UINT16_MAX) {
      tier_ = KeyTier::kPacked16;
      base_ = *min_it;
      p16_store_.reserve(size_);
      for (const Value k : keys) {
        p16_store_.push_back(static_cast<uint16_t>(Span(base_, k)));
      }
      p16_ = p16_store_.data();
      return;
    }
  }
  raw_store_ = std::move(keys);
  raw_ = raw_store_.data();
}

void LevelKeys::BindRawView(const Value* keys, size_t n) {
  *this = LevelKeys();
  view_ = true;
  tier_ = KeyTier::kRaw;
  size_ = n;
  raw_ = keys;
}

void LevelKeys::BindPackedView(Value base, const uint16_t* payload,
                               size_t n) {
  *this = LevelKeys();
  view_ = true;
  tier_ = KeyTier::kPacked16;
  size_ = n;
  base_ = base;
  p16_ = payload;
}

const void* LevelKeys::PayloadData() const {
  return tier_ == KeyTier::kRaw ? static_cast<const void*>(raw_) : p16_;
}

size_t LevelKeys::PayloadBytes() const {
  return size_ * (tier_ == KeyTier::kRaw ? sizeof(Value) : sizeof(uint16_t));
}

size_t LevelKeys::LowerBound(size_t lo, size_t hi, Value v) const {
  if (lo >= hi) return lo;
  if (tier_ == KeyTier::kRaw) return KernelLowerBound(raw_, lo, hi, v);
  // Translate the target into offset space once; the translation is
  // order-preserving on the encodable range, and targets outside it
  // resolve to the range ends without touching the array.
  if (v <= base_) return lo;  // every key >= base_
  const uint64_t target = Span(base_, v);
  if (target > UINT16_MAX) return hi;
  return KernelLowerBound(p16_, lo, hi, static_cast<uint16_t>(target));
}

size_t LevelKeys::UpperBound(size_t lo, size_t hi, Value v) const {
  // The least key > v is the least key >= v + 1. No key exceeds kPosInf,
  // so there the bound is the range end. On a packed tier a target at
  // the lane maximum becomes one past it, which LowerBound maps to hi.
  if (v == kPosInf) return lo < hi ? hi : lo;
  return LowerBound(lo, hi, v + 1);
}

void LevelKeys::Decode(size_t lo, size_t hi, Value* out) const {
  if (tier_ == KeyTier::kRaw) {
    std::copy(raw_ + lo, raw_ + hi, out);
    return;
  }
  for (size_t i = lo; i < hi; ++i) {
    *out++ = base_ + static_cast<Value>(p16_[i]);
  }
}

size_t LevelKeys::MemoryBytes() const {
  if (view_) return 0;  // mapped bytes are owned by the file mapping
  return raw_store_.size() * sizeof(Value) +
         p16_store_.size() * sizeof(uint16_t);
}

}  // namespace wcoj
