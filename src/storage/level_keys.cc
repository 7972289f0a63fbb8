#include "storage/level_keys.h"

#include <algorithm>
#include <cassert>
#include <cstring>

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
  switch (tier) {
    case KeyTier::kRaw:
      return "raw";
    case KeyTier::kPacked8:
      return "packed8";
    case KeyTier::kPacked16:
      return "packed16";
    case KeyTier::kPacked32:
      return "packed32";
  }
  return "raw";
}

const char* TierPolicyName(TierPolicy policy) {
  switch (policy) {
    case TierPolicy::kAuto:
      return "auto";
    case TierPolicy::kRawOnly:
      return "raw-only";
    case TierPolicy::kForcePacked:
      return "force-packed";
  }
  return "auto";
}

bool ParseTierPolicyName(const char* name, TierPolicy* out) {
  for (const TierPolicy p : {TierPolicy::kAuto, TierPolicy::kRawOnly,
                             TierPolicy::kForcePacked}) {
    if (std::strcmp(name, TierPolicyName(p)) == 0) {
      *out = p;
      return true;
    }
  }
  return false;
}

void LevelKeys::TryPack(const std::vector<Value>& keys) {
  const auto [min_it, max_it] = std::minmax_element(keys.begin(), keys.end());
  const uint64_t span = Span(*min_it, *max_it);
  if (span > UINT32_MAX) return;  // includes int64-extreme domains
  base_ = *min_it;
  if (span <= UINT8_MAX) {
    tier_ = KeyTier::kPacked8;
    p8_store_.reserve(keys.size());
    for (const Value k : keys) {
      p8_store_.push_back(static_cast<uint8_t>(Span(base_, k)));
    }
    p8_ = p8_store_.data();
  } else if (span <= UINT16_MAX) {
    tier_ = KeyTier::kPacked16;
    p16_store_.reserve(keys.size());
    for (const Value k : keys) {
      p16_store_.push_back(static_cast<uint16_t>(Span(base_, k)));
    }
    p16_ = p16_store_.data();
  } else {
    tier_ = KeyTier::kPacked32;
    p32_store_.reserve(keys.size());
    for (const Value k : keys) {
      p32_store_.push_back(static_cast<uint32_t>(Span(base_, k)));
    }
    p32_ = p32_store_.data();
  }
}

void LevelKeys::Build(std::vector<Value> keys, TierPolicy policy,
                      bool compressible) {
  *this = LevelKeys();  // drop any previous backing or view
  size_ = keys.size();
  tier_ = KeyTier::kRaw;
  if (compressible && size_ >= 2 &&
      (policy == TierPolicy::kForcePacked ||
       (policy == TierPolicy::kAuto && size_ >= kAutoMinKeys))) {
    TryPack(keys);
  }
  if (tier_ == KeyTier::kRaw) {
    raw_store_ = std::move(keys);
    raw_ = raw_store_.data();
  }
}

void LevelKeys::BindRawView(const Value* keys, size_t n) {
  *this = LevelKeys();
  view_ = true;
  tier_ = KeyTier::kRaw;
  size_ = n;
  raw_ = keys;
}

void LevelKeys::BindPackedView(KeyTier tier, Value base, const void* payload,
                               size_t n) {
  assert(tier == KeyTier::kPacked8 || tier == KeyTier::kPacked16 ||
         tier == KeyTier::kPacked32);
  *this = LevelKeys();
  view_ = true;
  tier_ = tier;
  size_ = n;
  base_ = base;
  switch (tier) {
    case KeyTier::kPacked8:
      p8_ = static_cast<const uint8_t*>(payload);
      break;
    case KeyTier::kPacked16:
      p16_ = static_cast<const uint16_t*>(payload);
      break;
    default:
      p32_ = static_cast<const uint32_t*>(payload);
      break;
  }
}

const void* LevelKeys::PayloadData() const {
  switch (tier_) {
    case KeyTier::kRaw:
      return raw_;
    case KeyTier::kPacked8:
      return p8_;
    case KeyTier::kPacked16:
      return p16_;
    case KeyTier::kPacked32:
      return p32_;
  }
  return nullptr;
}

size_t LevelKeys::PayloadBytes() const {
  switch (tier_) {
    case KeyTier::kRaw:
      return size_ * sizeof(Value);
    case KeyTier::kPacked8:
      return size_ * sizeof(uint8_t);
    case KeyTier::kPacked16:
      return size_ * sizeof(uint16_t);
    case KeyTier::kPacked32:
      return size_ * sizeof(uint32_t);
  }
  return 0;
}

size_t LevelKeys::LowerBound(size_t lo, size_t hi, Value v) const {
  if (lo >= hi) return lo;
  if (tier_ == KeyTier::kRaw) return KernelLowerBound(raw_, lo, hi, v);
  // Translate the target into offset space once; the translation is
  // order-preserving on the encodable range, and targets outside it
  // resolve to the range ends without touching the array.
  if (v <= base_) return lo;  // every key >= base_
  const uint64_t target = Span(base_, v);
  if (tier_ == KeyTier::kPacked8) {
    if (target > UINT8_MAX) return hi;
    return KernelLowerBound(p8_, lo, hi, static_cast<uint8_t>(target));
  }
  if (tier_ == KeyTier::kPacked16) {
    if (target > UINT16_MAX) return hi;
    return KernelLowerBound(p16_, lo, hi, static_cast<uint16_t>(target));
  }
  if (target > UINT32_MAX) return hi;
  return KernelLowerBound(p32_, lo, hi, static_cast<uint32_t>(target));
}

size_t LevelKeys::UpperBound(size_t lo, size_t hi, Value v) const {
  // The least key > v is the least key >= v + 1. No key exceeds kPosInf,
  // so there the bound is the range end. On a packed tier a target at
  // the lane maximum becomes one past it, which LowerBound maps to hi.
  if (v == kPosInf) return lo < hi ? hi : lo;
  return LowerBound(lo, hi, v + 1);
}

void LevelKeys::Decode(size_t lo, size_t hi, Value* out) const {
  auto packed = [&](const auto* lanes) {
    for (size_t i = lo; i < hi; ++i) {
      *out++ = base_ + static_cast<Value>(lanes[i]);
    }
  };
  switch (tier_) {
    case KeyTier::kRaw:
      std::copy(raw_ + lo, raw_ + hi, out);
      return;
    case KeyTier::kPacked8:
      packed(p8_);
      return;
    case KeyTier::kPacked16:
      packed(p16_);
      return;
    case KeyTier::kPacked32:
      packed(p32_);
      return;
  }
}

size_t LevelKeys::MemoryBytes() const {
  if (view_) return 0;  // mapped bytes are owned by the file mapping
  switch (tier_) {
    case KeyTier::kRaw:
      return raw_store_.size() * sizeof(Value);
    case KeyTier::kPacked8:
      return p8_store_.size() * sizeof(uint8_t);
    case KeyTier::kPacked16:
      return p16_store_.size() * sizeof(uint16_t);
    case KeyTier::kPacked32:
      return p32_store_.size() * sizeof(uint32_t);
  }
  return 0;
}

}  // namespace wcoj
