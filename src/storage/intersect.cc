#include "storage/intersect.h"

#include <algorithm>
#include <type_traits>

namespace wcoj {

namespace {

// Branch-free merge of two sorted distinct runs: the loop body has no
// data-dependent branch, only the bounds test, so a mispredict-heavy
// interleaving costs the same as a run of equal keys. With kKeep the
// common keys are written to out (sized >= min(na, nb)); the store is
// unconditional and only the length moves on a match.
template <bool kKeep, typename T>
size_t Merge(const T* a, size_t na, const T* b, size_t nb, T* out,
             uint64_t* merged) {
  if (a[na - 1] < b[0] || b[nb - 1] < a[0]) return 0;  // disjoint ranges
  size_t i = 0, j = 0, n = 0;
  while (i < na && j < nb) {
    const T x = a[i];
    const T y = b[j];
    if constexpr (kKeep) out[n] = x;
    n += x == y;
    i += x <= y;
    j += y <= x;
  }
  *merged += i + j;
  return n;
}

// Gallops each of a's keys (base + lane) into span s with
// LevelKeys::LowerBound, resuming from the previous landing point; one
// probe per key until s runs out.
template <bool kKeep, typename T>
size_t Gallop(const T* a, size_t na, const KeySpan& s, Value base, T* out,
              uint64_t* probes) {
  size_t pos = s.begin, n = 0;
  for (size_t i = 0; i < na && pos < s.end; ++i) {
    const Value v = base + static_cast<Value>(a[i]);
    pos = s.keys->LowerBound(pos, s.end, v);
    ++*probes;
    if (pos < s.end && s.keys->At(pos) == v) {
      if constexpr (kKeep) out[n] = a[i];
      ++n;
      ++pos;
    }
  }
  return n;
}

}  // namespace

template <typename T>
const T* SpanIntersector::Lanes(const KeySpan& s, int slot) {
  if constexpr (std::is_same_v<T, Value>) {
    if (s.keys->tier() != KeyTier::kRaw) {
      std::vector<Value>& d = decoded_[slot];
      if (d.size() < s.size()) d.resize(s.size());
      s.keys->Decode(s.begin, s.end, d.data());
      return d.data();
    }
  }
  return static_cast<const T*>(s.keys->PayloadData()) + s.begin;
}

template <typename T>
uint64_t SpanIntersector::CountLanes(std::span<const KeySpan> spans,
                                     Value base, IntersectWork* work) {
  Candidates<T>& cands = std::get<Candidates<T>>(candidates_);
  const T* cand = Lanes<T>(spans[0], 0);
  size_t n = spans[0].size();
  for (size_t i = 1; i < spans.size(); ++i) {
    const KeySpan& s = spans[i];
    const bool last = i + 1 == spans.size();
    T* out = nullptr;
    if (!last) {
      std::vector<T>& buf = cands.buf[i & 1];
      if (buf.size() < n) buf.resize(n);
      out = buf.data();
    }
    if (s.size() >= kGallopRatio * n) {
      n = last ? Gallop<false>(cand, n, s, base, out, &work->probes)
               : Gallop<true>(cand, n, s, base, out, &work->probes);
    } else {
      const T* lanes = Lanes<T>(s, 1);
      n = last ? Merge<false>(cand, n, lanes, s.size(), out, &work->merged)
               : Merge<true>(cand, n, lanes, s.size(), out, &work->merged);
    }
    if (n == 0) return 0;
    cand = out;
  }
  return n;
}

uint64_t SpanIntersector::Count(std::span<KeySpan> spans, Value lo, Value hi,
                                IntersectWork* work) {
  if (spans.empty() || lo > hi) return 0;
  for (KeySpan& s : spans) {
    if (s.begin < s.end && s.keys->At(s.begin) < lo) {
      ++work->probes;
      s.begin = s.keys->LowerBound(s.begin, s.end, lo);
    }
    if (s.begin < s.end && s.keys->At(s.end - 1) > hi) {
      ++work->probes;
      s.end = s.keys->UpperBound(s.begin, s.end, hi);
    }
    if (s.begin == s.end) return 0;
  }
  if (spans.size() == 1) return spans[0].size();
  std::sort(spans.begin(), spans.end(),
            [](const KeySpan& a, const KeySpan& b) {
              return a.size() < b.size();
            });

  // Native lanes need one tier and one frame of reference.
  const LevelKeys& first = *spans[0].keys;
  const KeyTier tier = first.tier();
  bool native = true;
  for (const KeySpan& s : spans) {
    native = native && s.keys->tier() == tier &&
             (tier == KeyTier::kRaw ||
              s.keys->packed_base() == first.packed_base());
  }
  if (native && tier == KeyTier::kPacked16) {
    return CountLanes<uint16_t>(spans, first.packed_base(), work);
  }
  return CountLanes<Value>(spans, 0, work);
}

}  // namespace wcoj
