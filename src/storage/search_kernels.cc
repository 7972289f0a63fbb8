#include "storage/search_kernels.h"

namespace wcoj {

namespace {

// Once the gallop has bracketed the answer, bisect only while the
// bracket is wider than this; below it, counting the whole bracket beats
// the remaining data-dependent branches. The cut is the same for every
// lane width: wider (SIMD-sized) cuts measured slower on the engines.
constexpr size_t kBlockCut = 16;

}  // namespace

const char* KernelName(KernelKind) { return "portable"; }

KernelKind ActiveSearchKernel() { return KernelKind::kPortable; }

template <typename T>
size_t KernelLowerBound(const T* a, size_t lo, size_t hi, T v) {
  // Exponential probe from lo to bracket the answer in [x, b).
  size_t step = 1;
  size_t x = lo, b = lo;
  while (b < hi && a[b] < v) {
    x = b + 1;
    b = lo + step;
    step <<= 1;
  }
  b = b < hi ? b : hi;
  // Bisect the bracket down to one block, then count it. The count only
  // reads [x, b), so it stays in bounds however the caller bracketed.
  while (b - x > kBlockCut) {
    const size_t mid = x + (b - x) / 2;
    if (a[mid] < v) {
      x = mid + 1;
    } else {
      b = mid;
    }
  }
  size_t n = x;
  for (size_t i = x; i < b; ++i) n += a[i] < v;
  return n;
}

template size_t KernelLowerBound(const int64_t*, size_t, size_t, int64_t);
template size_t KernelLowerBound(const uint32_t*, size_t, size_t, uint32_t);
template size_t KernelLowerBound(const uint16_t*, size_t, size_t, uint16_t);
template size_t KernelLowerBound(const uint8_t*, size_t, size_t, uint8_t);

}  // namespace wcoj
