#ifndef WCOJ_STORAGE_SEARCH_KERNELS_H_
#define WCOJ_STORAGE_SEARCH_KERNELS_H_

// Runtime-dispatched block-search kernels for the CSR trie's sorted key
// arrays.
//
// Every hot trie operation (TrieIterator::Seek, the leapfrog join loop,
// TrieIndex::SeekGap) reduces to lower/upper bound over one contiguous
// sorted run. The entry points here keep the galloping outer loop — a
// run of short moves stays amortized O(1 + log distance) — but once the
// gallop has bracketed the answer into a small window, the final scan
// runs a branch-free SIMD count ("how many elements compare before v",
// which in a sorted block *is* the answer index) instead of finishing
// the binary search one element at a time.
//
// Kernels exist for the element types the key tiers store: raw int64
// keys and the unsigned 8/16/32-bit lanes of the packed tiers
// (storage/level_keys.h). Unsigned comparisons are done in SIMD via the
// usual sign-flip trick.
//
// Dispatch is process-global: the best ISA is detected once (AVX2 >
// SSE4.2 > scalar on x86, NEON > scalar on aarch64, scalar elsewhere)
// and can be overridden with ForceSearchKernel — the hook the
// differential test harness and the query runner's --kernel flag use.
// All kernels are exact drop-ins for the scalar path: same result on
// every input, bit for bit, which tests/kernel_differential_test.cc
// enforces against a std::lower_bound oracle for every (kernel, type)
// pair.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace wcoj {

enum class KernelKind : uint8_t { kScalar, kSse4, kAvx2, kNeon, kAuto };

// Stable lowercase names ("scalar", "sse4", "avx2", "neon", "auto").
const char* KernelName(KernelKind kind);
// Parses a KernelName back; false (and *out untouched) on unknown names.
bool ParseKernelName(const std::string& name, KernelKind* out);

// Whether this CPU can run `kind` (kScalar and kAuto are always true).
bool KernelSupported(KernelKind kind);
// Concrete kinds runnable on this CPU, kScalar first. Never empty.
std::vector<KernelKind> SupportedKernels();

// Sets the process-wide kernel. kAuto re-enables detection; forcing an
// unsupported kind falls back to scalar. Returns the concrete kind now
// active. Thread-safe (atomic swap), but intended for setup/test code,
// not for flipping mid-query.
KernelKind ForceSearchKernel(KernelKind kind);
// The concrete kind seeks currently dispatch to.
KernelKind ActiveSearchKernel();

// Least index in [lo, hi) with a[i] >= v (KernelLowerBound) resp.
// a[i] > v (KernelUpperBound), galloping from lo; [lo, hi) must be
// sorted ascending. Returns hi when no such element exists.
size_t KernelLowerBound(const int64_t* a, size_t lo, size_t hi, int64_t v);
size_t KernelUpperBound(const int64_t* a, size_t lo, size_t hi, int64_t v);
size_t KernelLowerBound(const uint32_t* a, size_t lo, size_t hi, uint32_t v);
size_t KernelUpperBound(const uint32_t* a, size_t lo, size_t hi, uint32_t v);
size_t KernelLowerBound(const uint16_t* a, size_t lo, size_t hi, uint16_t v);
size_t KernelUpperBound(const uint16_t* a, size_t lo, size_t hi, uint16_t v);
size_t KernelLowerBound(const uint8_t* a, size_t lo, size_t hi, uint8_t v);
size_t KernelUpperBound(const uint8_t* a, size_t lo, size_t hi, uint8_t v);

}  // namespace wcoj

#endif  // WCOJ_STORAGE_SEARCH_KERNELS_H_
