#ifndef WCOJ_STORAGE_SEARCH_KERNELS_H_
#define WCOJ_STORAGE_SEARCH_KERNELS_H_

// The bound search behind every seek over the CSR trie's sorted key
// arrays.
//
// Every hot trie operation (TrieIterator::Seek, the leapfrog join loop,
// TrieIndex::SeekGap, the count path's gallop) reduces to a lower bound
// over one contiguous sorted run. KernelLowerBound gallops from lo, so a
// run of short moves stays amortized O(1 + log distance), bisects the
// bracket down to at most kBlockCut elements, and finishes with one
// branch-free count ("how many elements compare before v", which in a
// sorted block *is* the answer index) instead of the last log2 steps.
//
// It is instantiated for the element types the key tiers store: raw
// int64 keys and the unsigned 8/16/32-bit lanes of the packed tiers
// (storage/level_keys.h). An upper bound is the lower bound of v + 1
// (LevelKeys::UpperBound). There is one portable path on every CPU;
// tests/kernel_differential_test.cc pins it against std::lower_bound
// for every element type.

#include <cstddef>
#include <cstdint>

namespace wcoj {

// The one search path. KernelName/ActiveSearchKernel name it in run
// metadata (perfbench records which search produced a result).
enum class KernelKind : uint8_t { kPortable };

// Stable lowercase name ("portable").
const char* KernelName(KernelKind kind);
// The search every seek runs; always kPortable.
KernelKind ActiveSearchKernel();

// Least index in [lo, hi) with a[i] >= v, galloping from lo; [lo, hi)
// must be sorted ascending. Returns hi when no such element exists.
// Defined for T = int64_t, uint32_t, uint16_t and uint8_t.
template <typename T>
size_t KernelLowerBound(const T* a, size_t lo, size_t hi, T v);

}  // namespace wcoj

#endif  // WCOJ_STORAGE_SEARCH_KERNELS_H_
