#ifndef WCOJ_CORE_ATOM_INDEX_H_
#define WCOJ_CORE_ATOM_INDEX_H_

// Per-execution resolution of the GAO-consistent trie index of every
// atom in a BoundQuery — the one place the LFTJ / Minesweeper / hybrid
// engines get their indexes from. Every index comes from an
// IndexCatalog: the query's own (LogicBlox's resident-index regime,
// shared and memoized across executions), or, when the query carries
// none, a catalog private to this execution. Either way repeated
// (relation, permutation) pairs share one trie.

#include <memory>
#include <vector>

#include "core/engine.h"
#include "query/query.h"
#include "storage/catalog.h"
#include "storage/trie.h"

namespace wcoj {

class AtomIndexSet {
 public:
  // Resolves one index per atom of `q` through q.catalog (or a private
  // catalog when it is null), recording build / cache-hit counts into
  // *stats. `budget` governs any builds this resolution performs; a
  // refused build leaves a null slot and a non-OK status() — engines
  // must check ok() before probing.
  AtomIndexSet(const BoundQuery& q, EngineStats* stats,
               MemoryBudget* budget = nullptr);

  const TrieIndex* at(size_t atom) const { return ptrs_[atom]; }
  size_t size() const { return ptrs_.size(); }

  // OK iff every atom resolved an index; otherwise the first build
  // failure (budget refusal / injected fault).
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

 private:
  std::unique_ptr<IndexCatalog> private_catalog_;  // iff q.catalog is null
  std::vector<const TrieIndex*> ptrs_;
  Status status_;
};

// Pre-builds the GAO-consistent index of every atom of `q` in its
// catalog (no-op without one), so subsequent executions — e.g. the
// §4.10 partitioner's jobs — run warm. Returns the build/hit counts.
EngineStats WarmQueryIndexes(const BoundQuery& q);

}  // namespace wcoj

#endif  // WCOJ_CORE_ATOM_INDEX_H_
