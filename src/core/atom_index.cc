#include "core/atom_index.h"

namespace wcoj {

AtomIndexSet::AtomIndexSet(const BoundQuery& q, EngineStats* stats,
                           MemoryBudget* budget) {
  IndexCatalog* catalog = q.catalog;
  if (catalog == nullptr) {
    private_catalog_ = std::make_unique<IndexCatalog>();
    catalog = private_catalog_.get();
  }
  ptrs_.reserve(q.atoms.size());
  for (const BoundAtom& atom : q.atoms) {
    Status build_status;
    const TrieIndex* index = catalog->GetOrBuildCounted(
        *atom.relation, GaoConsistentPerm(atom.vars), &stats->index_builds,
        &stats->index_cache_hits, budget, &build_status);
    if (index == nullptr) {
      if (build_status.ok()) {
        build_status = Status(StatusCode::kInternal, "index build failed");
      }
      status_.Update(build_status);
    }
    ptrs_.push_back(index);
  }
}

EngineStats WarmQueryIndexes(const BoundQuery& q) {
  EngineStats stats;
  if (q.catalog != nullptr) {
    const AtomIndexSet resident(q, &stats);
  }
  return stats;
}

}  // namespace wcoj
