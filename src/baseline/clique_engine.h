#ifndef WCOJ_BASELINE_CLIQUE_ENGINE_H_
#define WCOJ_BASELINE_CLIQUE_ENGINE_H_

// Specialized clique counter: the GraphLab stand-in (§5.1).
//
// Recognizes the 3-clique and 4-clique patterns (atoms forming K3/K4 over
// an oriented edge relation, or a symmetric one with a full `<` chain) and
// answers them with the degree-ordered *forward* algorithm on adjacency
// intersections — the hand-optimized code path a dedicated graph engine
// ships. Any other query is reported unsupported, mirroring the paper's
// note that extending GraphLab beyond these two queries was impractical.

#include "core/engine.h"

namespace wcoj {

class CliqueEngine : public Engine {
 public:
  std::string name() const override { return "clique"; }
  ExecResult Execute(const BoundQuery& q,
                     const ExecOptions& opts) const override;
  // Builds its own forward adjacency; never touches the catalog.
  CatalogWarmup catalog_warmup() const override {
    return CatalogWarmup::kNone;
  }
  // A range-restricted Execute is exact (the tally keeps only var0's
  // range), but each call rebuilds the whole forward graph and
  // enumerates every clique, so the morsel scheduler runs this engine as
  // one morsel.
  bool honors_var0_range() const override { return false; }

  // True iff Execute would handle this query (K3 or K4 pattern).
  static bool Supports(const BoundQuery& q);
};

}  // namespace wcoj

#endif  // WCOJ_BASELINE_CLIQUE_ENGINE_H_
