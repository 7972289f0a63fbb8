#ifndef WCOJ_CORE_HYBRID_H_
#define WCOJ_CORE_HYBRID_H_

// Hybrid Minesweeper + LFTJ (§4.12).
//
// For lollipop-shaped queries — a path prefix feeding a clique — the paper
// runs Minesweeper on the path attributes (where its CDS caching shines)
// and Leapfrog Triejoin on the clique attributes (where simultaneous
// multiway intersection shines), with the complete-node caching of Idea 6
// effectively memoizing the clique count per junction value.
//
// This engine generalizes that: it finds the largest split depth s such
// that every atom either lies entirely inside GAO positions [0, s) or
// touches only the junction position s-1 plus positions >= s, and some
// suffix atom contains the junction. Minesweeper enumerates the prefix;
// per distinct junction value j the suffix count is computed once with
// LFTJ (its first variable restricted to [j, j]) and memoized. Queries
// with no valid split fall back to pure Minesweeper.

#include "core/engine.h"

namespace wcoj {

class HybridEngine : public Engine {
 public:
  std::string name() const override { return "hybrid"; }
  ExecResult Execute(const BoundQuery& q,
                     const ExecOptions& opts) const override;

  // Largest valid split depth (prefix length), or 0 if none (pure MS).
  static int FindSplit(const BoundQuery& q);
};

}  // namespace wcoj

#endif  // WCOJ_CORE_HYBRID_H_
