#ifndef WCOJ_BASELINE_YANNAKAKIS_H_
#define WCOJ_BASELINE_YANNAKAKIS_H_

// Yannakakis-style engine for α-acyclic queries (§2.1: "the celebrated
// Yannakakis algorithm runs in linear time" on acyclic queries).
//
// Implementation: a semijoin-reduction program run to fixpoint (for
// α-acyclic queries pairwise semijoins reach the fully reduced state in at
// most |atoms| rounds — equivalent to the two tree passes), followed by a
// pairwise join over the reduced relations. Falls back to the same
// machinery on cyclic inputs, where it enjoys no guarantee — matching how
// a conventional system would behave.

#include "core/engine.h"

namespace wcoj {

class YannakakisEngine : public Engine {
 public:
  std::string name() const override { return "yannakakis"; }
  ExecResult Execute(const BoundQuery& q,
                     const ExecOptions& opts) const override;
  // Joins transient semijoin-reduced copies; never touches the catalog.
  CatalogWarmup catalog_warmup() const override {
    return CatalogWarmup::kNone;
  }
  // A range-restricted Execute is exact (the final pairwise join filters
  // var0 on every atom), but each call reruns the whole semijoin program,
  // so the morsel scheduler runs this engine as one morsel.
  bool honors_var0_range() const override { return false; }
};

}  // namespace wcoj

#endif  // WCOJ_BASELINE_YANNAKAKIS_H_
