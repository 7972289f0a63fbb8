#ifndef WCOJ_BASELINE_BINARY_JOIN_H_
#define WCOJ_BASELINE_BINARY_JOIN_H_

// Pairwise hash-join executor over a Selinger-style plan: the stand-in for
// the conventional relational systems the paper benchmarks (PostgreSQL /
// MonetDB). Each plan step hash-joins the materialized intermediate with
// the next atom; on cyclic graph patterns the intermediates blow up by the
// Ω(sqrt(N)) factor the paper attributes to all pairwise optimizers, which
// is exactly the behaviour the comparison needs.

#include "baseline/planner.h"
#include "core/engine.h"

namespace wcoj {

// "psql" plans with kDynamicProgramming (DP-optimized left-deep plan),
// "monetdb" with kGreedySmallest (greedy smallest-first plan).
class BinaryJoinEngine : public Engine {
 public:
  explicit BinaryJoinEngine(PlanStrategy strategy) : strategy_(strategy) {}

  std::string name() const override {
    return strategy_ == PlanStrategy::kDynamicProgramming ? "psql"
                                                          : "monetdb";
  }
  ExecResult Execute(const BoundQuery& q,
                     const ExecOptions& opts) const override;
  // Probes catalog indexes permuted by plan step, not by GAO.
  CatalogWarmup catalog_warmup() const override {
    return CatalogWarmup::kByExecution;
  }

 private:
  PlanStrategy strategy_;
};

}  // namespace wcoj

#endif  // WCOJ_BASELINE_BINARY_JOIN_H_
