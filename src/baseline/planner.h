#ifndef WCOJ_BASELINE_PLANNER_H_
#define WCOJ_BASELINE_PLANNER_H_

// Selinger-style join-order selection for the pairwise baseline.
//
// The paper's point of comparison is the classical optimizer family that
// enumerates pairwise joins with cardinality estimates (Selinger et al.
// '79). We implement two flavors:
//
//  * kDynamicProgramming — left-deep DP over atom subsets with textbook
//    independence/containment estimates (the "smart" plans the paper
//    credits PostgreSQL with on 3-path), up to kDpMaxAtoms atoms.
//  * kGreedySmallest — start from the smallest relation and repeatedly
//    append the atom with the smallest estimated result, ignoring
//    connectivity (the eager self-join-first behaviour the paper observed
//    in MonetDB).
//
// Either way the executor materializes every intermediate result — the
// asymptotic weakness worst-case optimal joins fix.

#include <vector>

#include "core/engine.h"
#include "query/query.h"

namespace wcoj {

enum class PlanStrategy { kDynamicProgramming, kGreedySmallest };

struct JoinPlan {
  std::vector<int> atom_order;    // order in which atoms are joined
  double estimated_cost = 0.0;    // sum of estimated intermediate sizes
};

// Per-(atom, var) distinct-value counts used by the estimator.
std::vector<std::vector<double>> DistinctCounts(const BoundQuery& q);

// Estimated cardinality of joining the atom set `atoms` (indices into q).
double EstimateJoinSize(const BoundQuery& q,
                        const std::vector<std::vector<double>>& distinct,
                        const std::vector<int>& atoms);

// The DP's tables hold all 2^m atom subsets, so past this many atoms it
// plans greedily. 12 is PostgreSQL's default geqo_threshold.
constexpr int kDpMaxAtoms = 12;

// Both plan loops check the run's `poll`; once it fires the plan is
// incomplete, and the caller winds down with poll.status() instead.
JoinPlan PlanJoin(const BoundQuery& q, PlanStrategy strategy,
                  AbortPoll& poll);

}  // namespace wcoj

#endif  // WCOJ_BASELINE_PLANNER_H_
