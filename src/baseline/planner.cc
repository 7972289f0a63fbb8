#include "baseline/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

namespace wcoj {

std::vector<std::vector<double>> DistinctCounts(const BoundQuery& q) {
  std::vector<std::vector<double>> distinct(q.atoms.size());
  for (size_t a = 0; a < q.atoms.size(); ++a) {
    const auto& atom = q.atoms[a];
    distinct[a].resize(atom.vars.size(), 1.0);
    for (size_t c = 0; c < atom.vars.size(); ++c) {
      std::set<Value> values;
      for (size_t r = 0; r < atom.relation->size(); ++r) {
        values.insert(atom.relation->At(r, static_cast<int>(c)));
      }
      distinct[a][c] = std::max<double>(1.0, values.size());
    }
  }
  return distinct;
}

double EstimateJoinSize(const BoundQuery& q,
                        const std::vector<std::vector<double>>& distinct,
                        const std::vector<int>& atoms) {
  // Textbook System-R estimate: product of relation sizes divided, for
  // each join variable, by the (k-1) largest distinct counts among the k
  // atoms sharing it.
  double size = 1.0;
  for (int a : atoms) {
    size *= std::max<double>(1.0, q.atoms[a].relation->size());
  }
  for (int v = 0; v < q.num_vars; ++v) {
    std::vector<double> counts;
    for (int a : atoms) {
      const auto& vars = q.atoms[a].vars;
      for (size_t c = 0; c < vars.size(); ++c) {
        if (vars[c] == v) counts.push_back(distinct[a][c]);
      }
    }
    if (counts.size() <= 1) continue;
    std::sort(counts.begin(), counts.end());
    for (size_t i = 1; i < counts.size(); ++i) size /= counts[i];
  }
  return std::max(size, 1.0);
}

namespace {

JoinPlan PlanDp(const BoundQuery& q,
                const std::vector<std::vector<double>>& distinct,
                AbortPoll& poll) {
  const int m = static_cast<int>(q.atoms.size());
  const int full = (1 << m) - 1;
  // Left-deep DP: best[S] = (cost, last atom, predecessor subset).
  std::vector<double> best(full + 1, std::numeric_limits<double>::infinity());
  std::vector<int> last(full + 1, -1);

  auto subset_atoms = [&](int s) {
    std::vector<int> atoms;
    for (int a = 0; a < m; ++a) {
      if (s & (1 << a)) atoms.push_back(a);
    }
    return atoms;
  };
  auto connected = [&](int s, int a) {
    for (int b = 0; b < m; ++b) {
      if (!(s & (1 << b))) continue;
      for (int v : q.atoms[b].vars) {
        for (int w : q.atoms[a].vars) {
          if (v == w) return true;
        }
      }
    }
    return false;
  };

  for (int a = 0; a < m; ++a) best[1 << a] = 0.0;
  for (int s = 1; s <= full; ++s) {
    if (poll.Check(m)) return {};
    if (best[s] == std::numeric_limits<double>::infinity()) continue;
    const double sub_size = EstimateJoinSize(q, distinct, subset_atoms(s));
    for (int a = 0; a < m; ++a) {
      if (s & (1 << a)) continue;
      const int ns = s | (1 << a);
      const std::vector<int> atoms = subset_atoms(ns);
      // Penalize cross joins heavily; Selinger avoids them when possible.
      const double penalty = connected(s, a) ? 1.0 : 1e6;
      const double cost =
          best[s] + sub_size + penalty * EstimateJoinSize(q, distinct, atoms);
      if (cost < best[ns]) {
        best[ns] = cost;
        last[ns] = a;
      }
    }
  }
  JoinPlan plan;
  plan.estimated_cost = best[full];
  int s = full;
  while (s != 0) {
    int a = last[s];
    if (a < 0) {  // single-atom subset
      a = subset_atoms(s)[0];
    }
    plan.atom_order.push_back(a);
    s &= ~(1 << a);
  }
  std::reverse(plan.atom_order.begin(), plan.atom_order.end());
  return plan;
}

JoinPlan PlanGreedy(const BoundQuery& q,
                    const std::vector<std::vector<double>>& distinct,
                    AbortPoll& poll) {
  const int m = static_cast<int>(q.atoms.size());
  JoinPlan plan;
  std::vector<bool> used(m, false);
  // Start from the smallest relation.
  int first = 0;
  for (int a = 1; a < m; ++a) {
    if (q.atoms[a].relation->size() < q.atoms[first].relation->size()) {
      first = a;
    }
  }
  plan.atom_order.push_back(first);
  used[first] = true;
  for (int step = 1; step < m; ++step) {
    int pick = -1;
    double pick_size = std::numeric_limits<double>::infinity();
    for (int a = 0; a < m; ++a) {
      if (used[a]) continue;
      if (poll.Check()) return {};
      std::vector<int> atoms = plan.atom_order;
      atoms.push_back(a);
      const double size = EstimateJoinSize(q, distinct, atoms);
      if (size < pick_size) {
        pick_size = size;
        pick = a;
      }
    }
    plan.atom_order.push_back(pick);
    used[pick] = true;
    plan.estimated_cost += pick_size;
  }
  return plan;
}

}  // namespace

JoinPlan PlanJoin(const BoundQuery& q, PlanStrategy strategy,
                  AbortPoll& poll) {
  const auto distinct = DistinctCounts(q);
  return strategy == PlanStrategy::kDynamicProgramming &&
                 static_cast<int>(q.atoms.size()) <= kDpMaxAtoms
             ? PlanDp(q, distinct, poll)
             : PlanGreedy(q, distinct, poll);
}

}  // namespace wcoj
