#include "query/agm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/simplex.h"

namespace wcoj {

AgmResult AgmBound(const BoundQuery& q) {
  AgmResult result;
  const size_t m = q.atoms.size();
  std::vector<double> sizes;
  for (const auto& atom : q.atoms) {
    sizes.push_back(static_cast<double>(atom.relation->size()));
  }

  // Empty relation: the join is empty, bound is 0 (log2 -> -inf; report 0).
  for (double s : sizes) {
    if (s <= 0) {
      result.ok = true;
      result.log2_bound = -std::numeric_limits<double>::infinity();
      result.bound = 0.0;
      result.cover.assign(m, 0.0);
      return result;
    }
  }

  std::vector<std::vector<double>> a;
  std::vector<double> b;
  for (int v = 0; v < q.num_vars; ++v) {
    std::vector<double> row(m, 0.0);
    bool covered = false;
    for (size_t f = 0; f < m; ++f) {
      const auto& vars = q.atoms[f].vars;
      if (std::find(vars.begin(), vars.end(), v) != vars.end()) {
        row[f] = 1.0;
        covered = true;
      }
    }
    if (!covered) return result;  // variable not coverable: LP infeasible
    a.push_back(std::move(row));
    b.push_back(1.0);
  }

  std::vector<double> c(m);
  for (size_t f = 0; f < m; ++f) c[f] = std::log2(std::max(sizes[f], 1.0));

  const LpResult lp = SolveMinLp(a, b, c);
  if (!lp.feasible || !lp.bounded) return result;
  result.ok = true;
  result.log2_bound = lp.objective;
  result.bound = std::exp2(lp.objective);
  result.cover = lp.x;
  return result;
}

}  // namespace wcoj
