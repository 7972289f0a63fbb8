#ifndef WCOJ_QUERY_AGM_H_
#define WCOJ_QUERY_AGM_H_

// AGM output-size bound (Atserias–Grohe–Marx; Appendix A of the paper).
//
// Solves the fractional-edge-cover LP
//
//   minimize   sum_F log2|R_F| * x_F
//   subject to sum_{F : v in F} x_F >= 1  for every variable v,  x >= 0
//
// and reports the bound prod_F |R_F|^{x_F} = 2^{objective}. Worst-case
// optimal algorithms (LFTJ) run in O~(N + AGM(Q)).

#include <vector>

#include "query/query.h"

namespace wcoj {

struct AgmResult {
  bool ok = false;            // false if some variable is in no atom
  double log2_bound = 0.0;    // log2 of the AGM bound
  double bound = 0.0;         // 2^log2_bound (may overflow to inf)
  std::vector<double> cover;  // optimal fractional edge cover, one per atom
};

AgmResult AgmBound(const BoundQuery& q);

}  // namespace wcoj

#endif  // WCOJ_QUERY_AGM_H_
