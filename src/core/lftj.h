#ifndef WCOJ_CORE_LFTJ_H_
#define WCOJ_CORE_LFTJ_H_

// Leapfrog Triejoin (Veldhuizen '14): the worst-case optimal multiway join
// (§2.2 of the paper). Variables are processed in GAO order; at each depth
// the participating atoms' trie iterators are intersected with a unary
// leapfrog join, turning the whole join into nested intersections. Runs in
// O~(N + AGM(Q)).
//
// Inequality filters (`a<b`) are enforced at binding time; when the later
// variable of a filter is being bound, the intersection is seeked directly
// past the earlier variable's value, which is what makes the `a<b<c`
// clique encodings effective.
//
// Count-only runs (collect_tuples unset: every paper table and served
// query) never bind the last GAO variable. Each binding of the others
// adds the size of the last variable's key-span intersection
// (storage/intersect.h) within a window its filters allow — earlier
// lower bounds and var0_min raise the low end; a filter `last < x` and
// var0_max (when the first variable is the last) lower the high end;
// any other out-of-order filter is checked before counting. Bound
// searches inside the intersection count as seeks; merged keys do not.

#include "core/engine.h"

namespace wcoj {

class LftjEngine : public Engine {
 public:
  std::string name() const override { return "lftj"; }
  ExecResult Execute(const BoundQuery& q,
                     const ExecOptions& opts) const override;
};

}  // namespace wcoj

#endif  // WCOJ_CORE_LFTJ_H_
