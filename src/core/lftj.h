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

#include <vector>

#include "core/engine.h"
#include "storage/trie.h"

namespace wcoj {

class LftjEngine : public Engine {
 public:
  std::string name() const override { return "lftj"; }
  ExecResult Execute(const BoundQuery& q,
                     const ExecOptions& opts) const override;

  // Like Execute, but reuses caller-owned per-atom trie indexes (aligned
  // with q.atoms; each must be ordered by the atom's GAO positions). Used
  // by callers that issue many LFTJ calls over the same relations — the
  // hybrid engine invokes LFTJ once per junction value and must not
  // re-sort the suffix relations every time.
  ExecResult ExecuteWithIndexes(const BoundQuery& q, const ExecOptions& opts,
                                const std::vector<const TrieIndex*>& indexes)
      const;
};

}  // namespace wcoj

#endif  // WCOJ_CORE_LFTJ_H_
