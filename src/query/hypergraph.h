#ifndef WCOJ_QUERY_HYPERGRAPH_H_
#define WCOJ_QUERY_HYPERGRAPH_H_

// Hypergraph structure of a query (§2.1) and the acyclicity machinery the
// paper relies on:
//
//  * α-acyclicity via GYO reduction (Yannakakis applies).
//  * β-acyclicity via nest-point elimination (Minesweeper's instance
//    optimality applies).
//  * The *nested-prefix* test: the operational form of "this GAO is a
//    nested elimination order (NEO)" used by our Minesweeper. At every GAO
//    depth d, each atom that is indexed through d contributes the set of
//    its attributes occurring before d; the test demands those sets form a
//    chain under inclusion, which is exactly what makes the CDS principal
//    filters chains (Proposition 4.2).
//  * The β-acyclic skeleton (Idea 7): a maximal subset of atoms for which
//    the GAO passes the nested-prefix test; the rest only advance the
//    frontier.
//  * A NEO search over variable orders for β-acyclic queries (§4.9).

#include <optional>
#include <string>
#include <vector>

#include "query/query.h"

namespace wcoj {

struct Hypergraph {
  int num_vertices = 0;
  std::vector<std::vector<int>> edges;  // each sorted ascending, de-duped

  static Hypergraph FromQuery(const Query& q);  // vertices in first-use order
};

// GYO reduction: true iff the hypergraph reduces to empty.
bool IsAlphaAcyclic(const Hypergraph& h);

// Nest-point elimination: true iff every vertex can be eliminated while its
// incident edges form an inclusion chain.
bool IsBetaAcyclic(const Hypergraph& h);

// `atom_vars[i]` = sorted GAO positions of atom i. True iff for each depth
// d the prefix sets {positions of atom < d : atom indexed through d} form
// an inclusion chain.
bool GaoIsNested(const std::vector<std::vector<int>>& atom_vars,
                 int num_vars);
bool GaoIsNested(const BoundQuery& q);

// Greedy maximal subset of atoms (in input order) keeping GaoIsNested true.
// Result[i] == true iff atom i is in the β-acyclic skeleton.
std::vector<bool> BetaAcyclicSkeleton(const BoundQuery& q);

// Searches variable orders of `q` for one passing GaoIsNested (a NEO).
// Prefers, per §4.9, the NEO with the longest "path length": among valid
// orders we maximize the number of depths whose deepest prefix set is
// nonempty (chains of equalities enable more caching). Exponential in the
// variable count; fine for pattern queries (n <= 8).
std::optional<std::vector<std::string>> FindNeoGao(const Query& q);

}  // namespace wcoj

#endif  // WCOJ_QUERY_HYPERGRAPH_H_
