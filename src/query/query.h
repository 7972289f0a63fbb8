#ifndef WCOJ_QUERY_QUERY_H_
#define WCOJ_QUERY_QUERY_H_

// Query model.
//
// A Query is the name-level form produced by the parser or by builders:
// atoms over named relations with named variables, plus strict "<" filters
// (the paper's `a<b<c` side conditions on clique/cycle queries).
//
// A BoundQuery is the engine-level form: relation pointers, and variables
// renamed to their positions in the chosen global attribute order (GAO),
// so variable id == GAO depth. All engines consume BoundQuery.

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "storage/relation.h"
#include "util/status.h"

namespace wcoj {

class Database;      // storage/catalog.h
class IndexCatalog;  // storage/catalog.h

struct Atom {
  std::string relation;
  std::vector<std::string> vars;
};

// Represents `lo < hi`.
struct Filter {
  std::string lo;
  std::string hi;
};

struct Query {
  std::vector<Atom> atoms;
  std::vector<Filter> filters;

  // Variables in order of first appearance.
  std::vector<std::string> Variables() const;
  std::string DebugString() const;
};

struct BoundAtom {
  const Relation* relation = nullptr;
  // vars[i] = GAO position of the variable at relation column i.
  std::vector<int> vars;
};

struct BoundQuery {
  int num_vars = 0;
  std::vector<BoundAtom> atoms;
  // Pairs (a, b) meaning value(a) < value(b), with a, b GAO positions.
  std::vector<std::pair<int, int>> less_than;
  std::vector<std::string> var_names;  // indexed by GAO position
  // Shared bind-time index catalog (set by the Database overload of
  // Bind, or by hand) — the only way to hand engines resident tries.
  // Engines fetch memoized GAO-consistent trie indexes through it
  // instead of rebuilding per execution; null means each execution
  // builds into a catalog private to it. Non-owning: the catalog and the
  // relations behind its indexes must outlive every execution of this
  // query.
  IndexCatalog* catalog = nullptr;

  // Sorted GAO positions of atom `i`'s variables.
  std::vector<int> AtomVarsSorted(size_t i) const;
  std::string DebugString() const;
};

// Vets `query` against `relations` before Bind, which trusts its input:
// every atom must name a known relation with that relation's arity and
// must not repeat a variable (the engines index an atom's columns by
// variable), and every filter variable must be bound by some atom.
// Returns kInvalidArgument naming the first violation (for an unknown
// relation, the message lists the known ones), else OK.
Status CheckBindable(const Query& query,
                     const std::map<std::string, const Relation*>& relations);

// Binds `query` against `relations` using `gao` (a permutation of the
// query's variables; every query variable must appear exactly once).
// Every atom's variables are distinct. Dies (assert) on unknown relation
// names or malformed GAOs: callers are in-process test/bench code, not
// an untrusted boundary.
BoundQuery Bind(const Query& query,
                const std::map<std::string, const Relation*>& relations,
                const std::vector<std::string>& gao);

// Binds against a Database: relations are resolved by name and the
// result carries the database's IndexCatalog, so engines execute over
// resident shared indexes (the paper's LogicBlox setting).
BoundQuery Bind(const Query& query, const Database& db,
                const std::vector<std::string>& gao);

// The one gate from untrusted query text (the CLI, the wire) to a bound
// query: parses `text`, vets it with CheckBindable and binds it with the
// first-appearance GAO over `catalog` (may be null). kInvalidArgument on
// a parse error or an unbindable query.
StatusOr<BoundQuery> BindText(
    const std::string& text,
    const std::map<std::string, const Relation*>& relations,
    IndexCatalog* catalog);

// The GAO-consistent trie permutation for one bound atom: perm[i] = the
// relation column exposed at trie depth i, columns ordered by ascending
// GAO position (stable on ties, so equal queries key the same catalog
// entry). Shared by LFTJ, Minesweeper, the hybrid, and the §4.10
// partitioner's catalog pre-warm.
std::vector<int> GaoConsistentPerm(const std::vector<int>& vars);

// True if `t` (indexed by GAO position; entries may be partial up to
// `prefix_len`) satisfies every filter whose two variables are below
// `prefix_len`.
bool FiltersOk(const BoundQuery& q, const Tuple& t, int prefix_len);

}  // namespace wcoj

#endif  // WCOJ_QUERY_QUERY_H_
