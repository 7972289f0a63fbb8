#ifndef WCOJ_CORE_INCREMENTAL_H_
#define WCOJ_CORE_INCREMENTAL_H_

// Incrementally maintained count views.
//
// §3 of the paper motivates LFTJ inside LogicBlox with materialized views
// that are incrementally maintained under updates (citing Veldhuizen's
// "Incremental Maintenance for Leapfrog Triejoin"). This module implements
// the classic delta-join telescoping for COUNT views over a query with one
// mutable relation R (the others static):
//
//   Q(R ∪ Δ) − Q(R) = Σ_i  J(atom_1..i-1 ↦ R∪Δ, atom_i ↦ Δ, atom_i+1..m ↦ R)
//
// summed over the atoms referencing R; each term is a single run with
// mixed old/new/delta bindings. Deletions telescope symmetrically.
//
// The join work of an apply tracks |Δ|. The storage work does not: the
// new version of R is one linear merge of the old version with Δ, and
// each of its GAO-consistent tries is built once per apply. Every other
// index a term reads — the old version's, the static relations' — stays
// resident in the view's private IndexCatalog (see "Incremental
// maintenance" in docs/ARCHITECTURE.md).
//
// Self-joins (the same relation appearing in several atoms — every graph
// pattern here) are handled by the ordering in the telescoping sum.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "query/query.h"
#include "storage/catalog.h"
#include "storage/relation.h"
#include "util/status.h"

namespace wcoj {

class IncrementalCountView {
 public:
  struct Options {
    // User-provided, so ForRelation can default an Options argument
    // inside this class: an implicit constructor would need the member
    // initializers below before the enclosing class is complete.
    Options() {}
    // Engine used for the materialization and every delta term; any
    // CreateEngine name. The Minesweeper flavors pair naturally with
    // `scratch`: one update telescopes into several counting runs, all
    // of which then share one warm CDS arena.
    std::string engine = "lftj";
    // Warm per-worker scratch threaded into every execution this view
    // performs; must outlive the view and follows the usual
    // one-concurrent-execution contract.
    ExecScratch* scratch = nullptr;
  };

  // `q` must already be bound; `mutable_atoms` lists the atom indices
  // whose relation is the mutable one (they must all reference the same
  // Relation object, whose contents this view snapshots). The static
  // relations must keep their contents for the view's lifetime: their
  // indexes are built once into the view's own catalog, which replaces
  // `q.catalog` in the view's copy of the query.
  IncrementalCountView(const BoundQuery& q, std::vector<int> mutable_atoms,
                       Options options);

  // Convenience: treat every atom bound to `rel` as mutable. Options'
  // defaults are LFTJ with no scratch.
  static IncrementalCountView ForRelation(const BoundQuery& q,
                                          const Relation* rel,
                                          Options options = {});

  uint64_t count() const { return count_; }
  // The mutable relation's current version. The reference is only good
  // until the next apply: versions alternate between two slots.
  const Relation& current() const { return *current_; }

  // OK, or the first failure of the materialization or an apply (an
  // unknown engine name, an engine refusing the query, a failed index
  // build). A failed apply changes neither count() nor current(), and
  // once status() is not OK every later apply is a no-op returning 0.
  const Status& status() const { return status_; }
  // Work of every execution this view has run, materialization included.
  const EngineStats& stats() const { return stats_; }

  // Inserts tuples (duplicates and already-present tuples are ignored)
  // and updates the maintained count. Returns the count delta.
  int64_t ApplyInserts(const std::vector<Tuple>& tuples);
  // Removes tuples (absent ones ignored); returns the (negative) delta.
  int64_t ApplyDeletes(const std::vector<Tuple>& tuples);

 private:
  int64_t Apply(const std::vector<Tuple>& tuples, bool insert);
  // Runs `q` on the view's engine, adding its work to stats_; false
  // (with status_ latched) when the run failed.
  bool Run(const BoundQuery& q, uint64_t* count);

  BoundQuery q_;  // mutable atoms bound to *current_
  std::vector<int> mutable_atoms_;
  Options options_;
  std::unique_ptr<Engine> engine_;
  // The mutable relation's versions. Heap slots, so their addresses —
  // the catalog's keys — survive moving the view: `current_` is the
  // maintained version, `next_` receives the merged one (empty between
  // applies), `delta_` the genuine changes.
  std::unique_ptr<Relation> current_;
  std::unique_ptr<Relation> next_;
  std::unique_ptr<Relation> delta_;
  // Every index the view's executions read. A slot's entries are
  // invalidated before its contents change, so a reused address never
  // serves a stale trie.
  std::unique_ptr<IndexCatalog> catalog_;
  uint64_t count_ = 0;
  Status status_;
  EngineStats stats_;
};

}  // namespace wcoj

#endif  // WCOJ_CORE_INCREMENTAL_H_
