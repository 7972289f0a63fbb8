#include "core/incremental.h"

#include <cassert>
#include <utility>

namespace wcoj {

namespace {

// Fills the empty `out` with `base` with the rows of `delta` merged in
// (insert: delta is disjoint from base) or taken out (delete: delta is a
// subset of base). The runs of base between delta rows are copied
// whole, so the rows arrive strictly increasing and Build does not sort.
void MergeInto(const Relation& base, const Relation& delta, bool insert,
               Relation* out) {
  out->Reserve(insert ? base.size() + delta.size()
                      : base.size() - delta.size());
  size_t from = 0;
  for (size_t d = 0; d < delta.size(); ++d) {
    const size_t at = base.LowerBound(delta.Row(d));
    out->AddRows(base.Row(from), at - from);
    if (insert) {
      out->AddRows(delta.Row(d), 1);
      from = at;
    } else {
      from = at + 1;
    }
  }
  out->AddRows(base.Row(from), base.size() - from);
  out->Build();
}

// Empties `slot` and drops its cached tries. Every change to a slot's
// contents goes through here, so a reused address never serves a stale
// trie.
void ClearSlot(IndexCatalog* catalog, Relation* slot) {
  catalog->Invalidate(slot);
  *slot = Relation(slot->arity());
}

}  // namespace

IncrementalCountView::IncrementalCountView(const BoundQuery& q,
                                           std::vector<int> mutable_atoms,
                                           Options options)
    : q_(q),
      mutable_atoms_(std::move(mutable_atoms)),
      options_(std::move(options)),
      engine_(CreateEngine(options_.engine)),
      catalog_(std::make_unique<IndexCatalog>()) {
  assert(!mutable_atoms_.empty());
  const Relation* rel = q.atoms[mutable_atoms_[0]].relation;
  for (int a : mutable_atoms_) {
    assert(q.atoms[a].relation == rel && "mutable atoms must share a relation");
    (void)a;
  }
  current_ = std::make_unique<Relation>(*rel);  // snapshot
  next_ = std::make_unique<Relation>(rel->arity());
  delta_ = std::make_unique<Relation>(rel->arity());
  // Every execution, terms included (they copy q_), reads the view's
  // catalog. Rebind the mutable atoms to the snapshot and materialize
  // the count.
  q_.catalog = catalog_.get();
  for (int a : mutable_atoms_) q_.atoms[a].relation = current_.get();
  if (engine_ == nullptr) {
    status_ = Status(StatusCode::kInvalidArgument,
                     "unknown engine '" + options_.engine + "'");
    return;
  }
  Run(q_, &count_);
}

IncrementalCountView IncrementalCountView::ForRelation(const BoundQuery& q,
                                                       const Relation* rel,
                                                       Options options) {
  std::vector<int> atoms;
  for (size_t a = 0; a < q.atoms.size(); ++a) {
    if (q.atoms[a].relation == rel) atoms.push_back(static_cast<int>(a));
  }
  return IncrementalCountView(q, std::move(atoms), std::move(options));
}

bool IncrementalCountView::Run(const BoundQuery& q, uint64_t* count) {
  ExecOptions opts;
  opts.scratch = options_.scratch;
  const ExecResult result = engine_->Execute(q, opts);
  stats_.Add(result.stats);
  if (!result.ok()) {
    status_.Update(result.status);
    return false;
  }
  *count = result.count;
  return true;
}

int64_t IncrementalCountView::ApplyInserts(const std::vector<Tuple>& tuples) {
  return Apply(tuples, /*insert=*/true);
}

int64_t IncrementalCountView::ApplyDeletes(const std::vector<Tuple>& tuples) {
  return Apply(tuples, /*insert=*/false);
}

int64_t IncrementalCountView::Apply(const std::vector<Tuple>& tuples,
                                    bool insert) {
  if (!status_.ok()) return 0;
  // The genuine delta: tuples absent from (inserts) or present in
  // (deletes) the current version.
  ClearSlot(catalog_.get(), delta_.get());
  for (const Tuple& t : tuples) {
    if (current_->Contains(t) != insert) delta_->Add(t);
  }
  delta_->Build();
  if (delta_->size() == 0) return 0;

  MergeInto(*current_, *delta_, insert, next_.get());

  // Telescoping sum: the i-th term binds mutable atoms < i to the next
  // version, atom i to the delta, and atoms > i to the current one. It
  // is Q(next) - Q(current) for inserts and Q(current) - Q(next) for
  // deletes. Every term runs on the view's engine, catalog and (if
  // configured) warm scratch, back to back.
  uint64_t change = 0;
  for (size_t i = 0; i < mutable_atoms_.size(); ++i) {
    BoundQuery term = q_;
    for (size_t j = 0; j < mutable_atoms_.size(); ++j) {
      term.atoms[mutable_atoms_[j]].relation =
          j < i ? next_.get() : (j == i ? delta_.get() : current_.get());
    }
    uint64_t term_count = 0;
    if (!Run(term, &term_count)) return 0;
    change += term_count;
  }

  // Every term answered: commit. The next version's tries stay resident
  // as the new current version's; the retired version's rows and tries
  // go at once, so only one full version is resident between applies.
  std::swap(current_, next_);
  ClearSlot(catalog_.get(), next_.get());
  for (int a : mutable_atoms_) q_.atoms[a].relation = current_.get();
  if (insert) {
    count_ += change;
    return static_cast<int64_t>(change);
  }
  assert(count_ >= change);
  count_ -= change;
  return -static_cast<int64_t>(change);
}

}  // namespace wcoj
