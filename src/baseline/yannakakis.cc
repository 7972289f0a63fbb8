#include "baseline/yannakakis.h"

#include <algorithm>
#include <set>
#include <vector>

#include "util/mem_budget.h"

#include "baseline/binary_join.h"

namespace wcoj {

namespace {

// R <- R semijoin S on their shared variables. Returns true if R shrank.
bool Semijoin(Relation* r, const std::vector<int>& r_vars, const Relation& s,
              const std::vector<int>& s_vars) {
  std::vector<int> r_cols, s_cols;
  for (size_t i = 0; i < r_vars.size(); ++i) {
    for (size_t j = 0; j < s_vars.size(); ++j) {
      if (r_vars[i] == s_vars[j]) {
        r_cols.push_back(static_cast<int>(i));
        s_cols.push_back(static_cast<int>(j));
      }
    }
  }
  if (r_cols.empty()) return false;
  std::set<Tuple> keys;
  for (size_t row = 0; row < s.size(); ++row) {
    Tuple key(s_cols.size());
    for (size_t i = 0; i < s_cols.size(); ++i) key[i] = s.At(row, s_cols[i]);
    keys.insert(std::move(key));
  }
  Relation reduced(r->arity());
  bool shrank = false;
  for (size_t row = 0; row < r->size(); ++row) {
    Tuple key(r_cols.size());
    for (size_t i = 0; i < r_cols.size(); ++i) key[i] = r->At(row, r_cols[i]);
    if (keys.count(key)) {
      reduced.Add(r->RowTuple(row));
    } else {
      shrank = true;
    }
  }
  if (shrank) {
    reduced.Build();
    *r = std::move(reduced);
  }
  return shrank;
}

}  // namespace

ExecResult YannakakisEngine::Execute(const BoundQuery& q,
                                     const ExecOptions& opts) const {
  ExecResult result;
  // Working copies of the relations for in-place reduction — the
  // engine's dominant materialization, charged against the query budget
  // before each copy is made.
  ScopedCharge copy_charge(opts.budget);
  std::vector<Relation> reduced;
  reduced.reserve(q.atoms.size());
  for (const auto& atom : q.atoms) {
    const uint64_t bytes =
        8u * atom.relation->size() * atom.relation->arity() + 4096u;
    if (!copy_charge.TryCharge(bytes)) {
      result.status = opts.AbortStatus();
      FinalizeExecStatus(&result, opts);
      return result;
    }
    reduced.push_back(*atom.relation);
  }

  // Semijoin program to fixpoint (bounded rounds; acyclic queries converge
  // in at most |atoms| rounds).
  const size_t m = q.atoms.size();
  AbortPoll poll(opts);
  for (size_t round = 0; round < m; ++round) {
    bool changed = false;
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < m; ++j) {
        if (i == j) continue;
        changed |= Semijoin(&reduced[i], q.atoms[i].vars, reduced[j],
                            q.atoms[j].vars);
        if (poll.Check(reduced[i].size() + reduced[j].size())) {
          result.status = poll.status();
          FinalizeExecStatus(&result, opts);
          return result;
        }
      }
    }
    if (!changed) break;
  }
  for (const auto& r : reduced) result.stats.intermediate_tuples += r.size();

  // Join the reduced relations with the DP pairwise engine. The reduced
  // relations are transient locals, so the shared catalog must not index
  // them: strip it from the query copy.
  BoundQuery rq = q;
  rq.catalog = nullptr;
  for (size_t i = 0; i < m; ++i) rq.atoms[i].relation = &reduced[i];
  BinaryJoinEngine join(PlanStrategy::kDynamicProgramming);
  ExecResult joined = join.Execute(rq, opts);
  joined.stats.intermediate_tuples += result.stats.intermediate_tuples;
  return joined;
}

}  // namespace wcoj
