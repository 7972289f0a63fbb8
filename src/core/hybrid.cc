#include "core/hybrid.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/atom_index.h"
#include "core/lftj.h"
#include "core/minesweeper.h"
#include "storage/trie.h"

namespace wcoj {

namespace {

bool AllVarsBelow(const std::vector<int>& vars, int s) {
  return std::all_of(vars.begin(), vars.end(), [&](int v) { return v < s; });
}

// Suffix-compatible: vars within {s-1} ∪ [s, n).
bool SuffixCompatible(const std::vector<int>& vars, int s) {
  return std::all_of(vars.begin(), vars.end(),
                     [&](int v) { return v >= s - 1; });
}

bool ValidSplit(const BoundQuery& q, int s) {
  bool any_prefix = false, any_suffix = false;
  std::vector<bool> prefix_covered(s, false);
  for (const auto& atom : q.atoms) {
    if (AllVarsBelow(atom.vars, s)) {
      any_prefix = true;
      for (int v : atom.vars) prefix_covered[v] = true;
    } else if (SuffixCompatible(atom.vars, s)) {
      any_suffix = true;
    } else {
      return false;
    }
  }
  for (const auto& [lo, hi] : q.less_than) {
    const bool in_prefix = lo < s && hi < s;
    const bool in_suffix = lo >= s - 1 && hi >= s - 1;
    if (!in_prefix && !in_suffix) return false;
  }
  for (bool covered : prefix_covered) {
    if (!covered) return false;
  }
  return any_prefix && any_suffix;
}

}  // namespace

int HybridEngine::FindSplit(const BoundQuery& q) {
  for (int s = q.num_vars - 1; s >= 1; --s) {
    if (ValidSplit(q, s)) return s;
  }
  return 0;
}

ExecResult HybridEngine::Execute(const BoundQuery& q,
                                 const ExecOptions& opts) const {
  const int s = FindSplit(q);
  if (s == 0) {
    MinesweeperEngine ms(MsOptions{}, "hybrid-fallback");
    return ms.Execute(q, opts);
  }
  const int n = q.num_vars;

  // Prefix query over GAO positions [0, s); shares the full query's
  // catalog (same relations, prefix-truncated permutations).
  BoundQuery prefix;
  prefix.num_vars = s;
  prefix.catalog = q.catalog;
  for (const auto& atom : q.atoms) {
    if (AllVarsBelow(atom.vars, s)) prefix.atoms.push_back(atom);
  }
  for (const auto& [lo, hi] : q.less_than) {
    if (lo < s && hi < s) prefix.less_than.emplace_back(lo, hi);
  }

  // Suffix query over positions [s-1, n), junction bound via a singleton
  // relation swapped in per junction value.
  BoundQuery suffix;
  suffix.num_vars = n - s + 1;
  auto remap = [&](int v) { return v - (s - 1); };
  for (const auto& atom : q.atoms) {
    if (AllVarsBelow(atom.vars, s)) continue;
    BoundAtom ba;
    ba.relation = atom.relation;
    for (int v : atom.vars) ba.vars.push_back(remap(v));
    suffix.atoms.push_back(std::move(ba));
  }
  for (const auto& [lo, hi] : q.less_than) {
    if (lo >= s - 1 && hi >= s - 1) {
      suffix.less_than.emplace_back(remap(lo), remap(hi));
    }
  }

  // Enumerate the prefix with Minesweeper.
  ExecOptions prefix_opts = opts;
  prefix_opts.collect_tuples = true;
  MinesweeperEngine ms;
  ExecResult prefix_result = ms.Execute(prefix, prefix_opts);

  ExecResult result;
  result.stats = prefix_result.stats;
  result.status = prefix_result.status;
  if (!result.status.ok()) {
    FinalizeExecStatus(&result, opts);
    return result;
  }

  LftjEngine lftj;
  // Resolve one trie index per suffix atom (ordered by GAO positions):
  // LFTJ runs once per junction value and must not re-sort the
  // relations. Catalog-resident indexes are shared; the per-junction
  // singleton below is transient and must never enter the catalog, so
  // the suffix queries themselves carry no catalog and the singleton
  // slot stays a per-call private build.
  AtomIndexSet suffix_indexes(suffix, EffectiveCatalog(q, opts),
                              &result.stats, /*prebuilt=*/nullptr,
                              opts.budget);
  if (!suffix_indexes.ok()) {
    result.status = suffix_indexes.status();
    FinalizeExecStatus(&result, opts);
    return result;
  }
  std::vector<const TrieIndex*> index_ptrs;
  for (size_t a = 0; a < suffix.atoms.size(); ++a) {
    index_ptrs.push_back(suffix_indexes.at(a));
  }
  index_ptrs.push_back(nullptr);  // singleton junction atom: built per call
  // Memo: junction value -> suffix count (Idea 6's caching effect, made
  // explicit). Only valid when we need counts, not tuples.
  std::unordered_map<Value, uint64_t> memo;
  for (const Tuple& p : prefix_result.tuples) {
    if (opts.Aborted()) {
      result.status = opts.AbortStatus();
      break;
    }
    const Value j = p[s - 1];
    ExecOptions suffix_opts;
    suffix_opts.deadline = opts.deadline;
    suffix_opts.stop = opts.stop;
    suffix_opts.collect_tuples = opts.collect_tuples;
    // The prefix Minesweeper above already ran on opts' scratch (the
    // option struct is forwarded wholesale); keep the suffix runs on the
    // same per-worker scratch so any CDS-bearing suffix engine stays
    // warm too. The runs are sequential, so the single-user contract
    // holds.
    suffix_opts.scratch = opts.scratch;
    suffix_opts.budget = opts.budget;
    if (!opts.collect_tuples) {
      auto it = memo.find(j);
      if (it != memo.end()) {
        result.count += it->second;
        continue;
      }
    }
    // Bind the junction with a singleton unary atom.
    Relation singleton(1);
    singleton.Add({j});
    singleton.Build();
    BoundQuery sq = suffix;
    BoundAtom bind;
    bind.relation = &singleton;
    bind.vars = {0};
    sq.atoms.push_back(std::move(bind));
    ExecResult sub = lftj.ExecuteWithIndexes(sq, suffix_opts, index_ptrs);
    if (!sub.ok()) {
      result.status = sub.status;
      break;
    }
    result.stats.Add(sub.stats);
    result.count += sub.count;
    if (opts.collect_tuples) {
      for (const Tuple& t : sub.tuples) {
        Tuple full(p.begin(), p.end());
        full.insert(full.end(), t.begin() + 1, t.end());
        result.tuples.push_back(std::move(full));
      }
    } else {
      memo.emplace(j, sub.count);
    }
  }
  FinalizeExecStatus(&result, opts);
  return result;
}

}  // namespace wcoj
