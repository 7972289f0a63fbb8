#include "core/hybrid.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/lftj.h"
#include "core/minesweeper.h"
#include "storage/catalog.h"

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

// The suffix run binds the junction s-1 as its first variable, so some
// suffix atom must contain it (LFTJ refuses an uncovered variable).
bool ValidSplit(const BoundQuery& q, int s) {
  bool any_prefix = false, junction_in_suffix = false;
  std::vector<bool> prefix_covered(s, false);
  for (const auto& atom : q.atoms) {
    if (AllVarsBelow(atom.vars, s)) {
      any_prefix = true;
      for (int v : atom.vars) prefix_covered[v] = true;
    } else if (SuffixCompatible(atom.vars, s)) {
      junction_in_suffix |= std::find(atom.vars.begin(), atom.vars.end(),
                                      s - 1) != atom.vars.end();
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
  return any_prefix && junction_in_suffix;
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
  // Prefix and every per-junction suffix run share one catalog: the
  // query's, or one private to this run, so each suffix trie is built
  // at most once per run either way.
  IndexCatalog private_catalog;
  IndexCatalog* catalog = q.catalog != nullptr ? q.catalog : &private_catalog;

  // Prefix query over GAO positions [0, s) (same relations and
  // permutations as the full query's prefix atoms).
  BoundQuery prefix;
  prefix.num_vars = s;
  prefix.catalog = catalog;
  for (const auto& atom : q.atoms) {
    if (AllVarsBelow(atom.vars, s)) prefix.atoms.push_back(atom);
  }
  for (const auto& [lo, hi] : q.less_than) {
    if (lo < s && hi < s) prefix.less_than.emplace_back(lo, hi);
  }

  // Suffix query over positions [s-1, n); the junction is its first
  // variable, bound per junction value through the var0 range.
  BoundQuery suffix;
  suffix.num_vars = n - s + 1;
  suffix.catalog = catalog;
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
  // Memo: junction value -> suffix count (Idea 6's caching effect, made
  // explicit). Only valid when we need counts, not tuples.
  std::unordered_map<Value, uint64_t> memo;
  // The suffix runs share opts' deadline, stop, budget and scratch (they
  // run one after another, so the scratch's single-user contract holds);
  // only the junction range is their own.
  ExecOptions suffix_opts = opts;
  AbortPoll poll(opts);
  for (const Tuple& p : prefix_result.tuples) {
    if (poll.Check()) {
      result.status = poll.status();
      break;
    }
    const Value j = p[s - 1];
    if (!opts.collect_tuples) {
      auto it = memo.find(j);
      if (it != memo.end()) {
        result.count += it->second;
        continue;
      }
    }
    suffix_opts.var0_min = j;
    suffix_opts.var0_max = j;
    ExecResult sub = lftj.Execute(suffix, suffix_opts);
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
