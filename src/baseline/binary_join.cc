#include "baseline/binary_join.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <vector>

#include "baseline/planner.h"
#include "storage/catalog.h"
#include "storage/trie.h"

namespace wcoj {

namespace {

// FNV-1a over a key tuple.
struct KeyHash {
  size_t operator()(const Tuple& t) const {
    uint64_t h = 1469598103934665603ULL;
    for (Value v : t) {
      h ^= static_cast<uint64_t>(v);
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

class BinaryJoinRun {
 public:
  BinaryJoinRun(const BoundQuery& q, const ExecOptions& opts,
                PlanStrategy strategy, ExecResult* result)
      : q_(q),
        opts_(opts),
        strategy_(strategy),
        result_(result),
        catalog_(q.catalog),
        inter_charge_(opts.budget),
        poll_(opts) {}

  void Run() {
    const JoinPlan plan = PlanJoin(q_, strategy_, poll_);
    if (Expired()) return;
    // `bound[v]` = column of the intermediate holding variable v, or -1.
    std::vector<int> bound(q_.num_vars, -1);
    std::vector<Tuple> inter;  // current materialized intermediate

    for (size_t step = 0; step < plan.atom_order.size(); ++step) {
      const int a = plan.atom_order[step];
      if (step == 0) {
        inter = ScanAtom(a, &bound);
      } else {
        inter = HashJoinStep(inter, a, &bound);
      }
      result_->stats.intermediate_tuples += inter.size();
      // Charge the materialized intermediate against the query budget
      // (release-then-charge: the previous step's intermediate is dead).
      // A refusal latches the budget's exceeded() flag, which
      // AbortStatus maps to kBudgetExceeded.
      const uint64_t row_bytes =
          inter.empty() ? 0 : 8u * inter[0].size() + 24u;
      if (!inter_charge_.TryRebase(inter.size() * row_bytes)) {
        result_->status.Update(opts_.AbortStatus());
        return;
      }
      if (!result_->status.ok()) return;
      ApplyFilters(&inter, bound);
    }
    // All variables bound; project to GAO order and report.
    for (const Tuple& row : inter) {
      Tuple t(q_.num_vars);
      for (int v = 0; v < q_.num_vars; ++v) t[v] = row[bound[v]];
      ++result_->count;
      if (opts_.collect_tuples) result_->tuples.push_back(std::move(t));
    }
  }

 private:
  // A wind-down lands in the run's status, next to a failed index build.
  bool Expired() {
    if (poll_.Check()) result_->status.Update(poll_.status());
    return !result_->status.ok();
  }

  // Initial scan of atom `a`, deduped on its variable set, with the var0
  // partition range applied when var0 occurs in it.
  std::vector<Tuple> ScanAtom(int a, std::vector<int>* bound) {
    const auto& atom = q_.atoms[a];
    for (size_t c = 0; c < atom.vars.size(); ++c) {
      (*bound)[atom.vars[c]] = static_cast<int>(c);
    }
    std::vector<Tuple> rows;
    for (size_t r = 0; r < atom.relation->size(); ++r) {
      Tuple row = atom.relation->RowTuple(r);
      if (!Var0Ok(atom.vars, row)) continue;
      rows.push_back(std::move(row));
      if (Expired()) break;
    }
    return rows;
  }

  bool Var0Ok(const std::vector<int>& vars, const Tuple& row) const {
    for (size_t c = 0; c < vars.size(); ++c) {
      if (vars[c] == 0) {
        return row[c] >= opts_.var0_min && row[c] <= opts_.var0_max;
      }
    }
    return true;
  }

  std::vector<Tuple> HashJoinStep(const std::vector<Tuple>& inter, int a,
                                  std::vector<int>* bound) {
    const auto& atom = q_.atoms[a];
    // Join keys: atom columns whose variable is already bound.
    std::vector<int> key_cols, new_cols;
    std::vector<int> key_inter_cols;
    for (size_t c = 0; c < atom.vars.size(); ++c) {
      if ((*bound)[atom.vars[c]] >= 0) {
        key_cols.push_back(static_cast<int>(c));
        key_inter_cols.push_back((*bound)[atom.vars[c]]);
      } else {
        new_cols.push_back(static_cast<int>(c));
      }
    }
    std::vector<Tuple> out;
    if (catalog_ != nullptr) {
      // Resident-index path: probe the catalog's sorted (key-major) index
      // instead of rebuilding a hash table every execution. Same output
      // set as the hash path, emitted in index order.
      out = IndexProbeStep(inter, a, key_cols, key_inter_cols, new_cols);
      RecordNewColumns(inter, a, new_cols, bound);
      return out;
    }
    // Build side: the atom, keyed on the shared columns (empty key =
    // cartesian product, as a conventional executor would do).
    std::unordered_multimap<Tuple, size_t, KeyHash> build;
    build.reserve(atom.relation->size());
    for (size_t r = 0; r < atom.relation->size(); ++r) {
      Tuple key(key_cols.size());
      for (size_t i = 0; i < key_cols.size(); ++i) {
        key[i] = atom.relation->At(r, key_cols[i]);
      }
      if (!Var0Ok(atom.vars, atom.relation->RowTuple(r))) continue;
      build.emplace(std::move(key), r);
      if (Expired()) return {};
    }
    for (const Tuple& row : inter) {
      Tuple key(key_inter_cols.size());
      for (size_t i = 0; i < key_inter_cols.size(); ++i) {
        key[i] = row[key_inter_cols[i]];
      }
      auto [lo, hi] = build.equal_range(key);
      for (auto it = lo; it != hi; ++it) {
        Tuple next = row;
        for (int c : new_cols) {
          next.push_back(q_.atoms[a].relation->At(it->second, c));
        }
        out.push_back(std::move(next));
        if (Expired()) return out;
      }
    }
    RecordNewColumns(inter, a, new_cols, bound);
    return out;
  }

  // Probe side of a join step over the catalog's CSR trie index on
  // (key_cols..., new_cols...): per intermediate row, an equality
  // descent over the key levels (one galloped node per level), then a
  // DFS over the matched subtree emitting the new-column values.
  std::vector<Tuple> IndexProbeStep(const std::vector<Tuple>& inter, int a,
                                    const std::vector<int>& key_cols,
                                    const std::vector<int>& key_inter_cols,
                                    const std::vector<int>& new_cols) {
    const auto& atom = q_.atoms[a];
    std::vector<int> perm = key_cols;
    perm.insert(perm.end(), new_cols.begin(), new_cols.end());
    Status build_status;
    const TrieIndex* index = catalog_->GetOrBuildCounted(
        *atom.relation, std::move(perm), &result_->stats.index_builds,
        &result_->stats.index_cache_hits, opts_.budget, &build_status);
    if (index == nullptr) {
      result_->status.Update(build_status.ok()
                                 ? Status(StatusCode::kInternal,
                                          "index build failed")
                                 : build_status);
      return {};
    }
    // Trie column holding var0, if the atom binds it (partition filter).
    // Like Var0Ok, the filter reads the FIRST relation column binding
    // var0, so both paths agree even when an atom repeats the variable.
    int var0_col = -1;
    for (size_t c = 0; c < atom.vars.size() && var0_col < 0; ++c) {
      if (atom.vars[c] != 0) continue;
      for (size_t j = 0; j < index->perm().size(); ++j) {
        if (index->perm()[j] == static_cast<int>(c)) {
          var0_col = static_cast<int>(j);
          break;
        }
      }
    }
    const int k = static_cast<int>(key_cols.size());
    const int arity = index->arity();
    std::vector<Tuple> out;
    Tuple suffix;  // new-column values along the current DFS path
    // Emits every leaf under the node range [lo, hi) at `depth`,
    // appending trie columns k..arity-1 to the intermediate row. A
    // var0 node outside the partition range prunes its whole subtree.
    auto emit = [&](auto&& self, const Tuple& row, int depth, size_t lo,
                    size_t hi) -> void {
      for (size_t node = lo; node < hi; ++node) {
        if (!result_->status.ok()) return;
        const Value v = index->KeyAt(depth, node);
        if (depth == var0_col && (v < opts_.var0_min || v > opts_.var0_max)) {
          continue;
        }
        suffix.push_back(v);
        if (depth + 1 == arity) {
          if (!Expired()) {
            Tuple next = row;
            next.insert(next.end(), suffix.begin(), suffix.end());
            out.push_back(std::move(next));
          }
        } else {
          self(self, row, depth + 1, index->ChildBegin(depth, node),
               index->ChildEnd(depth, node));
        }
        suffix.pop_back();
      }
    };
    for (const Tuple& row : inter) {
      if (!result_->status.ok()) break;
      size_t lo = 0, hi = index->LevelSize(0);
      bool matched = true;
      for (int i = 0; i < k; ++i) {
        const Value v = row[key_inter_cols[i]];
        const size_t p = index->LowerBound(i, lo, hi, v);
        if (p == hi || index->KeyAt(i, p) != v ||
            (i == var0_col && (v < opts_.var0_min || v > opts_.var0_max))) {
          matched = false;
          break;
        }
        if (i + 1 < arity) {
          lo = index->ChildBegin(i, p);
          hi = index->ChildEnd(i, p);
        }
      }
      if (!matched) continue;
      if (k == arity) {
        // Every column was a key: membership confirmed, emit as-is.
        if (!Expired()) out.push_back(row);
        continue;
      }
      emit(emit, row, k, lo, hi);
    }
    return out;
  }

  // Records where a join step's new variables landed in the widened
  // intermediate.
  void RecordNewColumns(const std::vector<Tuple>& inter, int a,
                        const std::vector<int>& new_cols,
                        std::vector<int>* bound) {
    const auto& atom = q_.atoms[a];
    int width = inter.empty() ? 0 : static_cast<int>(inter[0].size());
    if (inter.empty()) {
      // Intermediate was empty: output is empty, but variable positions
      // must still advance for later steps.
      for (int v = 0; v < q_.num_vars; ++v) {
        width = std::max(width, (*bound)[v] + 1);
      }
    }
    for (size_t i = 0; i < new_cols.size(); ++i) {
      (*bound)[atom.vars[new_cols[i]]] = width + static_cast<int>(i);
    }
  }

  void ApplyFilters(std::vector<Tuple>* inter,
                    const std::vector<int>& bound) {
    for (const auto& [lo, hi] : q_.less_than) {
      if (bound[lo] < 0 || bound[hi] < 0) continue;
      auto it = std::remove_if(inter->begin(), inter->end(),
                               [&](const Tuple& row) {
                                 return !(row[bound[lo]] < row[bound[hi]]);
                               });
      inter->erase(it, inter->end());
    }
  }

  const BoundQuery& q_;
  const ExecOptions& opts_;
  PlanStrategy strategy_;
  ExecResult* result_;
  // Null: per-step hash builds. That trie-free path is kept on purpose
  // as the reference the storage layer is checked against.
  IndexCatalog* catalog_;
  ScopedCharge inter_charge_;  // live materialized-intermediate bytes
  AbortPoll poll_;
};

}  // namespace

ExecResult BinaryJoinEngine::Execute(const BoundQuery& q,
                                     const ExecOptions& opts) const {
  ExecResult result;
  BinaryJoinRun run(q, opts, strategy_, &result);
  run.Run();
  FinalizeExecStatus(&result, opts);
  return result;
}

}  // namespace wcoj
