#include "core/lftj.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "core/atom_index.h"
#include "core/leapfrog.h"
#include "storage/intersect.h"
#include "storage/trie.h"

namespace wcoj {

namespace {

// Per-execution state; the engine object itself stays stateless.
class LftjRun {
 public:
  LftjRun(const BoundQuery& q, const ExecOptions& opts, ExecResult* result)
      : q_(q),
        opts_(opts),
        result_(result),
        poll_(opts),
        // One trie index per atom, columns ordered by GAO position
        // (GAO-consistency assumption).
        indexes_(q, &result->stats, opts.budget) {
    // Structured preconditions, checked before any iterator or join is
    // constructed: a failed (budget-refused / fault-injected) index
    // build, or a query whose GAO leaves a variable uncovered, fails
    // the run closed instead of tripping downstream asserts.
    if (!indexes_.ok()) {
      result_->status = indexes_.status();
      return;
    }
    per_depth_.resize(q.num_vars);
    for (size_t a = 0; a < q.atoms.size(); ++a) {
      for (int v : q.atoms[a].vars) per_depth_[v].push_back(a);
    }
    for (int v = 0; v < q.num_vars; ++v) {
      if (per_depth_[v].empty()) {
        result_->status =
            Status(StatusCode::kInvalidArgument,
                   "variable " + std::to_string(v) +
                       " is not covered by any atom (invalid GAO)");
        return;
      }
    }
    for (size_t a = 0; a < q.atoms.size(); ++a) {
      iters_.push_back(std::make_unique<TrieIterator>(indexes_.at(a)));
    }
    // For each GAO depth, the iterators participating there, plus one
    // reusable LeapfrogJoin over them. The joins are constructed once
    // here and re-Init()ed on every entry into their depth, so the hot
    // recursion never copies an iterator vector per trie node.
    depth_iters_.resize(q.num_vars);
    for (int v = 0; v < q.num_vars; ++v) {
      for (size_t a : per_depth_[v]) depth_iters_[v].push_back(iters_[a].get());
    }
    joins_.reserve(q.num_vars);
    for (int v = 0; v < q.num_vars; ++v) {
      joins_.emplace_back(depth_iters_[v]);
    }
    // Earlier filter endpoints per depth: binding depth d must exceed
    // t[lo] for every filter (lo, d) with lo < d.
    lower_bounds_.resize(q.num_vars);
    for (const auto& [lo, hi] : q.less_than) {
      if (lo < hi) {
        lower_bounds_[hi].push_back(lo);
      } else {
        upper_checks_.push_back({lo, hi});  // hi bound before lo: check late
      }
    }
    t_.assign(q.num_vars, 0);
    last_ = q.num_vars - 1;
    if (last_ >= 0) spans_.resize(depth_iters_[last_].size());
  }

  void Run() {
    if (!result_->status.ok()) return;  // refused in the constructor
    if (q_.num_vars == 0) return;
    Search(0);
    result_->status.Update(poll_.status());  // an aborted run is incomplete
    // Seeks: iterator moves plus the count path's bound searches.
    result_->stats.seeks += count_probes_;
    for (const auto& it : iters_) result_->stats.seeks += it->seeks();
  }

 private:
  void Emit() {
    ++result_->count;
    if (opts_.collect_tuples) result_->tuples.push_back(t_);
  }

  // Count-only runs never bind the last variable: it contributes the
  // size of its atoms' key-span intersection within the window its
  // filters allow, in one SpanIntersector call.
  void CountLast() {
    const int d = last_;
    Value lo = d == 0 ? opts_.var0_min : kNegInf;
    Value hi = d == 0 ? opts_.var0_max : kPosInf;
    for (int v : lower_bounds_[d]) {
      if (t_[v] == kPosInf) return;  // no value exceeds it
      lo = std::max(lo, t_[v] + 1);
    }
    for (const auto& [a, b] : upper_checks_) {
      if (a == d && b != d) {
        if (t_[b] == kNegInf) return;  // no value is below it
        hi = std::min(hi, t_[b] - 1);
      } else if (!(t_[a] < t_[b])) {
        return;  // both bound already (or a degenerate a<a)
      }
    }
    const std::vector<TrieIterator*>& iters = depth_iters_[d];
    for (size_t i = 0; i < iters.size(); ++i) {
      iters[i]->Open();
      spans_[i] = iters[i]->Span();
      iters[i]->Up();
    }
    IntersectWork work;
    result_->count += intersector_.Count(spans_, lo, hi, &work);
    count_probes_ += work.probes;
    poll_.Check(1 + work.probes + work.merged);  // a binding is 1
  }

  void Search(int depth) {
    if (poll_.aborted()) return;
    if (depth == last_ && !opts_.collect_tuples) {
      CountLast();
      return;
    }
    if (depth == q_.num_vars) {  // collecting runs only
      // Filters whose variables were bound out of order (rare: only when a
      // filter's later variable precedes the earlier one in the GAO).
      for (const auto& [lo, hi] : upper_checks_) {
        if (!(t_[lo] < t_[hi])) return;
      }
      Emit();
      return;
    }
    auto& iters = depth_iters_[depth];
    for (auto* it : iters) it->Open();
    LeapfrogJoin& join = joins_[depth];
    join.Init();
    // Seek past inequality lower bounds (and the partition range at the
    // first variable).
    Value min_allowed = kNegInf;
    if (depth == 0 && opts_.var0_min != kNegInf) min_allowed = opts_.var0_min;
    for (int lo : lower_bounds_[depth]) {
      min_allowed = std::max(min_allowed, t_[lo] + 1);
    }
    if (!join.AtEnd() && min_allowed != kNegInf) join.Seek(min_allowed);
    while (!join.AtEnd()) {
      if (poll_.Check()) break;
      const Value v = join.Key();
      if (depth == 0 && v > opts_.var0_max) break;
      t_[depth] = v;
      Search(depth + 1);
      if (poll_.aborted()) break;
      join.Next();
    }
    for (auto* it : iters) it->Up();
  }

  const BoundQuery& q_;
  const ExecOptions& opts_;
  ExecResult* result_;
  AbortPoll poll_;
  AtomIndexSet indexes_;
  std::vector<std::unique_ptr<TrieIterator>> iters_;
  std::vector<std::vector<size_t>> per_depth_;  // atom ids per GAO depth
  std::vector<std::vector<TrieIterator*>> depth_iters_;
  std::vector<LeapfrogJoin> joins_;  // one reusable join per GAO depth
  std::vector<std::vector<int>> lower_bounds_;
  std::vector<std::pair<int, int>> upper_checks_;
  Tuple t_;
  int last_ = -1;                // deepest GAO depth
  std::vector<KeySpan> spans_;   // the last depth's spans, refilled per count
  SpanIntersector intersector_;  // its buffers live as long as the run
  uint64_t count_probes_ = 0;
};

}  // namespace

ExecResult LftjEngine::Execute(const BoundQuery& q,
                               const ExecOptions& opts) const {
  ExecResult result;
  LftjRun run(q, opts, &result);
  run.Run();
  FinalizeExecStatus(&result, opts);
  return result;
}

}  // namespace wcoj
