#include "baseline/clique_engine.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <vector>

namespace wcoj {

namespace {

struct Shape {
  bool ok = false;
  int k = 0;             // clique size (3 or 4)
  bool ordered = false;  // output counts each clique once (oriented input
                         // or a full `<` chain); otherwise k! orderings
};

Shape DetectShape(const BoundQuery& q) {
  Shape s;
  const int k = q.num_vars;
  if (k != 3 && k != 4) return s;
  if (q.atoms.size() != static_cast<size_t>(k * (k - 1) / 2)) return s;
  std::set<std::pair<int, int>> pairs;
  for (const auto& atom : q.atoms) {
    if (atom.vars.size() != 2) return s;
    pairs.insert({std::min(atom.vars[0], atom.vars[1]),
                  std::max(atom.vars[0], atom.vars[1])});
  }
  if (pairs.size() != q.atoms.size()) return s;  // duplicate pair
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      if (!pairs.count({i, j})) return s;
    }
  }
  // Orientation: either the data is oriented (u < v in every row) or the
  // filters totally order consecutive variables.
  bool data_oriented = true;
  for (const auto& atom : q.atoms) {
    for (size_t r = 0; r < atom.relation->size() && data_oriented; ++r) {
      data_oriented = atom.relation->At(r, 0) < atom.relation->At(r, 1);
    }
  }
  std::set<std::pair<int, int>> filters(q.less_than.begin(),
                                        q.less_than.end());
  bool chain = true;
  for (int i = 0; i + 1 < k; ++i) chain &= filters.count({i, i + 1}) > 0;
  if (!data_oriented && !filters.empty() && !chain) return s;  // partial order
  s.ok = true;
  s.k = k;
  s.ordered = data_oriented || chain;
  return s;
}

// Degree-ordered forward adjacency over the union of all atom relations.
class ForwardGraph {
 public:
  explicit ForwardGraph(const BoundQuery& q) {
    std::set<std::pair<Value, Value>> edges;
    for (const auto& atom : q.atoms) {
      for (size_t r = 0; r < atom.relation->size(); ++r) {
        Value u = atom.relation->At(r, 0), v = atom.relation->At(r, 1);
        if (u == v) continue;
        if (u > v) std::swap(u, v);
        edges.insert({u, v});
      }
    }
    std::map<Value, int> degree;
    for (const auto& [u, v] : edges) {
      ++degree[u];
      ++degree[v];
    }
    // Rank: ascending (degree, id) — the forward algorithm's total order.
    std::vector<std::pair<std::pair<int, Value>, Value>> order;
    for (const auto& [v, d] : degree) order.push_back({{d, v}, v});
    std::sort(order.begin(), order.end());
    for (size_t i = 0; i < order.size(); ++i) {
      rank_[order[i].second] = static_cast<int>(i);
    }
    for (const auto& [u, v] : edges) {
      if (rank_[u] < rank_[v]) {
        fwd_[u].push_back(v);
      } else {
        fwd_[v].push_back(u);
      }
      edges_.push_back({u, v});
    }
    for (auto& [v, list] : fwd_) {
      std::sort(list.begin(), list.end(),
                [&](Value a, Value b) { return rank_[a] < rank_[b]; });
    }
  }

  const std::vector<std::pair<Value, Value>>& edges() const { return edges_; }

  // Forward neighbors (later in rank), rank-sorted.
  const std::vector<Value>& Fwd(Value v) const {
    static const std::vector<Value> kEmpty;
    auto it = fwd_.find(v);
    return it == fwd_.end() ? kEmpty : it->second;
  }

  std::vector<Value> Intersect(Value u, Value v) const {
    const auto& a = Fwd(u);
    const auto& b = Fwd(v);
    std::vector<Value> out;
    size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      const int ra = rank_.at(a[i]), rb = rank_.at(b[j]);
      if (ra == rb) {
        out.push_back(a[i]);
        ++i;
        ++j;
      } else if (ra < rb) {
        ++i;
      } else {
        ++j;
      }
    }
    return out;
  }

  bool HasFwdEdge(Value u, Value v) const {
    const auto& a = Fwd(u);
    for (Value x : a) {
      if (x == v) return true;
    }
    return false;
  }

 private:
  std::map<Value, std::vector<Value>> fwd_;
  std::map<Value, int> rank_;
  std::vector<std::pair<Value, Value>> edges_;
};

uint64_t Factorial(int k) {
  uint64_t f = 1;
  for (int i = 2; i <= k; ++i) f *= i;
  return f;
}

}  // namespace

bool CliqueEngine::Supports(const BoundQuery& q) {
  return DetectShape(q).ok;
}

ExecResult CliqueEngine::Execute(const BoundQuery& q,
                                 const ExecOptions& opts) const {
  ExecResult result;
  const Shape shape = DetectShape(q);
  if (!shape.ok) {
    // Unsupported pattern: a specialized engine simply has no program for
    // it. Report a structured non-answer.
    result.status = Status(StatusCode::kUnimplemented,
                           "clique engine supports only full 3-/4-clique "
                           "patterns over binary atoms");
    return result;
  }
  ForwardGraph g(q);
  const bool ranged =
      opts.var0_min != kNegInf || opts.var0_max != kPosInf;

  // In the ordered encodings variable 0 is the clique's minimum vertex; in
  // the symmetric one each member serves as var0 in (k-1)! orderings.
  auto tally = [&](std::vector<Value> clique) {
    std::sort(clique.begin(), clique.end());
    if (shape.ordered) {
      if (ranged && (clique[0] < opts.var0_min || clique[0] > opts.var0_max)) {
        return;
      }
      ++result.count;
      if (opts.collect_tuples) result.tuples.push_back(clique);
    } else {
      const uint64_t per_member = Factorial(shape.k - 1);
      for (Value m : clique) {
        if (ranged && (m < opts.var0_min || m > opts.var0_max)) continue;
        result.count += per_member;
      }
      if (opts.collect_tuples) {
        // Emit all orderings for verification-oriented callers.
        std::sort(clique.begin(), clique.end());
        do {
          if (!ranged ||
              (clique[0] >= opts.var0_min && clique[0] <= opts.var0_max)) {
            result.tuples.push_back(clique);
          }
        } while (std::next_permutation(clique.begin(), clique.end()));
      }
    }
  };

  AbortPoll poll(opts);
  for (const auto& [u, v] : g.edges()) {
    const Value lo = g.HasFwdEdge(u, v) ? u : v;
    const Value hi = lo == u ? v : u;
    const std::vector<Value> common = g.Intersect(lo, hi);
    if (poll.Check(1 + common.size())) {
      result.status = poll.status();
      break;
    }
    if (shape.k == 3) {
      for (Value w : common) tally({u, v, w});
    } else {
      for (size_t i = 0; i < common.size(); ++i) {
        for (size_t j = i + 1; j < common.size(); ++j) {
          if (g.HasFwdEdge(common[i], common[j])) {
            tally({u, v, common[i], common[j]});
          }
        }
      }
    }
  }
  FinalizeExecStatus(&result, opts);
  return result;
}

}  // namespace wcoj
