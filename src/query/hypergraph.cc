#include "query/hypergraph.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <set>

namespace wcoj {

namespace {

std::vector<std::vector<int>> NormalizeEdges(
    std::vector<std::vector<int>> edges) {
  for (auto& e : edges) {
    std::sort(e.begin(), e.end());
    e.erase(std::unique(e.begin(), e.end()), e.end());
  }
  return edges;
}

bool IsSubset(const std::vector<int>& a, const std::vector<int>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

}  // namespace

Hypergraph Hypergraph::FromQuery(const Query& q) {
  Hypergraph h;
  std::map<std::string, int> id;
  for (const auto& v : q.Variables()) {
    id[v] = h.num_vertices++;
  }
  for (const auto& atom : q.atoms) {
    std::vector<int> e;
    for (const auto& v : atom.vars) e.push_back(id.at(v));
    h.edges.push_back(std::move(e));
  }
  h.edges = NormalizeEdges(std::move(h.edges));
  return h;
}

bool IsAlphaAcyclic(const Hypergraph& h) {
  std::vector<std::vector<int>> edges = NormalizeEdges(h.edges);
  bool changed = true;
  while (changed && !edges.empty()) {
    changed = false;
    // Rule 1: drop vertices occurring in exactly one edge.
    std::map<int, int> occurrences;
    for (const auto& e : edges) {
      for (int v : e) ++occurrences[v];
    }
    for (auto& e : edges) {
      auto it = std::remove_if(e.begin(), e.end(),
                               [&](int v) { return occurrences[v] == 1; });
      if (it != e.end()) {
        e.erase(it, e.end());
        changed = true;
      }
    }
    // Rule 2: drop empty edges and edges contained in another edge.
    std::vector<std::vector<int>> kept;
    for (size_t i = 0; i < edges.size(); ++i) {
      bool subsumed = edges[i].empty();
      for (size_t j = 0; !subsumed && j < edges.size(); ++j) {
        if (i == j) continue;
        if (IsSubset(edges[i], edges[j]) &&
            (edges[i] != edges[j] || i > j)) {
          subsumed = true;
        }
      }
      if (subsumed) {
        changed = true;
      } else {
        kept.push_back(edges[i]);
      }
    }
    edges = std::move(kept);
  }
  return edges.empty();
}

bool IsBetaAcyclic(const Hypergraph& h) {
  std::vector<std::vector<int>> edges = NormalizeEdges(h.edges);
  std::set<int> vertices;
  for (const auto& e : edges) vertices.insert(e.begin(), e.end());

  while (!vertices.empty()) {
    int nest_point = -1;
    for (int v : vertices) {
      // Collect edges incident to v and check they form a ⊆-chain.
      std::vector<const std::vector<int>*> inc;
      for (const auto& e : edges) {
        if (std::binary_search(e.begin(), e.end(), v)) inc.push_back(&e);
      }
      std::sort(inc.begin(), inc.end(),
                [](const auto* a, const auto* b) { return a->size() < b->size(); });
      bool chain = true;
      for (size_t i = 0; i + 1 < inc.size() && chain; ++i) {
        chain = IsSubset(*inc[i], *inc[i + 1]);
      }
      if (chain) {
        nest_point = v;
        break;
      }
    }
    if (nest_point < 0) return false;
    vertices.erase(nest_point);
    for (auto& e : edges) {
      e.erase(std::remove(e.begin(), e.end(), nest_point), e.end());
    }
    edges.erase(std::remove_if(edges.begin(), edges.end(),
                               [](const auto& e) { return e.empty(); }),
                edges.end());
  }
  return true;
}

bool GaoIsNested(const std::vector<std::vector<int>>& atom_vars,
                 int num_vars) {
  for (int d = 0; d < num_vars; ++d) {
    // Prefix sets of atoms having an attribute exactly at depth d.
    std::vector<std::vector<int>> prefixes;
    for (const auto& vars : atom_vars) {
      if (!std::binary_search(vars.begin(), vars.end(), d)) continue;
      std::vector<int> prefix;
      for (int v : vars) {
        if (v < d) prefix.push_back(v);
      }
      prefixes.push_back(std::move(prefix));
    }
    std::sort(prefixes.begin(), prefixes.end(),
              [](const auto& a, const auto& b) { return a.size() < b.size(); });
    for (size_t i = 0; i + 1 < prefixes.size(); ++i) {
      if (!IsSubset(prefixes[i], prefixes[i + 1])) return false;
    }
  }
  return true;
}

bool GaoIsNested(const BoundQuery& q) {
  std::vector<std::vector<int>> atom_vars;
  for (size_t i = 0; i < q.atoms.size(); ++i) {
    atom_vars.push_back(q.AtomVarsSorted(i));
  }
  return GaoIsNested(atom_vars, q.num_vars);
}

std::vector<bool> BetaAcyclicSkeleton(const BoundQuery& q) {
  std::vector<bool> keep(q.atoms.size(), false);
  std::vector<std::vector<int>> chosen;
  // Prefer larger atoms first so the skeleton captures as many join
  // conditions as possible; ties broken by input order for determinism.
  std::vector<size_t> order(q.atoms.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return q.atoms[a].vars.size() > q.atoms[b].vars.size();
  });
  for (size_t i : order) {
    chosen.push_back(q.AtomVarsSorted(i));
    if (GaoIsNested(chosen, q.num_vars)) {
      keep[i] = true;
    } else {
      chosen.pop_back();
    }
  }
  return keep;
}

std::optional<std::vector<std::string>> FindNeoGao(const Query& q) {
  const std::vector<std::string> vars = q.Variables();
  const int n = static_cast<int>(vars.size());
  if (n > 9) return std::nullopt;  // pattern queries are small by design

  std::vector<int> perm(n);
  for (int i = 0; i < n; ++i) perm[i] = i;

  auto atom_vars_for = [&](const std::vector<int>& p) {
    // p[i] = variable id at GAO depth i; invert to variable -> depth.
    std::vector<int> depth_of(n);
    for (int i = 0; i < n; ++i) depth_of[p[i]] = i;
    std::map<std::string, int> id;
    for (int i = 0; i < n; ++i) id[vars[i]] = i;
    std::vector<std::vector<int>> atom_vars;
    for (const auto& atom : q.atoms) {
      std::vector<int> vs;
      for (const auto& v : atom.vars) vs.push_back(depth_of[id.at(v)]);
      std::sort(vs.begin(), vs.end());
      atom_vars.push_back(std::move(vs));
    }
    return atom_vars;
  };

  // §4.9 heuristic: among NEOs prefer the longest path length, measured as
  // the total size of the deepest prefix set at each depth (more equality
  // components = more caching opportunity).
  auto score = [&](const std::vector<std::vector<int>>& atom_vars) {
    int s = 0;
    for (int d = 0; d < n; ++d) {
      size_t deepest = 0;
      for (const auto& vs : atom_vars) {
        if (!std::binary_search(vs.begin(), vs.end(), d)) continue;
        size_t before = 0;
        for (int v : vs) {
          if (v < d) ++before;
        }
        deepest = std::max(deepest, before);
      }
      s += static_cast<int>(deepest);
    }
    return s;
  };

  std::optional<std::vector<int>> best;
  int best_score = -1;
  do {
    auto av = atom_vars_for(perm);
    if (GaoIsNested(av, n)) {
      const int s = score(av);
      if (s > best_score) {
        best_score = s;
        best = perm;
      }
    }
  } while (std::next_permutation(perm.begin(), perm.end()));

  if (!best) return std::nullopt;
  std::vector<std::string> gao;
  for (int v : *best) gao.push_back(vars[v]);
  return gao;
}

}  // namespace wcoj
