#include "query/query.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <set>
#include <string>

#include "query/parser.h"
#include "storage/catalog.h"

namespace wcoj {

std::vector<std::string> Query::Variables() const {
  std::vector<std::string> vars;
  auto add = [&](const std::string& v) {
    if (std::find(vars.begin(), vars.end(), v) == vars.end()) {
      vars.push_back(v);
    }
  };
  for (const auto& atom : atoms) {
    for (const auto& v : atom.vars) add(v);
  }
  for (const auto& f : filters) {
    add(f.lo);
    add(f.hi);
  }
  return vars;
}

std::string Query::DebugString() const {
  std::string out;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += ", ";
    out += atoms[i].relation + "(";
    for (size_t j = 0; j < atoms[i].vars.size(); ++j) {
      if (j > 0) out += ",";
      out += atoms[i].vars[j];
    }
    out += ")";
  }
  for (const auto& f : filters) out += ", " + f.lo + "<" + f.hi;
  return out;
}

std::vector<int> BoundQuery::AtomVarsSorted(size_t i) const {
  std::vector<int> vs = atoms[i].vars;
  std::sort(vs.begin(), vs.end());
  return vs;
}

std::string BoundQuery::DebugString() const {
  std::string out = "vars[";
  for (int i = 0; i < num_vars; ++i) {
    if (i > 0) out += ",";
    out += var_names.empty() ? std::to_string(i) : var_names[i];
  }
  out += "]";
  return out;
}

Status CheckBindable(const Query& query,
                     const std::map<std::string, const Relation*>& relations) {
  auto invalid = [](const std::string& why) {
    return Status(StatusCode::kInvalidArgument, why);
  };
  std::set<std::string> atom_vars;
  for (const Atom& atom : query.atoms) {
    const auto it = relations.find(atom.relation);
    if (it == relations.end()) {
      std::string known;
      for (const auto& [name, rel] : relations) {
        known += " " + name + "/" + std::to_string(rel->arity());
      }
      return invalid("unknown relation '" + atom.relation + "'; known:" +
                     known);
    }
    if (static_cast<int>(atom.vars.size()) != it->second->arity()) {
      return invalid("relation '" + atom.relation + "' has arity " +
                     std::to_string(it->second->arity()) + ", got " +
                     std::to_string(atom.vars.size()) + " variables");
    }
    std::set<std::string> seen;
    for (const std::string& v : atom.vars) {
      if (!seen.insert(v).second) {
        return invalid("atom '" + Query{{atom}, {}}.DebugString() +
                       "' repeats variable '" + v + "'");
      }
    }
    atom_vars.insert(seen.begin(), seen.end());
  }
  for (const Filter& f : query.filters) {
    for (const std::string& v : {f.lo, f.hi}) {
      if (atom_vars.count(v) == 0) {
        return invalid("filter variable '" + v + "' is not bound by any atom");
      }
    }
  }
  return OkStatus();
}

BoundQuery Bind(const Query& query,
                const std::map<std::string, const Relation*>& relations,
                const std::vector<std::string>& gao) {
  BoundQuery bq;
  bq.num_vars = static_cast<int>(gao.size());
  bq.var_names = gao;

  std::map<std::string, int> pos;
  for (size_t i = 0; i < gao.size(); ++i) {
    assert(!pos.count(gao[i]) && "duplicate variable in GAO");
    pos[gao[i]] = static_cast<int>(i);
  }
  // Every query variable must be covered by the GAO.
  for (const auto& v : query.Variables()) {
    assert(pos.count(v) && "GAO must cover all query variables");
    (void)v;
  }

  for (const auto& atom : query.atoms) {
    auto it = relations.find(atom.relation);
    assert(it != relations.end() && "unknown relation in query");
    BoundAtom ba;
    ba.relation = it->second;
    assert(it->second->arity() == static_cast<int>(atom.vars.size()));
    for (const auto& v : atom.vars) ba.vars.push_back(pos.at(v));
    bq.atoms.push_back(std::move(ba));
  }
  for (const auto& f : query.filters) {
    bq.less_than.emplace_back(pos.at(f.lo), pos.at(f.hi));
  }
  return bq;
}

BoundQuery Bind(const Query& query, const Database& db,
                const std::vector<std::string>& gao) {
  BoundQuery bq = Bind(query, db.Map(), gao);
  bq.catalog = db.catalog();
  return bq;
}

StatusOr<BoundQuery> BindText(
    const std::string& text,
    const std::map<std::string, const Relation*>& relations,
    IndexCatalog* catalog) {
  const ParseResult parsed = ParseQuery(text);
  if (!parsed.ok) {
    return Status(StatusCode::kInvalidArgument,
                  "parse error: " + parsed.error);
  }
  const Status vetted = CheckBindable(parsed.query, relations);
  if (!vetted.ok()) return vetted;
  BoundQuery bq = Bind(parsed.query, relations, parsed.query.Variables());
  bq.catalog = catalog;
  return bq;
}

std::vector<int> GaoConsistentPerm(const std::vector<int>& vars) {
  std::vector<int> perm(vars.size());
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(),
                   [&](int a, int b) { return vars[a] < vars[b]; });
  return perm;
}

bool FiltersOk(const BoundQuery& q, const Tuple& t, int prefix_len) {
  for (const auto& [lo, hi] : q.less_than) {
    if (lo < prefix_len && hi < prefix_len && !(t[lo] < t[hi])) return false;
  }
  return true;
}

}  // namespace wcoj
