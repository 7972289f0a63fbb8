#include "storage/catalog.h"

#include <cassert>
#include <utility>

namespace wcoj {

const TrieIndex* IndexCatalog::GetOrBuild(const Relation& rel,
                                          std::vector<int> perm, bool* built,
                                          MemoryBudget* budget,
                                          Status* status) {
  // Normalize the identity spelling so `{}` and `{0..arity-1}` share a
  // cache slot (and a persisted file).
  if (perm.empty()) {
    perm.resize(rel.arity());
    for (int i = 0; i < rel.arity(); ++i) perm[i] = i;
  }
  const Key key{&rel, perm};
  std::shared_ptr<Entry> entry;
  {
    MutexLock lock(mu_);
    std::shared_ptr<Entry>& slot = entries_[key];
    if (slot == nullptr) slot = std::make_shared<Entry>();
    entry = slot;
  }
  // The build runs outside the map lock so distinct keys build in
  // parallel; call_once makes same-key racers block until the winner's
  // index is ready.
  bool did_build = false;
  std::call_once(entry->once, [&] {
    auto index =
        std::make_unique<TrieIndex>(rel, std::move(perm), budget);
    if (index->build_ok()) {
      entry->index = std::move(index);
      entry->ready.store(true, std::memory_order_release);
      did_build = true;
      builds_.fetch_add(1, std::memory_order_relaxed);
    } else {
      entry->build_status = index->build_status();
    }
  });
  if (entry->index == nullptr) {
    // Failed build (this call's or the racer's we waited on). Release
    // the slot — a retry with a bigger budget must get a fresh entry,
    // not this consumed once_flag — unless another thread already
    // replaced it.
    if (status != nullptr) *status = entry->build_status;
    if (built != nullptr) *built = false;
    MutexLock lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second == entry) entries_.erase(it);
    return nullptr;
  }
  if (!did_build) hits_.fetch_add(1, std::memory_order_relaxed);
  if (built != nullptr) *built = did_build;
  return entry->index.get();
}

void IndexCatalog::Invalidate(const Relation* rel) {
  MutexLock lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.rel == rel) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t IndexCatalog::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

const Relation* Database::Put(const std::string& name, Relation rel) {
  assert(rel.built() && "Database relations must be Build()-finalized");
  auto it = relations_.find(name);
  if (it != relations_.end()) {
    catalog_.Invalidate(&it->second);
    it->second = std::move(rel);
    return &it->second;
  }
  return &relations_.emplace(name, std::move(rel)).first->second;
}

const Relation* Database::Find(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

std::map<std::string, const Relation*> Database::Map() const {
  std::map<std::string, const Relation*> out;
  for (const auto& [name, rel] : relations_) out.emplace(name, &rel);
  return out;
}

}  // namespace wcoj
