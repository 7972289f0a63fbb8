#include "server/prepared_cache.h"

#include <utility>

#include "query/agm.h"

namespace wcoj {

PreparedQueryCache::PreparedQueryCache(
    std::map<std::string, const Relation*> relations, IndexCatalog* catalog,
    double heavy_log2_threshold, size_t capacity)
    : relations_(std::move(relations)),
      catalog_(catalog),
      heavy_log2_threshold_(heavy_log2_threshold),
      capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<PreparedQuery> PreparedQueryCache::Build(
    const std::string& engine_name, const std::string& text,
    Status* status) const {
  std::unique_ptr<Engine> engine = CreateEngine(engine_name);
  if (engine == nullptr) {
    *status = Status(StatusCode::kInvalidArgument,
                     "unknown engine '" + engine_name + "'");
    return nullptr;
  }
  StatusOr<BoundQuery> bound = BindText(text, relations_, catalog_);
  *status = bound.status();
  if (!bound.ok()) return nullptr;
  auto prepared = std::make_shared<PreparedQuery>();
  prepared->engine = std::move(engine);
  prepared->bound = bound.take();
  // Classification for the fair queue: the AGM bound is the worst-case
  // output size, the best static proxy for "how long can this run"
  // available before execution. An unbounded query (shouldn't happen
  // for vetted input) is conservatively heavy.
  const AgmResult agm = AgmBound(prepared->bound);
  prepared->agm_log2 = agm.ok ? agm.log2_bound : heavy_log2_threshold_;
  prepared->cls = !agm.ok || agm.log2_bound >= heavy_log2_threshold_
                      ? QueryClass::kHeavy
                      : QueryClass::kCheap;
  return prepared;
}

std::shared_ptr<const PreparedQuery> PreparedQueryCache::Get(
    const std::string& engine_name, const std::string& text, Status* status,
    bool* cache_hit) {
  const std::string key = engine_name + '\n' + text;
  {
    MutexLock lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      if (cache_hit != nullptr) *cache_hit = true;
      *status = OkStatus();
      return it->second->second;
    }
  }
  if (cache_hit != nullptr) *cache_hit = false;
  // Build outside the lock: parse+bind can take a while and must not
  // stall hits on other keys. Two racers on one key build twice and the
  // second insert wins the LRU slot — wasted work, never wrong results.
  std::shared_ptr<PreparedQuery> prepared =
      Build(engine_name, text, status);
  if (prepared == nullptr) return nullptr;
  MutexLock lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Another thread inserted this key while we built: serve its entry.
    // *status must be reset here too — a caller reusing a Status from a
    // previous failed request must not see that error next to a valid
    // prepared query (regression-pinned in server_test).
    lru_.splice(lru_.begin(), lru_, it->second);
    *status = OkStatus();
    return it->second->second;
  }
  lru_.emplace_front(key, std::move(prepared));
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  *status = OkStatus();
  return lru_.front().second;
}

size_t PreparedQueryCache::size() const {
  MutexLock lock(mu_);
  return lru_.size();
}

}  // namespace wcoj
