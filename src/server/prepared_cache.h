#ifndef WCOJ_SERVER_PREPARED_CACHE_H_
#define WCOJ_SERVER_PREPARED_CACHE_H_

// Prepared-query cache: parse, validate, bind, and classify once —
// execute many times against the shared catalog.
//
// The daemon's hot path is "same query text, different client": every
// entry memoizes the full front half of a request (BindText, the one
// parse-vet-bind gate query_runner also uses, against the server's
// relations; the engine instance; and the AGM-bound cheap/heavy
// classification the admission controller keys on), so a
// cache hit goes straight from request line to Engine::Execute over the
// already-resident indexes. Entries are immutable after construction
// and handed out as shared_ptr, so concurrent requests execute the same
// prepared query safely (engines are stateless; BoundQuery is
// read-only).
//
// Keyed on (engine name, raw query text); capacity-bounded LRU.
// Validation failures are NOT cached — they are cheap to recompute and
// a negative cache would let a stream of distinct garbage evict real
// entries.

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>

#include "core/engine.h"
#include "query/query.h"
#include "server/admission.h"
#include "util/thread_annotations.h"

namespace wcoj {

struct PreparedQuery {
  std::unique_ptr<Engine> engine;
  BoundQuery bound;
  QueryClass cls = QueryClass::kCheap;
  double agm_log2 = 0.0;  // log2 of the AGM output bound
};

class PreparedQueryCache {
 public:
  // `relations` / `catalog` must outlive the cache (the server owns
  // both). Queries whose AGM bound is >= 2^heavy_log2_threshold are
  // classified heavy.
  PreparedQueryCache(std::map<std::string, const Relation*> relations,
                     IndexCatalog* catalog, double heavy_log2_threshold,
                     size_t capacity);

  PreparedQueryCache(const PreparedQueryCache&) = delete;
  PreparedQueryCache& operator=(const PreparedQueryCache&) = delete;

  // Returns the prepared query (building + inserting on miss), or null
  // with *status = kInvalidArgument for malformed/unbindable queries
  // and unknown engines. *cache_hit reports whether the prepared form
  // was served from cache.
  std::shared_ptr<const PreparedQuery> Get(const std::string& engine_name,
                                           const std::string& text,
                                           Status* status, bool* cache_hit);

  size_t size() const;

 private:
  std::shared_ptr<PreparedQuery> Build(const std::string& engine_name,
                                       const std::string& text,
                                       Status* status) const;

  const std::map<std::string, const Relation*> relations_;
  IndexCatalog* const catalog_;
  const double heavy_log2_threshold_;
  const size_t capacity_;

  mutable Mutex mu_;
  // LRU: most recent at the front; the map points into the list.
  std::list<std::pair<std::string, std::shared_ptr<PreparedQuery>>> lru_
      WCOJ_GUARDED_BY(mu_);
  std::map<std::string, decltype(lru_)::iterator> index_
      WCOJ_GUARDED_BY(mu_);
};

}  // namespace wcoj

#endif  // WCOJ_SERVER_PREPARED_CACHE_H_
