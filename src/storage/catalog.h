#ifndef WCOJ_STORAGE_CATALOG_H_
#define WCOJ_STORAGE_CATALOG_H_

// Resident, shared trie indexes — the repo's stand-in for LogicBlox's
// always-on B-tree indexes the paper's engines assume (§2, §5.1).
//
//  * IndexCatalog memoizes TrieIndex instances keyed by
//    (relation identity, column permutation). GetOrBuild is thread-safe
//    and builds each distinct index exactly once even under concurrent
//    callers: losers of the insertion race wait for the winner's build
//    and receive the same pointer. This is what lets the §4.10 output
//    partitioner run many jobs over one set of indexes instead of
//    re-sorting every relation in every partition.
//
//  * Database owns named Relations plus their catalog, so queries bound
//    through it (see Bind(query, db, gao) in query/query.h) execute
//    against resident indexes — the warm regime every timing in the
//    paper is measured in.
//
// Lifetime contract: the catalog hands out raw TrieIndex pointers; the
// relations an index was built over, and the catalog itself, must
// outlive every user of those pointers. Invalidate must not race
// with GetOrBuild callers still holding returned indexes.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>  // std::once_flag / std::call_once (Entry build race)
#include <string>
#include <vector>

#include "storage/relation.h"
#include "storage/trie.h"
#include "util/mem_budget.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace wcoj {

// Outcome of a persistent-catalog open sweep (IndexCatalog::OpenFrom).
// Skipped entries are the designed degradation path — a stale
// fingerprint or corrupt file just rebuilds in memory on first use —
// but they are counted and explained here so operators can tell a warm
// start that loaded everything from one that silently fell back.
struct CatalogOpenStats {
  size_t installed = 0;
  size_t skipped = 0;  // stale / corrupt / truncated
  std::vector<std::string> skip_log;  // one "file: reason" per skip
  Status status;  // manifest-level failure (unreadable dir/manifest)
};

class IndexCatalog {
 public:
  IndexCatalog() = default;
  IndexCatalog(const IndexCatalog&) = delete;
  IndexCatalog& operator=(const IndexCatalog&) = delete;

  // Returns the shared index over `rel` in trie-column order `perm`
  // (identity when empty), building it exactly once per distinct
  // (relation, permutation) pair. When `built` is non-null it is set to
  // true iff this call performed the build (callers feed this into
  // EngineStats::index_builds / index_cache_hits).
  //
  // `budget` governs the build's transient footprint; a refused charge
  // (or an armed "trie.build" failpoint) makes the build fail closed:
  // the call returns nullptr, `*status` carries the cause, and the
  // cache slot is released so a later call — e.g. the same query rerun
  // with a bigger budget — retries the build instead of being poisoned
  // by the failure. Same-key racers waiting on the failed build also
  // receive nullptr + the status.
  const TrieIndex* GetOrBuild(const Relation& rel, std::vector<int> perm,
                              bool* built = nullptr,
                              MemoryBudget* budget = nullptr,
                              Status* status = nullptr);

  // As GetOrBuild, bumping *builds or *hits — the EngineStats counter
  // update every engine performs. Failed builds bump neither.
  const TrieIndex* GetOrBuildCounted(const Relation& rel,
                                     std::vector<int> perm, uint64_t* builds,
                                     uint64_t* hits,
                                     MemoryBudget* budget = nullptr,
                                     Status* status = nullptr) {
    bool built = false;
    const TrieIndex* index =
        GetOrBuild(rel, std::move(perm), &built, budget, status);
    if (index != nullptr) ++(built ? *builds : *hits);
    return index;
  }

  // --- Persistent catalog (implemented in storage/persist.cc) ---

  // Writes every resident (fully built) index to `dir` as one versioned
  // binary file each, whose checksummed header records its identity
  // (relation fingerprint, arity, permutation), then
  // commits a MANIFEST listing the file names, one per line, by atomic
  // rename. Returns the number of files written; in-flight builds are
  // skipped. Safe with concurrent GetOrBuild, and serialized against
  // concurrent SaveTo callers (same or other process) by an advisory
  // flock on `dir/.catalog.lock`, so two writers cannot interleave
  // their tmp+rename sequences. On failure *status names the first file
  // or manifest step that failed, and no new manifest is committed.
  size_t SaveTo(const std::string& dir, Status* status = nullptr);

  // Maps every file `dir`'s MANIFEST lists and validates its header.
  // Where the header's fingerprint and arity match one of `live`'s
  // relations, the zero-copy index is installed over that
  // relation under the permutation the header names (the file name is
  // never trusted). Stale fingerprints, malformed entries and
  // truncated/corrupt files are skipped cleanly — those indexes simply
  // build in memory on first use — with each skip counted and explained
  // in *stats. Returns the number installed.
  size_t OpenFrom(const std::string& dir,
                  const std::vector<const Relation*>& live,
                  CatalogOpenStats* stats = nullptr);

  // Seeds the (rel, perm) cache slot with an already-materialized index
  // (the mmap warm-start path). Later GetOrBuild calls on the key count
  // as cache hits; if the key is already built, `index` is dropped.
  void Install(const Relation& rel, std::vector<int> perm,
               std::unique_ptr<TrieIndex> index);

  // Drops every cached index built over `rel`. Use after replacing a
  // relation's contents in place; see the lifetime contract above.
  void Invalidate(const Relation* rel);

  size_t size() const;      // distinct indexes currently resident
  uint64_t builds() const { return builds_.load(std::memory_order_relaxed); }
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }

 private:
  struct Key {
    const Relation* rel;
    std::vector<int> perm;
    bool operator<(const Key& o) const {
      if (rel != o.rel) return std::less<const Relation*>{}(rel, o.rel);
      return perm < o.perm;
    }
  };
  // Heap-allocated so waiting threads can hold the entry across the map
  // lock; once_flag serializes the build without blocking other keys.
  // `ready` flips after the once fires — SaveTo's way of telling a
  // completed index from one still mid-build.
  //
  // Entry fields are NOT guarded by mu_: the once_flag is their
  // synchronization edge (winner writes before the once completes,
  // waiters read after), which the static analysis cannot model.
  struct Entry {
    std::once_flag once;
    std::unique_ptr<TrieIndex> index;
    std::atomic<bool> ready{false};
    // Why the build failed (index stays null). Written by the build
    // winner before the once completes; read by waiters after — the
    // call_once is the synchronization edge.
    Status build_status;
  };

  mutable Mutex mu_;
  std::map<Key, std::shared_ptr<Entry>> entries_ WCOJ_GUARDED_BY(mu_);
  std::atomic<uint64_t> builds_{0};
  std::atomic<uint64_t> hits_{0};
};

// Named relations + their shared IndexCatalog. Relations are resident
// (stable addresses) until replaced by another Put with the same name,
// which also invalidates the replaced relation's cached indexes.
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Registers `rel` (which must be Build()-finalized) under `name`,
  // replacing any previous relation of that name. Returns the resident
  // relation.
  const Relation* Put(const std::string& name, Relation rel);

  // Null when absent.
  const Relation* Find(const std::string& name) const;

  // Name -> resident relation view, the shape the legacy Bind consumes.
  std::map<std::string, const Relation*> Map() const;

  size_t size() const { return relations_.size(); }
  IndexCatalog* catalog() const { return &catalog_; }

  // Persistent warm start (storage/persist.cc): SaveCatalog snapshots
  // the resident indexes to `dir`; LoadCatalog matches that directory's
  // files against this database's current relations and installs the
  // mmap-backed indexes, so the first query pays page faults instead of
  // builds. Both return the number of index files processed.
  size_t SaveCatalog(const std::string& dir, Status* status = nullptr) const;
  size_t LoadCatalog(const std::string& dir,
                     CatalogOpenStats* stats = nullptr);

 private:
  std::map<std::string, Relation> relations_;  // node stability = residency
  mutable IndexCatalog catalog_;  // mutable: a cache, not logical state
};

}  // namespace wcoj

#endif  // WCOJ_STORAGE_CATALOG_H_
