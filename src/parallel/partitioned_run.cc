#include "parallel/partitioned_run.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/atom_index.h"
#include "storage/trie.h"
#include "util/failpoint.h"
#include "util/thread_annotations.h"

namespace wcoj {

namespace {

// Key of a distinct warm-up build job. Hashed: the old first-occurrence
// linear scan compared full permutation vectors pairwise, O(atoms^2)
// vector compares per query.
struct WarmKey {
  const Relation* relation;
  std::vector<int> perm;
  bool operator==(const WarmKey& o) const {
    return relation == o.relation && perm == o.perm;
  }
};

struct WarmKeyHash {
  size_t operator()(const WarmKey& k) const {
    size_t h = std::hash<const void*>()(k.relation);
    for (int c : k.perm) {
      h = h * 1000003u + static_cast<size_t>(c) + 0x9e3779b9u;
    }
    return h;
  }
};

// Quantile boundaries over a sorted (duplicates kept) value sequence:
// at most parts-1 strictly increasing values cutting the sequence into
// roughly equal-population ranges. The cold-path analogue of
// TrieIndex::SplitPoints — duplicates in the scan stand in for the
// subtree-breadth weights the trie stores explicitly.
std::vector<Value> QuantileSplits(const std::vector<Value>& sorted,
                                  int parts) {
  std::vector<Value> splits;
  const size_t n = sorted.size();
  if (parts <= 1 || n == 0) return splits;
  for (int j = 1; j < parts; ++j) {
    const size_t rank = n * static_cast<size_t>(j) / parts;
    if (rank == 0 || rank >= n) continue;
    const Value v = sorted[rank - 1];
    if (v == sorted.back()) break;  // tail range must stay non-degenerate
    if (splits.empty() || splits.back() < v) splits.push_back(v);
  }
  return splits;
}

// Inclusive [a, b] morsel ranges covering [lo, hi], cut at the given
// strictly increasing split values. Boundaries are actual domain
// values, never derived from span arithmetic — a domain spanning the
// whole int64 range produces no overflow.
std::vector<std::pair<Value, Value>> MorselRanges(
    Value lo, Value hi, const std::vector<Value>& splits) {
  std::vector<std::pair<Value, Value>> ranges;
  Value a = lo;
  for (const Value s : splits) {
    if (s < a || s >= hi) continue;  // clamp into (a, hi)
    ranges.emplace_back(a, s);
    a = s + 1;  // s < hi, so no wraparound
  }
  ranges.emplace_back(a, hi);
  return ranges;
}

// Morsel-status aggregation: first error wins, except that a root cause
// (deadline, budget, I/O, injected fault) always displaces a secondary
// kCancelled — sibling morsels cancelled by the failing one must not
// mask why the run failed.
void MergeMorselStatus(Status* agg, const Status& s) {
  if (s.ok()) return;
  if (agg->ok() || (agg->code() == StatusCode::kCancelled &&
                    s.code() != StatusCode::kCancelled)) {
    *agg = s;
  }
}

}  // namespace

EngineStats WarmQueryIndexesParallel(const BoundQuery& q, WorkerPool& pool,
                                     MemoryBudget* budget, Status* status) {
  EngineStats stats;
  if (q.catalog == nullptr) return stats;
  // Distinct (relation, permutation) keys; the map owns each key once,
  // `keys` preserves node-stable pointers for the build jobs.
  std::unordered_map<WarmKey, size_t, WarmKeyHash> key_ids;
  std::vector<const WarmKey*> keys;
  std::vector<size_t> atom_key(q.atoms.size());
  for (size_t a = 0; a < q.atoms.size(); ++a) {
    WarmKey key{q.atoms[a].relation, GaoConsistentPerm(q.atoms[a].vars)};
    auto [it, inserted] = key_ids.emplace(std::move(key), keys.size());
    if (inserted) keys.push_back(&it->first);
    atom_key[a] = it->second;
  }
  // One build job per distinct key; the catalog serializes same-key
  // racers internally, so distinct keys are the real parallelism.
  std::vector<char> built(keys.size(), 0);
  std::vector<Status> build_status(keys.size());
  std::vector<std::function<void()>> jobs;
  jobs.reserve(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    jobs.push_back([&, k]() {
      bool b = false;
      const TrieIndex* index = q.catalog->GetOrBuild(
          *keys[k]->relation, keys[k]->perm, &b, budget, &build_status[k]);
      if (index == nullptr && build_status[k].ok()) {
        build_status[k] = Status(StatusCode::kInternal, "index build failed");
      }
      built[k] = b ? 1 : 0;
    });
  }
  pool.Run(jobs);
  if (status != nullptr) {
    for (const Status& st : build_status) status->Update(st);
  }
  // Per-atom accounting, matching the serial WarmQueryIndexes: the
  // first atom of each key records its build (or resident hit), every
  // repeat atom a hit.
  std::vector<char> seen(keys.size(), 0);
  for (size_t a = 0; a < q.atoms.size(); ++a) {
    const size_t k = atom_key[a];
    if (!seen[k] && built[k]) {
      ++stats.index_builds;
    } else {
      ++stats.index_cache_hits;
    }
    seen[k] = 1;
  }
  return stats;
}

ExecResult PartitionedExecute(const Engine& engine, const BoundQuery& q,
                              const ExecOptions& opts, int num_threads,
                              int granularity,
                              ExecScratchPool* scratch_pool,
                              WorkerPool* worker_pool) {
  ExecResult total;
  // A run that arrives already cancelled (request token fired while the
  // query sat in an admission queue, budget latched by a sibling) must
  // not warm indexes or spawn morsels on its way out: fail closed
  // before touching the catalog.
  if (opts.Aborted()) {
    MergeMorselStatus(&total.status, opts.AbortStatus());
    FinalizeExecStatus(&total, opts);
    return total;
  }
  // A caller-provided pool dictates the worker count (its deques and
  // scratch slots are per-worker).
  const int threads =
      worker_pool != nullptr ? worker_pool->num_threads()
                             : std::max(1, num_threads);
  // One scratch per worker, sized before any job can race ForWorker. A
  // caller-owned pool stays warm across PartitionedExecute calls; the
  // local fallback at least keeps jobs within this call warm per worker.
  ExecScratchPool local_scratch_pool;
  if (scratch_pool == nullptr) scratch_pool = &local_scratch_pool;
  scratch_pool->Reserve(std::max(1, threads));
  // An engine that ignores var0 ranges would compute the full answer
  // once per morsel and the merge would multiply it: run it as one
  // morsel on the calling thread instead.
  if (!engine.honors_var0_range()) {
    ExecOptions job_opts = opts;
    job_opts.scratch = scratch_pool->ForWorker(0);
    return engine.Execute(q, job_opts);
  }
  // The per-call pool is only constructed past the early-outs above, so
  // pre-cancelled and range-blind runs never pay a thread spawn; a
  // 1-thread pool spawns nothing and runs every batch inline.
  std::optional<WorkerPool> local_pool;
  WorkerPool* pool = worker_pool;
  if (pool == nullptr) {
    local_pool.emplace(threads);
    pool = &*local_pool;
  }
  // GAO indexes are only pre-built (and only read for domain metadata
  // below) for engines that actually consume them; for the others the
  // catalog would retain full sorted copies nobody probes.
  const bool use_gao_indexes =
      q.catalog != nullptr &&
      engine.catalog_warmup() == CatalogWarmup::kGaoIndexes;
  if (use_gao_indexes) {
    // Warm the shared catalog once, before any job runs: every morsel
    // then executes over the same resident indexes, so the whole run
    // performs one build per distinct (relation, permutation) pair no
    // matter how many morsels there are. Distinct indexes build
    // concurrently across the worker pool instead of serially.
    Status warm_status;
    total.stats.Add(
        WarmQueryIndexesParallel(q, *pool, opts.budget, &warm_status));
    if (!warm_status.ok()) {
      // A refused/faulted shared build would fail every morsel the same
      // way; fail the run closed before spawning any.
      total.status = warm_status;
      FinalizeExecStatus(&total, opts);
      return total;
    }
  }

  // Domain of the first GAO variable (union over atoms containing it)
  // plus the skew pilot: the resident var0-binding index with the most
  // level-0 keys, whose CSR key array drives split-point selection. The
  // largest key population is where a value-uniform split would
  // concentrate work, so it is the distribution worth tracking.
  Value lo = kPosInf, hi = kNegInf;
  const TrieIndex* pilot = nullptr;
  std::vector<Value> scanned;  // cold path: var0 occurrences, unsorted
  // Cold-path scan dedup: repeated atoms over one relation (a triangle
  // binds edge_lt's column 0 twice) must contribute their values once.
  std::vector<std::pair<const Relation*, int>> scanned_cols;
  for (const auto& atom : q.atoms) {
    const bool has_var0 =
        std::find(atom.vars.begin(), atom.vars.end(), 0) != atom.vars.end();
    if (use_gao_indexes) {
      if (!has_var0) continue;
      // Uncounted re-read: the warm pass above already accounted for
      // this key, and the stats counters track engine work, not
      // orchestration lookups.
      const TrieIndex* index =
          q.catalog->GetOrBuild(*atom.relation, GaoConsistentPerm(atom.vars));
      if (index == nullptr || index->size() == 0) continue;
      lo = std::min(lo, index->ColMin(0));
      hi = std::max(hi, index->ColMax(0));
      if (pilot == nullptr || index->LevelSize(0) > pilot->LevelSize(0)) {
        pilot = index;
      }
      continue;
    }
    for (size_t c = 0; c < atom.vars.size(); ++c) {
      if (atom.vars[c] != 0) continue;
      const std::pair<const Relation*, int> col{atom.relation,
                                                static_cast<int>(c)};
      if (std::find(scanned_cols.begin(), scanned_cols.end(), col) !=
          scanned_cols.end()) {
        continue;
      }
      scanned_cols.push_back(col);
      for (size_t r = 0; r < atom.relation->size(); ++r) {
        const Value v = atom.relation->At(r, static_cast<int>(c));
        lo = std::min(lo, v);
        hi = std::max(hi, v);
        scanned.push_back(v);
      }
    }
  }
  if (lo > hi) {  // variable 0 has an empty domain: empty result
    FinalizeExecStatus(&total, opts);
    return total;
  }
  lo = std::max(lo, opts.var0_min);
  hi = std::min(hi, opts.var0_max);
  if (lo > hi) {
    FinalizeExecStatus(&total, opts);
    return total;
  }

  // Rank-based morsel boundaries: quantiles over resident keys (warm
  // path, subtree-breadth weighted) or over the scanned occurrences
  // (cold path, duplicates = weight). Splits outside [lo, hi] are
  // dropped by MorselRanges, so a var0-restricted call simply gets
  // fewer, still balanced, morsels.
  const int parts = std::max(1, threads * granularity);
  std::vector<Value> splits;
  if (pilot != nullptr) {
    splits = pilot->SplitPoints(parts);
  } else if (!scanned.empty()) {
    std::sort(scanned.begin(), scanned.end());
    splits = QuantileSplits(scanned, parts);
  }
  const std::vector<std::pair<Value, Value>> ranges =
      MorselRanges(lo, hi, splits);

  // Run-scoped cooperative stop, chained to the caller's token: every
  // morsel polls it, so an external cancel reaches running engines at
  // frontier granularity, while the first timed-out morsel requests
  // only the *run's* token — queued morsels skip and running engines
  // wind down, but the caller's reset-less token stays clean for its
  // next run.
  StopToken run_stop(opts.stop);
  StopToken* stop = &run_stop;

  // One nonzero token per partitioned run: every morsel carries it, so a
  // worker's ExecScratch recognizes consecutive morsels of this run and
  // keeps its CDS constraint tree across them (ExecScratch::AcquireCds)
  // instead of reconfiguring per morsel. Constraints are facts about the
  // data, valid for any var0 range; a different run (different token)
  // still reconfigures from scratch.
  static std::atomic<uint64_t> run_token_counter{0};
  const uint64_t run_token = run_token_counter.fetch_add(1) + 1;

  Mutex mu;
  std::vector<std::function<void(int)>> jobs;
  jobs.reserve(ranges.size());
  static FailPoint& worker_job_fp = FailPoints::Register("worker.job");
  for (const auto& [a, b] : ranges) {
    jobs.push_back([&, a = a, b = b](int worker) {
      ExecOptions job_opts = opts;
      job_opts.var0_min = a;
      job_opts.var0_max = b;
      job_opts.stop = stop;
      job_opts.scratch = scratch_pool->ForWorker(worker);
      job_opts.cds_run_token = run_token;
      if (job_opts.Aborted()) {
        // Cancelled before this morsel ran: its share of the output is
        // missing, so the merged result must fail. A sibling's stop
        // merges as a secondary kCancelled, displaced by its root cause.
        // The cause is read before this morsel requests the stop itself,
        // or an expired deadline would report as kCancelled.
        const Status cause = job_opts.AbortStatus();
        stop->RequestStop();
        MutexLock lock(mu);
        MergeMorselStatus(&total.status, cause);
        return;
      }
      // Fault-injection boundary: a morsel that dies at dispatch must
      // cancel its siblings and surface one aggregate error, never
      // crash or silently drop its output share.
      if (WCOJ_FAILPOINT(worker_job_fp)) {
        stop->RequestStop();
        MutexLock lock(mu);
        MergeMorselStatus(
            &total.status,
            Status(StatusCode::kInternal,
                   "injected fault at worker job boundary "
                   "(failpoint worker.job)"));
        return;
      }
      ExecResult r = engine.Execute(q, job_opts);
      // A failed morsel cancels the whole run: queued siblings skip,
      // running siblings wind down at their next poll.
      if (!r.ok()) stop->RequestStop();
      MutexLock lock(mu);
      total.count += r.count;
      MergeMorselStatus(&total.status, r.status);
      total.stats.Add(r.stats);
      if (opts.collect_tuples) {
        total.tuples.insert(total.tuples.end(), r.tuples.begin(),
                            r.tuples.end());
      }
    });
  }
  pool->Run(jobs);
  if (opts.collect_tuples) {
    std::sort(total.tuples.begin(), total.tuples.end());
  }
  FinalizeExecStatus(&total, opts);
  return total;
}

}  // namespace wcoj
