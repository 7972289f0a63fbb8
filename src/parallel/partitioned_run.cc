#include "parallel/partitioned_run.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <utility>
#include <vector>

#include "storage/catalog.h"
#include "storage/trie.h"
#include "util/failpoint.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"

namespace wcoj {

namespace {

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
  // One job per atom. The catalog builds each distinct key once and
  // reports the build to exactly one of its same-key callers, so the
  // per-atom build/hit tally equals the serial warm pass's while
  // distinct keys build concurrently.
  std::vector<EngineStats> atom_stats(q.atoms.size());
  std::vector<Status> atom_status(q.atoms.size());
  std::vector<std::function<void()>> jobs;
  jobs.reserve(q.atoms.size());
  for (size_t a = 0; a < q.atoms.size(); ++a) {
    jobs.push_back([&, a]() {
      const BoundAtom& atom = q.atoms[a];
      const TrieIndex* index = q.catalog->GetOrBuildCounted(
          *atom.relation, GaoConsistentPerm(atom.vars),
          &atom_stats[a].index_builds, &atom_stats[a].index_cache_hits,
          budget, &atom_status[a]);
      if (index == nullptr && atom_status[a].ok()) {
        atom_status[a] = Status(StatusCode::kInternal, "index build failed");
      }
    });
  }
  pool.Run(jobs);
  for (size_t a = 0; a < q.atoms.size(); ++a) {
    stats.Add(atom_stats[a]);
    if (status != nullptr) status->Update(atom_status[a]);
  }
  return stats;
}

namespace {

// The run behind PartitionedExecute, which times it.
ExecResult RunPartitioned(const Engine& engine, const BoundQuery& q,
                          const ExecOptions& opts, int num_threads,
                          int granularity, ExecScratchPool* scratch_pool,
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
  // Bind the run to one catalog: the query's, or one private to this
  // call, so a cold run builds each distinct trie once rather than once
  // per morsel.
  IndexCatalog private_catalog;
  BoundQuery run_q = q;
  if (run_q.catalog == nullptr) run_q.catalog = &private_catalog;
  // Engines that read GAO tries execute over the run's catalog, warmed
  // once before any morsel runs; distinct tries build concurrently
  // across the pool. The others never probe GAO tries, so theirs (only
  // needed for split points) go to the private catalog, and the shared
  // catalog never keeps tries no engine reads; their morsels execute `q`
  // as given (without a catalog the pairwise joins hash-join, trie-free).
  const bool reads_gao_tries =
      engine.catalog_warmup() == CatalogWarmup::kGaoIndexes;
  IndexCatalog* split_catalog =
      reads_gao_tries ? run_q.catalog : &private_catalog;
  Status build_status;
  if (reads_gao_tries) {
    total.stats.Add(
        WarmQueryIndexesParallel(run_q, *pool, opts.budget, &build_status));
  }

  // Domain of the first GAO variable (union over atoms containing it)
  // plus the skew pilot: the var0-binding trie with the most level-0
  // keys, whose CSR key array drives split-point selection. The largest
  // key population is where a value-uniform split would concentrate
  // work, so it is the distribution worth tracking. Lookups here are
  // uncounted: the stats counters track engine work, and for GAO
  // engines the warm pass above already accounted for every key.
  Value lo = kPosInf, hi = kNegInf;
  const TrieIndex* pilot = nullptr;
  for (const auto& atom : q.atoms) {
    if (!build_status.ok()) break;
    if (std::find(atom.vars.begin(), atom.vars.end(), 0) == atom.vars.end()) {
      continue;
    }
    const TrieIndex* index =
        split_catalog->GetOrBuild(*atom.relation, GaoConsistentPerm(atom.vars),
                                  nullptr, opts.budget, &build_status);
    if (index == nullptr || index->size() == 0) continue;
    lo = std::min(lo, index->ColMin(0));
    hi = std::max(hi, index->ColMax(0));
    if (pilot == nullptr || index->LevelSize(0) > pilot->LevelSize(0)) {
      pilot = index;
    }
  }
  if (!build_status.ok()) {
    // A refused/faulted build would fail every morsel the same way;
    // fail the run closed before spawning any.
    total.status = build_status;
    FinalizeExecStatus(&total, opts);
    return total;
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

  // Rank-based morsel boundaries: quantiles over the pilot's level-0
  // keys, weighted by subtree breadth. Splits outside [lo, hi] are
  // dropped by MorselRanges, so a var0-restricted call simply gets
  // fewer, still balanced, morsels.
  const std::vector<std::pair<Value, Value>> ranges = MorselRanges(
      lo, hi, pilot->SplitPoints(std::max(1, threads * granularity)));
  const BoundQuery& morsel_q = reads_gao_tries ? run_q : q;

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
      ExecResult r = engine.Execute(morsel_q, job_opts);
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

}  // namespace

ExecResult PartitionedExecute(const Engine& engine, const BoundQuery& q,
                              const ExecOptions& opts, int num_threads,
                              int granularity,
                              ExecScratchPool* scratch_pool,
                              WorkerPool* worker_pool) {
  Stopwatch watch;
  ExecResult result = RunPartitioned(engine, q, opts, num_threads,
                                     granularity, scratch_pool, worker_pool);
  result.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace wcoj
