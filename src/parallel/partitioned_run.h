#ifndef WCOJ_PARALLEL_PARTITIONED_RUN_H_
#define WCOJ_PARALLEL_PARTITIONED_RUN_H_

// Morsel-driven output-space partitioning (§4.10, scheduled HyPer-style).
//
// The first GAO variable's domain is split into num_threads * granularity
// morsels; each morsel is a job restricting the engine via
// ExecOptions::var0_{min,max}. Unlike the old value-uniform slicing
// (lo + span*p/parts — empty morsels on skewed data, one hub morsel
// owning the work, and signed overflow on wide domains), boundaries are
// *rank-based*, and there is one rule for every engine: var0's domain
// is read from level 0 of the var0 atoms' GAO-consistent tries, and the
// pilot trie (most level-0 keys) is cut at subtree-breadth quantiles
// (TrieIndex::SplitPoints), so each morsel covers an equal share of
// keys weighted by fanout. Boundaries are actual domain values, so no
// span arithmetic can overflow.
//
// Catalog: the run is bound to one IndexCatalog — the query's, or, when
// q.catalog is null, one private to the call — the rule single
// executions and the hybrid follow. Engines that read GAO tries (LFTJ,
// Minesweeper and its ablations, the hybrid) have them built once, in
// parallel on the pool, before any morsel runs, and every morsel
// executes over them, so a run builds each distinct trie once however
// many morsels it has. Engines that do not read GAO tries (the pairwise
// baselines) get their split tries built in the run-private catalog, so
// a shared catalog never keeps tries no engine probes. Split-trie builds
// are governed by opts.budget; a refused build fails the run closed
// before any morsel runs.
//
// Morsels run on a work-stealing WorkerPool (persistent threads,
// per-worker deques, steal-half); pass `worker_pool` to reuse one
// pool's threads across many queries, else a per-call pool is used.
// A supplied pool's own thread count wins — `num_threads` is ignored
// (worker ids, deques, and scratch slots are per-pool-worker), so cap
// concurrency by sizing the pool, not the argument.
//
// Cancellation: every morsel polls one run-scoped StopToken, chained
// to the caller's ExecOptions::stop when set. A morsel that times out
// — or an expired deadline observed at a morsel boundary — requests
// the run's stop, queued morsels are skipped, and running engines wind
// down at their next frontier check, so the whole run fails promptly
// instead of grinding through the remaining ranges. Every morsel's
// outcome merges into one Status: the first root cause wins over the
// secondary kCancelled of the siblings it stopped. The caller's own
// token is observed but never written.
//
// Engines that ignore ExecOptions::var0_{min,max} (see
// Engine::honors_var0_range) execute as a single morsel — fanning them
// out would multiply the answer by the morsel count.
//
// Every worker owns an ExecScratch: the first job a worker runs builds
// its CDS arena, every subsequent job on that worker reuses the warm
// memory (observable as EngineStats::cds_nodes_recycled). Pass a
// `scratch_pool` that outlives the call to keep worker arenas warm
// across whole queries; `opts.scratch` is ignored (a single scratch
// cannot be shared by concurrent jobs).
//
// Like RunTimed, it fills ExecResult::seconds with the whole call's wall
// time, on every exit (pre-cancelled and range-blind runs included).

#include "core/engine.h"
#include "parallel/worker_pool.h"

namespace wcoj {

ExecResult PartitionedExecute(const Engine& engine, const BoundQuery& q,
                              const ExecOptions& opts, int num_threads,
                              int granularity,
                              ExecScratchPool* scratch_pool = nullptr,
                              WorkerPool* worker_pool = nullptr);

// Parallel flavor of WarmQueryIndexes (core/atom_index.h): builds the
// GAO-consistent index of every atom of `q` in its catalog, one `pool`
// job per atom, so a cold partitioned run constructs independent
// indexes concurrently instead of serially. The catalog builds each
// distinct (relation, permutation) pair once and reports the build to
// one caller, so per-atom build/hit accounting is identical to the
// serial warm pass.
// No-op without a catalog. Builds are governed by `budget` when given;
// the first build failure (budget refusal / injected fault) is folded
// into *status.
EngineStats WarmQueryIndexesParallel(const BoundQuery& q, WorkerPool& pool,
                                     MemoryBudget* budget = nullptr,
                                     Status* status = nullptr);

}  // namespace wcoj

#endif  // WCOJ_PARALLEL_PARTITIONED_RUN_H_
