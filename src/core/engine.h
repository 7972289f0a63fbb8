#ifndef WCOJ_CORE_ENGINE_H_
#define WCOJ_CORE_ENGINE_H_

// Uniform engine interface.
//
// Every join processor in this repo — LFTJ, Minesweeper (and its idea
// ablations), the hybrid, the Selinger-style baselines, Yannakakis, and
// the specialized clique engine — implements Engine::Execute over a
// BoundQuery. Benchmarks and tests treat engines interchangeably, exactly
// how the paper swaps join algorithms inside one system.
// Every engine also winds down the same way, through one AbortPoll.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/cds.h"
#include "core/cds_arena.h"
#include "query/query.h"
#include "util/mem_budget.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/value.h"

namespace wcoj {

struct EngineStats {
  uint64_t seeks = 0;                 // index probe operations
  uint64_t constraints_inserted = 0;  // Minesweeper CDS inserts
  uint64_t free_tuples = 0;           // Minesweeper candidate tuples
  uint64_t gap_cache_hits = 0;        // Idea 4 avoided probes
  uint64_t intermediate_tuples = 0;   // baseline materialized rows
  uint64_t index_builds = 0;          // TrieIndex constructions performed
  uint64_t index_cache_hits = 0;      // catalog indexes reused, no build
  // CDS arena accounting (core/cds_arena.h): nodes carved from fresh
  // arena memory vs nodes served from free lists / warm slabs. A warm
  // scratch run reports cds_nodes_allocated == 0 — the allocation-free
  // steady state. cds_peak_arena_bytes is the arena's high-water heap
  // footprint (merged with max, not sum: per-worker arenas coexist).
  uint64_t cds_nodes_allocated = 0;
  uint64_t cds_nodes_recycled = 0;
  uint64_t cds_peak_arena_bytes = 0;
  // High-water mark of the query's MemoryBudget (0 when no budget was
  // installed). Merged with max: morsels share one budget, so every
  // part observes the same governor.
  uint64_t peak_budget_bytes = 0;

  // Field-wise merge; partitioned runs and multi-phase engines merge
  // per-part stats with this. Counters sum, footprints take the max.
  void Add(const EngineStats& o) {
    seeks += o.seeks;
    constraints_inserted += o.constraints_inserted;
    free_tuples += o.free_tuples;
    gap_cache_hits += o.gap_cache_hits;
    intermediate_tuples += o.intermediate_tuples;
    index_builds += o.index_builds;
    index_cache_hits += o.index_cache_hits;
    cds_nodes_allocated += o.cds_nodes_allocated;
    cds_nodes_recycled += o.cds_nodes_recycled;
    cds_peak_arena_bytes = std::max(cds_peak_arena_bytes, o.cds_peak_arena_bytes);
    peak_budget_bytes = std::max(peak_budget_bytes, o.peak_budget_bytes);
  }
};

// Reusable per-worker execution scratch, owned by the caller (a §4.10
// partition worker, a repeated CLI run, an incremental view). An engine
// handed a scratch draws its CDS from the scratch's arena instead of
// building one on the general-purpose heap, so every execution after
// the first runs against warm memory and the steady state performs no
// CDS heap allocation. A scratch must never be shared by concurrent
// executions — one worker, one scratch.
struct ExecScratch {
  CdsArena cds_arena;

  // One warm Cds shell on top of the arena: Reconfigure()d to the run's
  // shape, it reuses its internal search vectors run after run. The
  // returned reference is invalidated by the next AcquireCds call.
  //
  // `run_token` identifies one logical query execution that spans many
  // engine invocations — the morsel scheduler stamps every morsel of a
  // partitioned run with the same nonzero token. When a token matches
  // the previous acquisition, the shell keeps its whole constraint tree
  // (Cds::ResumeRetainingTree) instead of rebuilding it, so each morsel
  // a worker picks up starts from everything the worker already learned
  // about the data. Token 0 (the default) always reconfigures.
  Cds& AcquireCds(int num_vars, const Cds::Options& options,
                  uint64_t run_token = 0) {
    if (cds == nullptr) {
      cds = std::make_unique<Cds>(num_vars, options, &cds_arena);
    } else if (run_token != 0 && run_token == cds_run_token) {
      cds->ResumeRetainingTree();
      cds_run_token = run_token;
      return *cds;
    } else {
      cds->Reconfigure(num_vars, options);
    }
    cds_run_token = run_token;
    return *cds;
  }

  std::unique_ptr<Cds> cds;
  uint64_t cds_run_token = 0;
};

// Stable per-worker scratch slots for multi-threaded drivers (pool
// workers, the server's admission slots): worker w always gets the same
// ExecScratch, which stays warm across runs when the pool outlives them
// (PartitionedExecute accepts a caller pool).
class ExecScratchPool {
 public:
  // Ensures workers [0, n) exist. Not thread-safe: size the pool before
  // handing ForWorker out to concurrent jobs.
  void Reserve(int n) {
    while (static_cast<int>(workers_.size()) < n) {
      workers_.push_back(std::make_unique<ExecScratch>());
    }
  }
  ExecScratch* ForWorker(int w) {
    assert(w >= 0 && w < static_cast<int>(workers_.size()));
    return workers_[w].get();
  }
  int size() const { return static_cast<int>(workers_.size()); }

 private:
  std::vector<std::unique_ptr<ExecScratch>> workers_;
};

struct ExecOptions {
  Deadline deadline = Deadline::Infinite();
  bool collect_tuples = false;  // keep full output tuples, not just a count
  // Inclusive range restriction on the first GAO variable; used by the
  // parallel output-space partitioner (§4.10).
  Value var0_min = kNegInf;
  Value var0_max = kPosInf;
  // Warm per-worker scratch; null means each execution uses an
  // ExecScratch private to it. Must outlive the execution and see at
  // most one execution at a time.
  ExecScratch* scratch = nullptr;
  // Shared cooperative stop: engines treat a requested stop exactly like
  // an expired deadline (wind down at the next frontier boundary, report
  // kCancelled). The morsel scheduler hands every morsel the same token
  // so one partition's timeout cancels the whole run; callers may
  // install their own to cancel a run externally. Must outlive the
  // execution. Engines only ever *read* it.
  StopToken* stop = nullptr;
  // Nonzero when this execution is one morsel of a larger partitioned
  // run: engines pass it to ExecScratch::AcquireCds so consecutive
  // morsels on one worker keep the CDS constraint tree instead of
  // paying a full Reconfigure each (see AcquireCds). Stamped by
  // PartitionedExecute; single executions leave it 0.
  uint64_t cds_run_token = 0;
  // Per-query memory governor, shared by every morsel of a partitioned
  // run. Charged by CDS arenas, trie builds and materialized
  // intermediates (never by mapped catalog files); engines wind down
  // with kBudgetExceeded when the budget latches (see AbortPoll). Null
  // means ungoverned.
  MemoryBudget* budget = nullptr;

  // The full "stop working now" predicate: latched budget, requested
  // stop, or expired deadline. The first two legs are relaxed atomic
  // loads, the last a clock read; engine loops reach it through
  // AbortPoll, which rate-limits it by work.
  bool Aborted() const {
    return (budget != nullptr && budget->exceeded()) ||
           (stop != nullptr && stop->stop_requested()) || deadline.Expired();
  }

  // Why an Aborted() execution winds down, applied at the engine's
  // wind-down point: a latched budget wins, then a requested stop
  // (kCancelled), else the deadline.
  Status AbortStatus() const {
    if (budget != nullptr && budget->exceeded()) {
      return Status(StatusCode::kBudgetExceeded,
                    "query memory budget exceeded");
    }
    if (stop != nullptr && stop->stop_requested()) {
      return Status(StatusCode::kCancelled, "execution cancelled");
    }
    return Status(StatusCode::kDeadlineExceeded, "deadline expired");
  }
};

// The one wind-down check: engine hot loops and the CDS search call
// Check(work) with the units of work done since the last call. Each call
// reads the stop token; Aborted() runs on the first call and whenever the
// work total crosses a multiple of kInterval, so checks stay spaced by
// work, not calls. The first abort latches AbortStatus(). One poll per
// execution, never shared across threads.
class AbortPoll {
 public:
  static constexpr uint64_t kInterval = 4096;

  explicit AbortPoll(const ExecOptions& opts) : opts_(opts) {}

  // True once the execution must wind down.
  bool Check(uint64_t work = 1) {
    const uint64_t before = work_;
    work_ += work;
    if (status_.ok() &&
        ((opts_.stop != nullptr && opts_.stop->stop_requested()) ||
         (work_ / kInterval != before / kInterval && opts_.Aborted()))) {
      status_ = opts_.AbortStatus();
    }
    return !status_.ok();
  }

  bool aborted() const { return !status_.ok(); }
  const Status& status() const { return status_; }  // OK until it fires

 private:
  const ExecOptions& opts_;
  uint64_t work_ = kInterval - 1;  // the first Check crosses a multiple
  Status status_;
};

struct ExecResult {
  uint64_t count = 0;
  std::vector<Tuple> tuples;  // populated iff collect_tuples
  EngineStats stats;
  double seconds = 0.0;  // filled by RunTimed and PartitionedExecute
  // The one record of how the run ended. OK means count/tuples are the
  // exact answer; any other code means the run failed closed (cancel,
  // deadline, budget, bad input, internal fault), and the result then
  // carries no count or tuples (FinalizeExecStatus clears them).
  Status status;

  bool ok() const { return status.ok(); }
};

// Applied once at every Execute exit: snapshots the budget high-water
// mark into stats, and fails an otherwise-OK run with kBudgetExceeded
// when the budget latched — even if the engine raced past its poll and
// finished (deterministic fail-closed). A status the engine already set
// (its AbortStatus at wind-down, bad input, a stall, an alloc failure)
// always wins. A failed run leaves here with no count and no tuples, so
// no caller can mistake a partial answer for the answer.
inline void FinalizeExecStatus(ExecResult* result, const ExecOptions& opts) {
  if (opts.budget != nullptr) {
    result->stats.peak_budget_bytes =
        std::max(result->stats.peak_budget_bytes, opts.budget->peak());
    if (result->status.ok() && opts.budget->exceeded()) {
      result->status = opts.AbortStatus();
    }
  }
  if (!result->status.ok()) {
    result->count = 0;
    result->tuples.clear();
  }
}

// How an engine's catalog usage is made resident ahead of timed runs:
//   kGaoIndexes   consumes the per-atom GAO-consistent indexes, so
//                 WarmQueryIndexes makes later runs build-free
//                 (LFTJ, Minesweeper + ablations, the hybrid)
//   kByExecution  probes plan-dependent permutations that only a real
//                 execution touches (the pairwise baselines)
//   kNone         never reads the catalog (Yannakakis, clique)
enum class CatalogWarmup { kGaoIndexes, kByExecution, kNone };

class Engine {
 public:
  virtual ~Engine() = default;
  virtual std::string name() const = 0;
  virtual ExecResult Execute(const BoundQuery& q,
                             const ExecOptions& opts) const = 0;
  virtual CatalogWarmup catalog_warmup() const {
    return CatalogWarmup::kGaoIndexes;
  }
  // Whether the morsel scheduler may fan Execute out over
  // ExecOptions::var0_{min,max} ranges: the output must be restricted
  // to the range (summing full-query counts once per morsel would
  // silently multiply the answer), and a range's cost must shrink with
  // it. Engines whose ranged call still does the whole query's work —
  // Yannakakis reruns its semijoin program, the clique engine rebuilds
  // its forward graph and enumerates every clique — return false and
  // run as one morsel.
  virtual bool honors_var0_range() const { return true; }
};

// Executes and fills result.seconds.
ExecResult RunTimed(const Engine& engine, const BoundQuery& q,
                    const ExecOptions& opts);

// Factory over the fixed engine set:
//   "lftj"        Leapfrog Triejoin
//   "ms"          Minesweeper, all ideas on
//   "ms-noidea4", "ms-noidea6", "ms-noidea7", "ms-noidea46"  ablations
//   "#ms"         counting Minesweeper (Idea 8)
//   "hybrid"      Minesweeper prefix + LFTJ suffix (§4.12)
//   "psql"        Selinger-style DP plan over pairwise hash joins
//   "monetdb"     same plan space, column-batch execution flavor
//   "yannakakis"  semijoin-reduction engine for alpha-acyclic queries
//   "clique"      specialized triangle/4-clique engine (GraphLab stand-in)
// Returns nullptr for unknown names.
std::unique_ptr<Engine> CreateEngine(const std::string& name);

// All names CreateEngine accepts.
std::vector<std::string> EngineNames();

}  // namespace wcoj

#endif  // WCOJ_CORE_ENGINE_H_
