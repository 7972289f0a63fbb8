#ifndef WCOJ_PARALLEL_WORKER_POOL_H_
#define WCOJ_PARALLEL_WORKER_POOL_H_

// Persistent worker pool — the one job pool (§4.10) every fan-out runs
// on: partitioned-run morsels and the catalog pre-warm. A WorkerPool
// keeps its threads alive across Run calls, parked on a condition
// variable between batches, so repeated partitioned queries pay zero
// thread spawn/join cost.
//
// Dispatch is HyPer's morsel-driven scheme: every worker claims the
// next job index from one shared atomic cursor until the batch runs
// out. A job is a whole engine execution (milliseconds), so one
// fetch_add per job is all the scheduling a batch needs: a fast worker
// simply claims more jobs, and each worker claims its jobs in
// increasing index order.
//
// Degenerate batches (num_threads == 1, or a single job) run inline on
// the calling thread in submission order, as worker 0 — bit-for-bit
// the schedule of a serial loop, no wakeup — so single-threaded
// partitioned runs stay deterministic. A 1-thread pool spawns no
// thread at all.
//
// Run() is not re-entrant and must not be called concurrently; the pool
// is reusable, not shareable.

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace wcoj {

class WorkerPool {
 public:
  explicit WorkerPool(int num_threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Runs all jobs; returns when every job has finished exactly once.
  // Each job gets the id (in [0, num_threads())) of the worker
  // executing it, for per-worker state like ExecScratch.
  void Run(const std::vector<std::function<void(int)>>& jobs)
      WCOJ_EXCLUDES(mu_);

  int num_threads() const { return num_threads_; }

 private:
  using Batch = std::vector<std::function<void(int)>>;

  void WorkerLoop(int w) WCOJ_EXCLUDES(mu_);

  const int num_threads_;
  std::vector<std::thread> threads_;

  Mutex mu_;
  CondVar work_cv_;  // workers: new batch or shutdown
  CondVar done_cv_;  // Run(): batch fully drained
  const Batch* batch_ WCOJ_GUARDED_BY(mu_) = nullptr;
  uint64_t generation_ WCOJ_GUARDED_BY(mu_) = 0;
  int active_workers_ WCOJ_GUARDED_BY(mu_) = 0;
  bool shutdown_ WCOJ_GUARDED_BY(mu_) = false;
  // Next job index to claim; reset under mu_ before each batch starts.
  std::atomic<size_t> cursor_{0};
};

}  // namespace wcoj

#endif  // WCOJ_PARALLEL_WORKER_POOL_H_
