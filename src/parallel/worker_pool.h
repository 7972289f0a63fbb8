#ifndef WCOJ_PARALLEL_WORKER_POOL_H_
#define WCOJ_PARALLEL_WORKER_POOL_H_

// Persistent work-stealing worker pool — the one job pool (§4.10) every
// fan-out runs on: partitioned-run morsels and the catalog pre-warm.
// A WorkerPool keeps its threads alive across Run calls, parked on a
// condition variable between batches, so repeated partitioned queries
// pay zero thread spawn/join cost; and each worker owns a deque of job
// indices, so a batch's morsels start out dealt in contiguous runs
// (adjacent var0 ranges stay on one worker — index locality) and only
// migrate when a worker actually runs dry.
//
// Stealing policy: an idle worker scans the other deques and takes the
// *back half* of the first non-empty one it finds (steal-half). Taking
// half amortizes the deque locks over many morsels when skew
// concentrates work, and taking the back leaves the victim the morsels
// it was about to run. Owners pop from the front, preserving morsel
// order within a worker.
//
// Degenerate batches (num_threads == 1, or a single job) run inline on
// the calling thread in submission order — bit-for-bit the schedule of
// a serial loop, no wakeup — so single-threaded partitioned runs stay
// deterministic. A 1-thread pool spawns no thread at all.
//
// Run() is not re-entrant and must not be called concurrently; the pool
// is reusable, not shareable.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
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
  // The worker-indexed flavor hands each job the id (in [0,
  // num_threads())) of the worker executing it, for per-worker state
  // like ExecScratch. Inline execution uses worker 0.
  void Run(const std::vector<std::function<void(int)>>& jobs);
  void Run(const std::vector<std::function<void()>>& jobs);

  int num_threads() const { return num_threads_; }

 private:
  // One mutex-guarded deque of batch job indices per worker. A morsel
  // is an engine execution (milliseconds), so a plain lock beats the
  // complexity of a lock-free deque here.
  //
  // Lock order: mu_ before any WorkerDeque::mu (RunBatch's deal loop);
  // a deque lock is never held while acquiring mu_ (StealHalf releases
  // the victim and its own deque before touching mu_ to notify).
  struct WorkerDeque {
    Mutex mu;
    std::deque<size_t> jobs WCOJ_GUARDED_BY(mu);
  };

  void RunBatch(size_t count, const std::function<void(size_t, int)>& invoke)
      WCOJ_EXCLUDES(mu_);
  void WorkerLoop(int w) WCOJ_EXCLUDES(mu_);
  bool PopOwn(int w, size_t* job);
  bool StealHalf(int w, size_t* job) WCOJ_EXCLUDES(mu_);
  void FinishJob() WCOJ_EXCLUDES(mu_);

  const int num_threads_;
  std::vector<std::unique_ptr<WorkerDeque>> deques_;
  std::vector<std::thread> threads_;

  // Batch state, guarded by mu_ except where noted.
  Mutex mu_;
  CondVar work_cv_;  // workers: new batch or shutdown
  CondVar idle_cv_;  // workers: stolen surplus or batch end
  CondVar done_cv_;  // Run(): batch fully drained
  const std::function<void(size_t, int)>* batch_ WCOJ_GUARDED_BY(mu_) =
      nullptr;
  uint64_t generation_ WCOJ_GUARDED_BY(mu_) = 0;
  int active_workers_ WCOJ_GUARDED_BY(mu_) = 0;
  bool shutdown_ WCOJ_GUARDED_BY(mu_) = false;
  std::atomic<size_t> pending_{0};  // jobs not yet finished
};

}  // namespace wcoj

#endif  // WCOJ_PARALLEL_WORKER_POOL_H_
