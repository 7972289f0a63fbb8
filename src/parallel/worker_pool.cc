#include "parallel/worker_pool.h"

#include <algorithm>

namespace wcoj {

WorkerPool::WorkerPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  if (num_threads_ == 1) return;  // inline-only pool: no threads to park
  threads_.reserve(num_threads_);
  for (int w = 0; w < num_threads_; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

WorkerPool::~WorkerPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& t : threads_) t.join();
}

void WorkerPool::Run(const Batch& jobs) {
  if (jobs.empty()) return;
  if (threads_.empty() || jobs.size() == 1) {
    // Degenerate batch: run inline, in order, on the calling thread.
    for (const auto& job : jobs) job(0);
    return;
  }
  {
    MutexLock lock(mu_);
    cursor_.store(0);
    batch_ = &jobs;
    ++generation_;
  }
  work_cv_.NotifyAll();
  // Every job index was claimed once the cursor is past the count, and
  // a claimed job runs inside its worker's active span, so no active
  // worker means every job has finished.
  MutexLock lock(mu_);
  while (cursor_.load() < jobs.size() || active_workers_ != 0) {
    done_cv_.Wait(mu_);
  }
  batch_ = nullptr;
}

void WorkerPool::WorkerLoop(int w) {
  uint64_t seen_generation = 0;
  for (;;) {
    const Batch* batch;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && generation_ == seen_generation) {
        work_cv_.Wait(mu_);
      }
      if (shutdown_) return;
      seen_generation = generation_;
      batch = batch_;
      // A late wake for a batch the other workers already drained:
      // Run() has cleared batch_ and may have returned, taking the jobs
      // with it. Park again; the next batch bumps generation_.
      if (batch == nullptr) continue;
      ++active_workers_;
    }
    for (size_t i = cursor_.fetch_add(1); i < batch->size();
         i = cursor_.fetch_add(1)) {
      (*batch)[i](w);
    }
    MutexLock lock(mu_);
    if (--active_workers_ == 0) done_cv_.NotifyAll();
  }
}

}  // namespace wcoj
