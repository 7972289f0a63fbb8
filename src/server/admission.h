#ifndef WCOJ_SERVER_ADMISSION_H_
#define WCOJ_SERVER_ADMISSION_H_

// Admission control for the query-serving daemon.
//
// The controller enforces a hard concurrency limit (max_concurrency
// execution slots) in front of a *bounded, class-fair* wait queue:
// requests are classified cheap or heavy (the server derives the class
// from the query's AGM bound — see prepared_cache.h) and each class has
// its own FIFO of at most max_queue waiters. Freed slots are granted in
// class round-robin, so a burst of heavy analytical queries can never
// starve the cheap point-lookups queued behind it: when both classes
// wait, they alternate.
//
// Everything past the bound is *shed*, not accepted-then-timed-out: a
// full class queue (or a draining server) rejects immediately with a
// retry_after_ms hint sized to the backlog, which the protocol surfaces
// as an `ERR RETRY_AFTER` reply. Accepting work we cannot start before
// its deadline would only convert client timeouts into wasted server
// cycles.
//
// Waiters are cancellable: a queued request whose client disconnects
// (StopToken) or whose deadline expires while waiting leaves the queue
// with the corresponding outcome and never occupies a slot.
//
// Drain: BeginDrain() sheds every queued waiter, makes future Admit
// calls shed immediately, and lets the running slots finish — the
// graceful-shutdown half of the server's SIGTERM story. Thread-safe.

#include <cstdint>
#include <deque>
#include <vector>

#include "util/stopwatch.h"
#include "util/thread_annotations.h"

namespace wcoj {

enum class QueryClass { kCheap, kHeavy };

const char* QueryClassName(QueryClass cls);

// Base of the shed hint: retry_after_ms = base * (1 + queued(class)), and
// the base alone when the server sheds for a drain or an injected fault.
constexpr int64_t kRetryAfterBaseMs = 25;

struct AdmissionConfig {
  int max_concurrency = 4;  // execution slots
  int max_queue = 16;       // waiters per class beyond the slots
};

enum class AdmitOutcome {
  kAdmitted,   // slot granted; caller must Release(slot)
  kShed,       // queue full or draining; retry_after_ms is set
  kCancelled,  // caller's StopToken fired while queued
  kDeadline,   // caller's deadline expired while queued
};

struct AdmitResult {
  AdmitOutcome outcome = AdmitOutcome::kShed;
  int slot = -1;               // [0, max_concurrency) iff admitted
  int64_t retry_after_ms = 0;  // shed hint
  uint64_t queued = 0;         // class queue depth observed at shed time
};

class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& config);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  // Blocks until a slot is granted, the queue bound rejects the
  // request, `deadline` expires, or `cancel` (optional) fires.
  AdmitResult Admit(QueryClass cls, const Deadline& deadline,
                    const StopToken* cancel);

  // Returns an admitted slot; grants it to the next waiter fairly.
  void Release(int slot);

  // Sheds all queued waiters and makes every future Admit shed
  // immediately. Running slots are unaffected (the server cancels those
  // separately if the drain deadline passes). Idempotent.
  void BeginDrain();

  // Introspection (racy snapshots; exact only when quiescent).
  int running() const;
  uint64_t queued() const;

 private:
  // A Waiter lives on its Admit caller's stack and is only reachable
  // through the class queues, so its fields are de-facto guarded by mu_
  // (the analysis cannot tie a nested struct's fields to the outer
  // class's capability).
  struct Waiter {
    QueryClass cls;
    bool granted = false;
    int slot = -1;
  };

  // Hands free slots to queued waiters, alternating classes when both
  // wait.
  void GrantWaitersLocked() WCOJ_REQUIRES(mu_);
  std::deque<Waiter*>& QueueFor(QueryClass cls) WCOJ_REQUIRES(mu_) {
    return cls == QueryClass::kCheap ? cheap_ : heavy_;
  }
  void RemoveWaiterLocked(Waiter* w) WCOJ_REQUIRES(mu_);
  int64_t ShedHintLocked(QueryClass cls) const WCOJ_REQUIRES(mu_);

  const AdmissionConfig config_;

  mutable Mutex mu_;
  CondVar cv_;  // waiters: granted / drain
  std::vector<int> free_slots_ WCOJ_GUARDED_BY(mu_);
  std::deque<Waiter*> cheap_ WCOJ_GUARDED_BY(mu_);
  std::deque<Waiter*> heavy_ WCOJ_GUARDED_BY(mu_);
  bool prefer_cheap_ WCOJ_GUARDED_BY(mu_) = true;  // round-robin cursor
  bool draining_ WCOJ_GUARDED_BY(mu_) = false;
};

}  // namespace wcoj

#endif  // WCOJ_SERVER_ADMISSION_H_
