#include "server/admission.h"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace wcoj {

const char* QueryClassName(QueryClass cls) {
  return cls == QueryClass::kCheap ? "cheap" : "heavy";
}

AdmissionController::AdmissionController(const AdmissionConfig& config)
    : config_(config) {
  assert(config_.max_concurrency >= 1);
  assert(config_.max_queue >= 0);
  free_slots_.reserve(config_.max_concurrency);
  // Ascending pop order (back first) is irrelevant for correctness; the
  // slot id only selects per-slot warm resources in the server.
  for (int s = config_.max_concurrency - 1; s >= 0; --s) {
    free_slots_.push_back(s);
  }
}

int64_t AdmissionController::ShedHintLocked(QueryClass cls) const {
  const auto& q = cls == QueryClass::kCheap ? cheap_ : heavy_;
  return kRetryAfterBaseMs * (1 + static_cast<int64_t>(q.size()));
}

void AdmissionController::GrantWaitersLocked() {
  bool granted_any = false;
  while (!free_slots_.empty() && (!cheap_.empty() || !heavy_.empty())) {
    // Class round-robin with fallback: the preferred class goes first
    // when it has a waiter, otherwise the other class takes the slot.
    std::deque<Waiter*>* q;
    if (prefer_cheap_) {
      q = !cheap_.empty() ? &cheap_ : &heavy_;
    } else {
      q = !heavy_.empty() ? &heavy_ : &cheap_;
    }
    Waiter* w = q->front();
    q->pop_front();
    w->slot = free_slots_.back();
    free_slots_.pop_back();
    w->granted = true;
    prefer_cheap_ = !prefer_cheap_;
    granted_any = true;
  }
  if (granted_any) cv_.NotifyAll();
}

void AdmissionController::RemoveWaiterLocked(Waiter* w) {
  auto& q = QueueFor(w->cls);
  const auto it = std::find(q.begin(), q.end(), w);
  if (it != q.end()) q.erase(it);
}

AdmitResult AdmissionController::Admit(QueryClass cls,
                                       const Deadline& deadline,
                                       const StopToken* cancel) {
  MutexLock lock(mu_);
  if (draining_) return {AdmitOutcome::kShed, -1, kRetryAfterBaseMs, 0};
  // Fast path: a free slot with nobody queued ahead. Queued waiters
  // always have priority — jumping them would break FIFO within a
  // class.
  if (!free_slots_.empty() && cheap_.empty() && heavy_.empty()) {
    const int slot = free_slots_.back();
    free_slots_.pop_back();
    return {AdmitOutcome::kAdmitted, slot, 0, 0};
  }
  auto& q = QueueFor(cls);
  if (static_cast<int>(q.size()) >= config_.max_queue) {
    return {AdmitOutcome::kShed, -1, ShedHintLocked(cls), q.size()};
  }
  Waiter w{cls};
  q.push_back(&w);
  GrantWaitersLocked();  // a slot may have freed since the fast path
  // Deadline and cancellation are polled on a short tick: both are
  // cheap reads and a 5ms reaction beats plumbing a third wakeup
  // channel through every caller.
  while (!w.granted && !draining_) {
    if (cancel != nullptr && cancel->stop_requested()) {
      RemoveWaiterLocked(&w);
      return {AdmitOutcome::kCancelled, -1, 0, 0};
    }
    if (deadline.Expired()) {
      RemoveWaiterLocked(&w);
      return {AdmitOutcome::kDeadline, -1, 0, 0};
    }
    cv_.WaitFor(mu_, std::chrono::milliseconds(5));
  }
  if (w.granted) {
    // A grant that raced a cancel still holds the slot; the caller's
    // execution polls the token and winds down immediately, then
    // releases the slot — simpler than un-granting here.
    return {AdmitOutcome::kAdmitted, w.slot, 0, 0};
  }
  // Drain fired while we waited: shed with the base hint.
  RemoveWaiterLocked(&w);
  return {AdmitOutcome::kShed, -1, kRetryAfterBaseMs, 0};
}

void AdmissionController::Release(int slot) {
  assert(slot >= 0 && slot < config_.max_concurrency);
  MutexLock lock(mu_);
  free_slots_.push_back(slot);
  GrantWaitersLocked();
}

void AdmissionController::BeginDrain() {
  MutexLock lock(mu_);
  draining_ = true;
  // Queued waiters observe draining_ on their next tick and shed
  // themselves (each removes its own node, keeping ownership simple).
  cv_.NotifyAll();
}

int AdmissionController::running() const {
  MutexLock lock(mu_);
  return config_.max_concurrency - static_cast<int>(free_slots_.size());
}

uint64_t AdmissionController::queued() const {
  MutexLock lock(mu_);
  return cheap_.size() + heavy_.size();
}

}  // namespace wcoj
