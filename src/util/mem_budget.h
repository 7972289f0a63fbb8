// Per-query memory governor.
//
// A MemoryBudget is installed on ExecOptions and shared by everything a
// query allocates: CDS slab arenas, trie builds and materialized
// intermediates. Mapped catalog files are not charged: their pages are
// the kernel's page cache, shared across queries and processes, not
// memory one query allocates. Charging is atomic, so one
// budget serves all morsels of a partitioned run at once; `peak()` is
// the high-water mark reported as EngineStats.peak_budget_bytes.
//
// Two charging disciplines, chosen per call site:
//
//   - TryCharge: strict. The charge is rolled back if it would exceed
//     the limit and the call site must not allocate. Used where the
//     caller can abort cleanly BEFORE committing memory (trie builds,
//     large materializations).
//
//   - ForceCharge: soft landing. The charge always lands (the arena has
//     already decided to grow and a half-allocated slab is worse than a
//     bounded overshoot), but crossing the limit latches `exceeded()`.
//     Engines read exceeded() through the same poll that reads
//     deadlines (AbortPoll, core/engine.h) and wind down with
//     kBudgetExceeded; the overshoot is bounded by one slab per worker.
//
// `exceeded()` is sticky for the life of the budget — a query that blew
// its budget stays failed even if memory is later released; the caller
// makes a fresh budget to retry. limit_bytes == 0 means unlimited (the
// default everywhere): accounting still runs so peak() is reported, but
// nothing ever fails.

#ifndef WCOJ_UTIL_MEM_BUDGET_H_
#define WCOJ_UTIL_MEM_BUDGET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace wcoj {

class MemoryBudget {
 public:
  explicit MemoryBudget(uint64_t limit_bytes = 0) : limit_(limit_bytes) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  // Strict reservation: returns false (and charges nothing) if the
  // charge would push usage past the limit. A refusal latches
  // exceeded() — the query is over budget even though this particular
  // allocation never happened.
  [[nodiscard]] bool TryCharge(uint64_t bytes) {
    const uint64_t now = used_.fetch_add(bytes, std::memory_order_relaxed)
                         + bytes;
    if (limit_ != 0 && now > limit_) {
      used_.fetch_sub(bytes, std::memory_order_relaxed);
      exceeded_.store(true, std::memory_order_relaxed);
      return false;
    }
    BumpPeak(now);
    return true;
  }

  // Unconditional charge: always lands, latches exceeded() when the
  // limit is crossed. For allocators that must finish the allocation
  // they started (slab growth mid-insert).
  void ForceCharge(uint64_t bytes) {
    const uint64_t now = used_.fetch_add(bytes, std::memory_order_relaxed)
                         + bytes;
    if (limit_ != 0 && now > limit_) {
      exceeded_.store(true, std::memory_order_relaxed);
    }
    BumpPeak(now);
  }

  void Release(uint64_t bytes) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  // Sticky: once over budget, stays over until the budget object is
  // replaced. Engine loops read it through their AbortPoll.
  bool exceeded() const { return exceeded_.load(std::memory_order_relaxed); }

  uint64_t used() const { return used_.load(std::memory_order_relaxed); }
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  uint64_t limit() const { return limit_; }

 private:
  void BumpPeak(uint64_t now) {
    uint64_t prev = peak_.load(std::memory_order_relaxed);
    while (now > prev &&
           !peak_.compare_exchange_weak(prev, now,
                                        std::memory_order_relaxed)) {
    }
  }

  const uint64_t limit_;
  std::atomic<uint64_t> used_{0};
  std::atomic<uint64_t> peak_{0};
  std::atomic<bool> exceeded_{false};
};

// RAII charge for scoped materializations: releases what it charged on
// destruction. Null budget means unlimited (all operations no-op).
class ScopedCharge {
 public:
  explicit ScopedCharge(MemoryBudget* budget) : budget_(budget) {}
  ~ScopedCharge() {
    if (budget_ != nullptr && charged_ > 0) budget_->Release(charged_);
  }

  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;

  // Strict add-on charge; false leaves the running total unchanged.
  [[nodiscard]] bool TryCharge(uint64_t bytes) {
    if (budget_ == nullptr) return true;
    if (!budget_->TryCharge(bytes)) return false;
    charged_ += bytes;
    return true;
  }

  // Re-targets the running total to `bytes` (release-then-charge): for
  // call sites whose live footprint is replaced step by step, e.g. the
  // materialized intermediate of a binary-join pipeline.
  [[nodiscard]] bool TryRebase(uint64_t bytes) {
    if (budget_ == nullptr) return true;
    if (charged_ > 0) {
      budget_->Release(charged_);
      charged_ = 0;
    }
    if (!budget_->TryCharge(bytes)) return false;
    charged_ = bytes;
    return true;
  }

  uint64_t charged() const { return charged_; }

 private:
  MemoryBudget* budget_;
  uint64_t charged_ = 0;
};

}  // namespace wcoj

#endif  // WCOJ_UTIL_MEM_BUDGET_H_
