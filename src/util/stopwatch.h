#ifndef WCOJ_UTIL_STOPWATCH_H_
#define WCOJ_UTIL_STOPWATCH_H_

// Wall-clock timing and cooperative deadlines.
//
// Every engine polls a Deadline while it runs so that pathological plans
// (the paper's "-" timeout cells) terminate gracefully instead of hanging
// the harness. A StopToken carries the same "wind down now" signal
// *between* executions: one morsel's timeout flips the token and every
// sibling morsel polling it exits at its next frontier boundary.

#include <atomic>
#include <chrono>
#include <cstdint>

namespace wcoj {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  int64_t ElapsedMillis() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// A deadline that is cheap to poll. Infinite() never expires.
class Deadline {
 public:
  static Deadline Infinite() { return Deadline(); }
  static Deadline AfterSeconds(double seconds) {
    Deadline d;
    d.infinite_ = false;
    d.expiry_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
    return d;
  }

  bool Expired() const {
    return !infinite_ && Clock::now() >= expiry_;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Deadline() : infinite_(true) {}
  bool infinite_;
  Clock::time_point expiry_{};
};

// Shared cooperative cancellation. Whoever owns the token requests the
// stop (a partitioned run when one morsel times out, a server dropping a
// client); executions poll it alongside their Deadline and fail with
// kCancelled when it fires, since a cancelled run's result is incomplete
// by construction. Polling is one or two relaxed atomic loads — cheap
// enough for per-iteration checks in engine loops.
//
// A token may chain to a parent: the child observes the parent's stop
// but requests only its own, so a run-scoped token can both propagate
// an internal timeout across its morsels and honor an external
// caller's cancel — without a timeout in one run poisoning the
// caller's (reset-less) token for later runs. `parent` must outlive
// the child.
class StopToken {
 public:
  StopToken() = default;
  explicit StopToken(const StopToken* parent) : parent_(parent) {}

  void RequestStop() { stop_.store(true, std::memory_order_relaxed); }
  bool stop_requested() const {
    return stop_.load(std::memory_order_relaxed) ||
           (parent_ != nullptr && parent_->stop_requested());
  }

 private:
  std::atomic<bool> stop_{false};
  const StopToken* parent_ = nullptr;
};

}  // namespace wcoj

#endif  // WCOJ_UTIL_STOPWATCH_H_
