// Named failpoints for deterministic fault injection.
//
// An instrumented site declares a file-static handle once and evaluates
// it wherever the fault should be injectable:
//
//   static FailPoint& fp = FailPoints::Register("persist.write");
//   ...
//   if (WCOJ_FAILPOINT(fp)) return Status(StatusCode::kIoError, "...");
//
// Cost model: WCOJ_FAILPOINT is a single relaxed atomic load of a
// process-global "anything active" flag when no failpoint is armed and
// hit counting is off — the registry mutex and per-point state are only
// touched while chaos tests are driving. Registration happens once per
// site (function-local static).
//
// Arming: `Arm(name, k, times)` makes the k-th evaluation (1-based,
// counted from arming) fire, plus the next times-1 evaluations after
// it; times = -1 keeps firing forever. chaos_test sweeps k from 1
// upward until a run sees no fault — that proves every reachable
// injection point was exercised. `WCOJ_FAILPOINTS=name=k,name2=k2` in
// the environment arms points in any binary that calls ArmFromEnv()
// (query_runner does), which is how CI injects faults cross-process.
//
// Counting mode (`SetCounting(true)`) records hits without firing, so a
// sweep can first measure n = number of evaluations on the fault-free
// path, then inject at each k in [1, n].

#ifndef WCOJ_UTIL_FAILPOINT_H_
#define WCOJ_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace wcoj {

class FailPoint {
 public:
  explicit FailPoint(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // True when the site should fail. Only called when the global active
  // flag is up (see WCOJ_FAILPOINT); still cheap enough to call
  // directly in counting mode.
  bool Evaluate();

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }

 private:
  friend class FailPoints;

  const std::string name_;
  std::atomic<uint64_t> hits_{0};     // evaluations since last reset
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> fire_at_{0};  // 1-based hit index that fires
  std::atomic<int64_t> times_{0};     // remaining fires; -1 = unbounded
};

class FailPoints {
 public:
  // Stable registry handle for an instrumented site; one name maps to
  // one FailPoint for the process lifetime.
  static FailPoint& Register(const std::string& name);

  // Arms `name` to fire on its k-th evaluation from now (k >= 1), for
  // `times` consecutive evaluations (-1 = every evaluation from k on).
  // Registers the point if no site has declared it yet.
  static void Arm(const std::string& name, uint64_t k, int64_t times = 1);

  static void Disarm(const std::string& name);
  static void DisarmAll();

  // Counting mode: evaluations are tallied but never fire. Used to
  // measure n before sweeping k in [1, n].
  static void SetCounting(bool on);

  // Hits recorded for `name` since the last ResetCounters (0 if never
  // registered).
  static uint64_t Hits(const std::string& name);
  static void ResetCounters();

  // Parses WCOJ_FAILPOINTS="name=k[,name=k...]" (k fires once) and arms
  // each entry. Returns the number of points armed.
  static int ArmFromEnv();

  // Process-global fast gate: false means no failpoint is armed and
  // counting is off, so instrumented sites skip the registry entirely.
  static bool Active() {
    return active_.load(std::memory_order_relaxed);
  }

 private:
  friend class FailPoint;
  static std::atomic<bool> active_;
  static std::atomic<bool> counting_;
};

// The per-site test: one relaxed load when the subsystem is idle.
#define WCOJ_FAILPOINT(point) \
  (::wcoj::FailPoints::Active() && (point).Evaluate())

}  // namespace wcoj

#endif  // WCOJ_UTIL_FAILPOINT_H_
