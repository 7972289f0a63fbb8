// Compile-time lock discipline: Clang thread-safety annotations plus
// capability-annotated mutex wrappers.
//
// Every mutex-protected structure in src/ declares WHICH capability
// guards WHAT:
//
//   class Counter {
//    public:
//     void Bump() WCOJ_EXCLUDES(mu_) {
//       MutexLock lock(mu_);
//       ++value_;
//     }
//    private:
//     Mutex mu_;
//     int value_ WCOJ_GUARDED_BY(mu_) = 0;
//   };
//
// Under Clang, `-Werror=thread-safety` (the WCOJ_THREAD_SAFETY CMake
// option; always on in the CI lint leg) turns a forgotten lock, a
// wrong-mutex lock, or an unlock-twice into a build error. Under GCC
// the macros expand to nothing — the annotations are documentation
// there, and tools/wcoj_lint.py keeps coverage honest by forbidding raw
// std::mutex members in src/ so every new lock goes through these
// wrappers and gets analyzed on the next Clang build.
//
// The wrappers are deliberately thin: Mutex is std::mutex plus the
// capability attribute, MutexLock is lock_guard, CondVar adapts
// std::condition_variable to Mutex (waiters re-assert the capability
// through WCOJ_REQUIRES). No fairness, timing, or spin behavior
// changes relative to the std types they wrap.

#ifndef WCOJ_UTIL_THREAD_ANNOTATIONS_H_
#define WCOJ_UTIL_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define WCOJ_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define WCOJ_THREAD_ANNOTATION_(x)  // no-op under GCC/MSVC
#endif

// A field or variable protected by the given capability.
#define WCOJ_GUARDED_BY(x) WCOJ_THREAD_ANNOTATION_(guarded_by(x))

// Function-level contracts.
#define WCOJ_REQUIRES(...) \
  WCOJ_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define WCOJ_ACQUIRE(...) \
  WCOJ_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define WCOJ_RELEASE(...) \
  WCOJ_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define WCOJ_EXCLUDES(...) WCOJ_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

// Type-level attributes for the wrappers below (and any future
// capability, e.g. a shared_mutex wrapper).
#define WCOJ_CAPABILITY(x) WCOJ_THREAD_ANNOTATION_(capability(x))
#define WCOJ_SCOPED_CAPABILITY WCOJ_THREAD_ANNOTATION_(scoped_lockable)

namespace wcoj {

class CondVar;

// std::mutex with the `capability` attribute, so members can be
// declared WCOJ_GUARDED_BY(mu_) and functions WCOJ_REQUIRES(mu_).
class WCOJ_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() WCOJ_ACQUIRE() { mu_.lock(); }
  void Unlock() WCOJ_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII lock for Mutex; the analysis treats the constructor as acquire
// and the destructor as release (scoped_lockable).
class WCOJ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) WCOJ_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() WCOJ_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// std::condition_variable adapted to Mutex. Every wait requires the
// capability, so a wait outside the lock is a compile error under the
// analysis (and UB it would have been at runtime). Waits briefly adopt
// the Mutex's underlying std::mutex into a unique_lock — the lock is
// held again when the wait returns, exactly as with a raw
// condition_variable.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) WCOJ_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // caller's MutexLock still owns the mutex
  }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& timeout)
      WCOJ_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(lock, timeout);
    lock.release();
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace wcoj

#endif  // WCOJ_UTIL_THREAD_ANNOTATIONS_H_
