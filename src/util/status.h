// Lightweight structured error channel (Status / StatusOr).
//
// The engines, the index catalog, and the persistence layer report
// failures through this type instead of aborting: a query that runs out
// of budget, hits a corrupt file, or trips an armed failpoint returns a
// non-OK Status to its caller and the process keeps serving. Exceptions
// stay out of the hot path entirely — a Status is two words plus an
// (empty in the OK case) message string, and `ok()` is one compare.
//
// Conventions:
//   - OK is the default-constructed Status; every other code carries a
//     human-readable message naming the failing component.
//   - `Update()` keeps the FIRST error: aggregation points (morsel
//     merges, catalog sweeps) call it per sub-result and surface one
//     primary cause.
//   - Codes are coarse domains, not errno mirrors. Callers branch on
//     kCancelled / kDeadlineExceeded / kBudgetExceeded (retryable with
//     different limits) vs the rest (data or logic errors).

#ifndef WCOJ_UTIL_STATUS_H_
#define WCOJ_UTIL_STATUS_H_

#include <cassert>
#include <string>
#include <utility>

namespace wcoj {

enum class StatusCode : int {
  kOk = 0,
  kCancelled = 1,          // StopToken fired (caller asked us to stop)
  kInvalidArgument = 2,    // malformed query / unsupported shape
  kNotFound = 3,           // missing file, relation, or catalog entry
  kDeadlineExceeded = 4,   // ExecOptions.deadline expired mid-run
  kResourceExhausted = 5,  // allocation failed (not budget-governed)
  kBudgetExceeded = 6,     // MemoryBudget limit hit; fail-closed result
  kIoError = 7,            // read/write/rename/mmap syscall failure
  kDataLoss = 8,           // checksum mismatch, truncated/corrupt file
  kUnimplemented = 9,      // engine cannot run this query shape
  kInternal = 10,          // invariant violation (the old assert class)
};

const char* StatusCodeName(StatusCode code);

class Status;

// The CLI tools' shared exit-code contract (query_runner, the catalog
// drills in CI). Wrappers branch on these to pick a remedy: rerun with
// a bigger budget (3), a longer deadline (4), or fix the input/files
// (2) — without parsing stderr.
//   0  OK
//   1  other failure (cancelled, internal, resource exhausted, ...)
//   2  bad input: usage, parse errors, missing/corrupt catalog files
//      (kInvalidArgument, kNotFound, kIoError, kDataLoss)
//   3  memory budget exceeded (kBudgetExceeded)
//   4  deadline expired (kDeadlineExceeded)
int CliExitCode(const Status& status);

class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // First-error-wins aggregation: no-op unless this is OK and `other`
  // is not. Morsel merges and multi-file sweeps funnel through this.
  void Update(const Status& other) {
    if (ok() && !other.ok()) *this = other;
  }

  // "CODE: message" for logs and test failure output; "OK" when ok.
  std::string ToString() const;

  bool operator==(const Status& o) const {
    return code_ == o.code_ && message_ == o.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status OkStatus() { return Status(); }

// Value-or-error return. Accessing value() on an error is a programming
// bug (asserted in Debug); callers must test ok() first.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(Status status)  // NOLINT(google-explicit-constructor) -- the
      // error-propagation idiom: `return status;` from a StatusOr fn
      : status_(std::move(status)) {
    assert(!status_.ok() && "StatusOr from OK status needs a value");
  }
  StatusOr(T value)  // NOLINT(google-explicit-constructor) -- the
      // value-return idiom: `return value;` from a StatusOr fn
      : status_(), value_(std::move(value)), has_value_(true) {}

  bool ok() const { return has_value_; }
  const Status& status() const { return status_; }

  T& value() {
    assert(has_value_);
    return value_;
  }
  const T& value() const {
    assert(has_value_);
    return value_;
  }
  T take() {
    assert(has_value_);
    return std::move(value_);
  }

 private:
  Status status_;
  T value_{};
  bool has_value_ = false;
};

}  // namespace wcoj

#endif  // WCOJ_UTIL_STATUS_H_
