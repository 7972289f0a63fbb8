#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

// Outside-in span recorder. Spans are taken in the harness around its
// calls into each layer's public functions (the program itself is not
// instrumented), kept in memory, and written out when the run ends;
// metrics.py derives self times and the per-layer metrics from them.
//
// A null Tracer* disables recording: ScopedSpan then reads no clock
// and stores nothing, so the untraced run records nothing.

#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of the calling thread: unlike NowNs, it stops while the
// thread waits for a CPU.
inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

struct Span {
  const char* name;  // string literal, "<layer>.<call>"
  uint32_t id;
  uint32_t parent;  // 0 = root
  uint32_t op;      // timed op number, 0 = set-up
  int32_t thread;   // harness-assigned: worker or connection index
  int64_t start_ns;
  int64_t end_ns;
};

class Tracer {
 public:
  uint32_t NewId() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_id_;
  }
  void Add(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  // Writes `"spans": [[id, parent, op, thread, name, start_ns, end_ns],
  // ...]` (no surrounding braces), timestamps relative to `origin_ns`.
  void WriteJsonField(std::FILE* out, int64_t origin_ns) const;

 private:
  std::mutex mu_;
  uint32_t next_id_ = 0;
  std::vector<Span> spans_;
};

// The innermost open span of this thread; spans opened without an
// explicit parent nest under it and inherit its op and thread index.
struct SpanContext {
  uint32_t span = 0;
  uint32_t op = 0;
  int thread = 0;
};
inline thread_local SpanContext tls_span_context;

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : ScopedSpan(tracer, name, tls_span_context.span, tls_span_context.op,
                   tls_span_context.thread) {}
  // For spans whose parent runs on another thread (morsels) and for op
  // roots, which start a new op number.
  ScopedSpan(Tracer* tracer, const char* name, uint32_t parent, uint32_t op,
             int thread)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    span_ = Span{name, tracer_->NewId(), parent, op, thread, NowNs(), 0};
    saved_ = tls_span_context;
    tls_span_context = SpanContext{span_.id, op, thread};
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.end_ns = NowNs();
    tls_span_context = saved_;
    tracer_->Add(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return tracer_ == nullptr ? 0 : span_.id; }

 private:
  Tracer* tracer_;
  Span span_{};
  SpanContext saved_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
