#ifndef PERFBENCH_HARNESS_HARNESS_H_
#define PERFBENCH_HARNESS_HARNESS_H_

// Shared shapes of the benchmark harness: what a workload is asked to
// do, and the raw record a run hands to run.py, which turns it into
// metrics. The harness only measures and checks; every statistic
// (percentiles, spreads, self times, ratios) is computed in metrics.py.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/datasets.h"
#include "graph/graph.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  // scratch space inside the checkout
  // Adds one to the first reference answer, so every op of that cell
  // must be reported wrong. The benchmark's tests use it to show the
  // answer check fails the run.
  bool corrupt_reference = false;
};

// Cost classes. A latency percentile is only ever taken over one class.
enum OpClass : int { kMain = 0, kHeavy = 1 };

struct OpRecord {
  double start_s = 0;  // relative to the phase start
  double end_s = 0;
  float exec_s = -1;  // engine time reported by the server, -1 if none
  int16_t cls = kMain;
  bool ok = true;
};

// One timed phase: a closed loop of ops for a fixed wall-clock budget.
// The op log is allocated and touched before the phase starts, so peak
// RSS does not grow with the number of ops a run manages to complete.
// Add and Fail are thread-safe (serve-mixed logs from every connection).
class PhaseResult {
 public:
  explicit PhaseResult(size_t capacity) : log_(capacity) {}
  PhaseResult(const PhaseResult&) = delete;
  PhaseResult& operator=(const PhaseResult&) = delete;

  // False once the log is full; the phase must then stop.
  bool Add(const OpRecord& rec) {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= log_.size()) return false;
    log_[i] = rec;
    return true;
  }
  size_t size() const {
    return std::min(next_.load(std::memory_order_relaxed), log_.size());
  }
  const OpRecord& op(size_t i) const { return log_[i]; }

  void Fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }

  double elapsed_s = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  // Work counters summed over the phase, and named lists of raw
  // measurements taken outside the timed ops; only filled when tracing.
  std::map<std::string, double> counters;
  std::map<std::string, std::vector<double>> samples;

 private:
  std::vector<OpRecord> log_;
  std::atomic<size_t> next_{0};
  std::mutex mu_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds from nothing everything a user pays for before the first
  // timed op, replacing any state a previous Setup built. Timed by the
  // caller as setup_s.
  virtual void Setup(Tracer* tracer) = 0;
  // Reference answers for every distinct op; called once, after the
  // first Setup, outside every timing.
  virtual void ComputeReferences(bool corrupt) = 0;
  // Upper bound on the op rate, which sizes the phase's op log.
  virtual double MaxOpsPerSecond() const = 0;
  // Runs ops until `seconds` have passed or `out`'s log is full; spans
  // go to `tracer` when non-null.
  virtual void RunPhase(double seconds, Tracer* tracer, PhaseResult* out) = 0;
  // End-of-run answer checks that need the final state.
  virtual void FinalCheck(PhaseResult* last_phase) { (void)last_phase; }
  // JSON object members (without braces) describing the inputs.
  virtual std::string MetaJson() const = 0;
  // Per-layer facts outside the timed ops (persist sizes, prepare cost).
  virtual std::map<std::string, double> SetupCounters() const { return {}; }
};

std::unique_ptr<Workload> MakeCyclicLftj(const Options& opts);
std::unique_ptr<Workload> MakeAcyclicMs(const Options& opts);
std::unique_ptr<Workload> MakeServeMixed(const Options& opts);
std::unique_ptr<Workload> MakeIncrementalUpdates(const Options& opts);

// A registry mirror materialized at a scale; the graph is a pure
// function of (name, scale), so the seed never changes the data set.
struct Mirror {
  std::string name;
  double scale = 1.0;
  std::unique_ptr<wcoj::Graph> graph;
};
Mirror LoadMirror(const std::string& name, double scale, Tracer* tracer);
std::string MirrorJson(const Mirror& m);

std::string JsonString(const std::string& s);

// A seeded permutation of [0, n).
std::vector<int> Shuffled(int n, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HARNESS_H_
