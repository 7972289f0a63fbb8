// perfbench_harness: runs one benchmark workload and prints its raw
// record (set-up times, every timed op, answer-check failures, and in
// traced mode work counters and spans) as one JSON object on stdout.
// run.py builds this binary, runs it, and turns the record into metrics.
//
//   perfbench_harness --workload cyclic-lftj --seed 1 --seconds 10
//       --trace 0 --workdir .bench_build/work [--corrupt-reference]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.h"
#include "storage/search_kernels.h"
#include "util/rng.h"

namespace perfbench {

// Every workload sets up this many times per run and reports the median,
// so one slow page-fault burst cannot move setup_s.
constexpr int kSetupReps = 7;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::vector<int> Shuffled(int n, uint64_t seed) {
  std::vector<int> v(n);
  for (int i = 0; i < n; ++i) v[i] = i;
  wcoj::Rng rng(seed);
  for (int i = n - 1; i > 0; --i) {
    std::swap(v[i], v[rng.NextBounded(static_cast<uint64_t>(i) + 1)]);
  }
  return v;
}

Mirror LoadMirror(const std::string& name, double scale, Tracer* tracer) {
  ScopedSpan span(tracer, "graph.generate");
  Mirror m;
  m.name = name;
  m.scale = scale;
  m.graph = std::make_unique<wcoj::Graph>(
      wcoj::LoadDataset(wcoj::DatasetByName(name), scale));
  return m;
}

std::string MirrorJson(const Mirror& m) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\": %s, \"scale\": %g, \"nodes\": %lld, "
                "\"edges\": %lld}",
                JsonString(m.name).c_str(), m.scale,
                static_cast<long long>(m.graph->num_nodes()),
                static_cast<long long>(m.graph->num_edges()));
  return buf;
}

void Tracer::WriteJsonField(std::FILE* out, int64_t origin_ns) const {
  std::fputs("\"spans\": [", out);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%s[%u, %u, %u, %d, %s, %lld, %lld]", i ? ", " : "",
                 s.id, s.parent, s.op, s.thread, JsonString(s.name).c_str(),
                 static_cast<long long>(s.start_ns - origin_ns),
                 static_cast<long long>(s.end_ns - origin_ns));
  }
  std::fputs("]", out);
}

namespace {

void WritePhase(std::FILE* out, const PhaseResult& p, bool traced) {
  std::fprintf(out, "{\"traced\": %s, \"elapsed_s\": %.9g, \"failed\": %llu",
               traced ? "true" : "false", p.elapsed_s,
               static_cast<unsigned long long>(p.failed));
  std::fputs(", \"failures\": [", out);
  for (size_t i = 0; i < p.failures.size(); ++i) {
    std::fprintf(out, "%s%s", i ? ", " : "", JsonString(p.failures[i]).c_str());
  }
  std::fputs("], \"counters\": {", out);
  bool first = true;
  for (const auto& [k, v] : p.counters) {
    std::fprintf(out, "%s%s: %.17g", first ? "" : ", ", JsonString(k).c_str(),
                 v);
    first = false;
  }
  std::fputs("}, \"samples\": {", out);
  first = true;
  for (const auto& [k, values] : p.samples) {
    std::fprintf(out, "%s%s: [", first ? "" : ", ", JsonString(k).c_str());
    for (size_t i = 0; i < values.size(); ++i) {
      std::fprintf(out, "%s%.9g", i ? ", " : "", values[i]);
    }
    std::fputs("]", out);
    first = false;
  }
  std::fputs("}, \"ops\": [", out);
  for (size_t i = 0; i < p.size(); ++i) {
    const OpRecord& o = p.op(i);
    std::fprintf(out, "%s[%.9f, %.9f, %.9f, %d]", i ? ", " : "", o.start_s,
                 o.end_s, o.exec_s, o.cls);
  }
  std::fputs("]}", out);
}

// The process's resident high-water mark (VmHWM). Not ru_maxrss: that
// one survives exec, so it starts at the launching process's size and a
// small workload would report its launcher's peak instead of its own.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  long long kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

// Whole-machine CPU time from /proc/stat's first line: every state's
// ticks, and the ticks the hypervisor ran something else ("steal").
struct CpuTicks {
  double total = 0;
  double steal = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return t;
  double v[8] = {};
  if (std::fscanf(stat, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const double x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(stat);
  return t;
}

double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--corrupt-reference]\n"
               "workloads: cyclic-lftj acyclic-ms serve-mixed "
               "incremental-updates\n");
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opts.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--workdir" && has_value) {
      opts.workdir = argv[++i];
    } else if (arg == "--corrupt-reference") {
      opts.corrupt_reference = true;
    } else {
      return Usage();
    }
  }
  if (opts.seconds <= 0 || opts.workdir.empty()) return Usage();
  std::filesystem::create_directories(opts.workdir);

  std::unique_ptr<Workload> w;
  if (opts.workload == "cyclic-lftj") {
    w = MakeCyclicLftj(opts);
  } else if (opts.workload == "acyclic-ms") {
    w = MakeAcyclicMs(opts);
  } else if (opts.workload == "serve-mixed") {
    w = MakeServeMixed(opts);
  } else if (opts.workload == "incremental-updates") {
    w = MakeIncrementalUpdates(opts);
  } else {
    return Usage();
  }

  Tracer tracer;
  Tracer* const tr = opts.trace ? &tracer : nullptr;
  const int64_t origin_ns = NowNs();

  std::vector<double> setup_s;
  double references_s = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    {
      ScopedSpan span(tr, "bench.setup");
      const int64_t t0 = NowNs();
      w->Setup(tr);
      setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    }
    if (rep == 0) {
      const int64_t t0 = NowNs();
      w->ComputeReferences(opts.corrupt_reference);
      references_s = static_cast<double>(NowNs() - t0) * 1e-9;
    }
  }

  // Traced runs time an untraced half first: the two halves' ops/s give
  // the tracing overhead, and only the second half's spans are kept.
  std::vector<std::unique_ptr<PhaseResult>> phases;
  auto run_phase = [&](double seconds, Tracer* tracer) {
    phases.push_back(std::make_unique<PhaseResult>(
        static_cast<size_t>(seconds * w->MaxOpsPerSecond()) + 64));
    w->RunPhase(seconds, tracer, phases.back().get());
  };
  // How busy the host kept this machine while the ops ran: the share of
  // all CPU time the hypervisor stole, and this process's CPU time per
  // wall second. Reported beside the metrics, so a run slowed by the host
  // says so.
  const CpuTicks ticks0 = ReadCpuTicks();
  const double cpu0 = ProcessCpuS();
  const int64_t wall0 = NowNs();
  if (tr == nullptr) {
    run_phase(opts.seconds, nullptr);
  } else {
    run_phase(opts.seconds / 2, nullptr);
    run_phase(opts.seconds / 2, tr);
  }
  const CpuTicks ticks1 = ReadCpuTicks();
  const double host_cpus_busy =
      (ProcessCpuS() - cpu0) / (static_cast<double>(NowNs() - wall0) * 1e-9);
  const double host_steal_share =
      ticks1.total > ticks0.total
          ? (ticks1.steal - ticks0.steal) / (ticks1.total - ticks0.total)
          : 0.0;
  w->FinalCheck(phases.back().get());

  std::FILE* out = stdout;
  std::fprintf(out, "{\"workload\": %s, \"seed\": %llu, \"trace\": %d",
               JsonString(opts.workload).c_str(),
               static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0);
  std::fprintf(out,
               ", \"meta\": {\"nproc\": %u, \"kernel\": %s, "
               "\"setup_reps\": %d, %s}",
               std::thread::hardware_concurrency(),
               JsonString(wcoj::KernelName(wcoj::ActiveSearchKernel())).c_str(),
               kSetupReps, w->MetaJson().c_str());
  std::fprintf(out,
               ", \"host\": {\"steal_share\": %.6f, "
               "\"process_cpus_busy\": %.4f}",
               host_steal_share, host_cpus_busy);
  std::fputs(", \"setup_s\": [", out);
  for (size_t i = 0; i < setup_s.size(); ++i) {
    std::fprintf(out, "%s%.9f", i ? ", " : "", setup_s[i]);
  }
  std::fprintf(out, "], \"references_s\": %.6f, \"setup_counters\": {",
               references_s);
  bool first = true;
  for (const auto& [k, v] : w->SetupCounters()) {
    std::fprintf(out, "%s%s: %.17g", first ? "" : ", ", JsonString(k).c_str(),
                 v);
    first = false;
  }
  std::fputs("}, \"phases\": [", out);
  for (size_t i = 0; i < phases.size(); ++i) {
    if (i) std::fputs(", ", out);
    WritePhase(out, *phases[i], tr != nullptr && i == 1);
  }
  std::fputs("]", out);
  // Sampled after the run: set-up and every phase are inside the peak.
  std::fprintf(out, ", \"peak_rss_mb\": %.3f, ", PeakRssMb());
  if (tr != nullptr) {
    tracer.WriteJsonField(out, origin_ns);
  } else {
    std::fputs("\"spans\": []", out);
  }
  std::fputs("}\n", out);
  std::fflush(out);
  w.reset();
  std::filesystem::remove_all(opts.workdir);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
