// serve-mixed: an in-process Server on loopback with its default AGM
// admission threshold and prepared-cache capacity, two admission slots,
// and three closed-loop connections (more than the slots): two send
// heavy cyclic counts, one sends cheap sampled lookups drawn with Zipf
// popularity from a seeded pool of texts larger than the prepared cache,
// so the cache both hits and misses. Both slots are mostly held by heavy
// requests, so a cheap request's latency is mostly its admission wait
// behind a heavy execution; the server's own path (protocol, prepared
// cache, grant) is a small share of it and is measured apart, by an
// idle probe in the traced run. Set-up builds the catalog, saves it, and
// reopens it into fresh relations the way `wcoj_serverd --load-catalog`
// does. The only workload that runs the server (protocol, prepared
// cache, admission) and query (parse, bind, AGM on misses) layers and
// storage persistence.

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/atom_index.h"
#include "core/engine.h"
#include "graph/sampling.h"
#include "harness.h"
#include "query/agm.h"
#include "query/parser.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/catalog.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr char kMirror[] = "soc-Pokec";
constexpr double kScale = 0.5;
constexpr int kSlots = 2;
constexpr int kHeavyConnections = 2;
constexpr int kCheapConnections = 1;
constexpr int kSampleRelations = 32;
constexpr int64_t kSampleNodes = 256;
constexpr int kCheapTexts = 512;  // > ServerConfig{}.cache_capacity
constexpr double kZipfExponent = 1.0;
constexpr int kSequenceLength = 1 << 14;
// The cheap connection thinks for a seeded uniform time in [0, this)
// before each request, so its requests land at random points of the
// heavy requests' cycle. Sent back to back, they would lock onto heavy
// completions and their wait would depend on that lock, not on the
// server.
constexpr int kCheapThinkUs = 10000;
// The heavy pool: one triangle count under its six variable orders
// (six GAOs, 28-40 ms each). Heavy connections draw from it at random:
// with fixed-period heavy requests the wait a cheap request sees would
// depend on how the two heavy connections happened to line up.
constexpr const char* kHeavyTexts[] = {
    "edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)",
    "edge_lt(a,c), edge_lt(b,c), edge_lt(a,b)",
    "edge_lt(b,c), edge_lt(a,c), edge_lt(a,b)",
    "edge_lt(b,c), edge_lt(a,b), edge_lt(a,c)",
    "edge_lt(a,c), edge_lt(a,b), edge_lt(b,c)",
    "edge_lt(a,b), edge_lt(a,c), edge_lt(b,c)",
};
constexpr int kNumHeavyTexts = sizeof(kHeavyTexts) / sizeof(kHeavyTexts[0]);

// Minimal blocking line client against 127.0.0.1:<port>.
class Client {
 public:
  Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval tv{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool RoundTrip(const std::string& line, wcoj::ServerReply* reply) {
    const std::string out = line + "\n";
    if (fd_ < 0 || ::send(fd_, out.data(), out.size(), MSG_NOSIGNAL) !=
                       static_cast<ssize_t>(out.size())) {
      return false;
    }
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        const std::string got = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return wcoj::ParseReplyLine(got, reply);
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "serve-mixed set-up: %s\n", why.c_str());
  std::exit(1);
}

std::string RequestLine(const std::string& text) {
  wcoj::ServerRequest req;
  req.kind = wcoj::ServerRequest::Kind::kQuery;
  req.engine = "lftj";
  req.text = text;
  return wcoj::FormatRequestLine(req);
}

// Binds `text` the way the server's prepared cache does: GAO in order
// of first appearance.
wcoj::BoundQuery BindLikeServer(
    const std::string& text,
    const std::map<std::string, const wcoj::Relation*>& relations) {
  const wcoj::Query q = wcoj::MustParseQuery(text);
  return wcoj::Bind(q, relations, q.Variables());
}

class ServeMixed : public Workload {
 public:
  explicit ServeMixed(const Options& opts)
      : seed_(opts.seed), workdir_(opts.workdir) {
    BuildTexts();
  }

  ~ServeMixed() override { Teardown(); }

  void Setup(Tracer* tracer) override {
    Teardown();
    mirror_ = LoadMirror(kMirror, kScale, tracer);
    const std::string dir = workdir_ + "/catalog";
    std::filesystem::remove_all(dir);
    {
      // The process that builds and saves the catalog.
      std::unique_ptr<wcoj::Database> build_db = MakeDatabase(tracer);
      const auto relations = build_db->Map();
      for (const std::string& text : texts_) {
        wcoj::BoundQuery q = BindLikeServer(text, relations);
        q.catalog = build_db->catalog();
        ScopedSpan span(tracer, "storage.index_build");
        wcoj::WarmQueryIndexes(q);
      }
      ScopedSpan span(tracer, "storage.persist_save");
      build_db->SaveCatalog(dir);
    }
    // The serving process: fresh relations, mmap'd catalog.
    db_ = MakeDatabase(tracer);
    {
      ScopedSpan span(tracer, "storage.persist_open");
      wcoj::CatalogOpenStats open_stats;
      installed_ = db_->LoadCatalog(dir, &open_stats);
    }
    {
      ScopedSpan span(tracer, "server.start");
      wcoj::ServerConfig config;
      config.max_concurrency = kSlots;
      server_ = std::make_unique<wcoj::Server>(db_->Map(), db_->catalog(),
                                               config);
      const wcoj::Status started = server_->Start();
      if (!started.ok()) Die("server start: " + started.ToString());
      for (int c = 0; c < kHeavyConnections + kCheapConnections; ++c) {
        clients_.push_back(std::make_unique<Client>());
        if (!clients_.back()->Connect(server_->port())) Die("connect failed");
      }
    }
    ScopedSpan span(tracer, "bench.warmup");
    wcoj::ServerReply reply;
    for (const std::string& line : lines_) clients_[0]->RoundTrip(line, &reply);
  }

  void ComputeReferences(bool corrupt) override {
    refs_.clear();
    const auto relations = db_->Map();
    const auto lftj = wcoj::CreateEngine("lftj");
    for (const std::string& text : texts_) {
      const wcoj::ExecResult r =
          lftj->Execute(BindLikeServer(text, relations), wcoj::ExecOptions{});
      refs_.push_back(r.ok() ? static_cast<int64_t>(r.count) : -1);
    }
    if (corrupt) refs_[0] += 1;
  }

  // About 130 ops/s (heavy ops of ~30 ms on two connections, cheap ones
  // spaced by think time); ample headroom.
  double MaxOpsPerSecond() const override { return 1000; }

  void RunPhase(double seconds, Tracer* tracer,
                PhaseResult* result) override {
    PhaseResult& out = *result;
    const wcoj::ServerStats s0 = server_->stats();
    const uint64_t hits0 = db_->catalog()->hits();
    const uint64_t builds0 = db_->catalog()->builds();
    const int64_t t0 = NowNs();
    const int64_t stop = t0 + static_cast<int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (int c = 0; c < kHeavyConnections + kCheapConnections; ++c) {
      threads.emplace_back(
          [this, c, t0, stop, tracer, &out] {
            RunConnection(c, t0, stop, tracer, &out);
          });
    }
    for (std::thread& t : threads) t.join();
    out.elapsed_s = static_cast<double>(NowNs() - t0) * 1e-9;
    if (tracer != nullptr) {
      const wcoj::ServerStats s1 = server_->stats();
      out.counters = {
          {"server_cache_hits",
           static_cast<double>(s1.cache_hits - s0.cache_hits)},
          {"server_cache_misses",
           static_cast<double>(s1.cache_misses - s0.cache_misses)},
          {"server_shed", static_cast<double>(s1.shed - s0.shed)},
          {"server_errors",
           static_cast<double>((s1.errors - s0.errors) +
                               (s1.cancelled - s0.cancelled) +
                               (s1.deadline_exceeded - s0.deadline_exceeded) +
                               (s1.budget_exceeded - s0.budget_exceeded) +
                               (s1.invalid - s0.invalid))},
          {"catalog_hits",
           static_cast<double>(db_->catalog()->hits() - hits0)},
          {"catalog_builds",
           static_cast<double>(db_->catalog()->builds() - builds0)},
      };
      // Prepare cost per distinct text, outside the timed ops.
      const auto relations = db_->Map();
      for (const std::string& text : texts_) {
        ScopedSpan span(tracer, "query.prepare");
        const wcoj::ParseResult parsed = wcoj::ParseQuery(text);
        const wcoj::BoundQuery q =
            wcoj::Bind(parsed.query, relations, parsed.query.Variables());
        (void)wcoj::AgmBound(q);
      }
      ProbeIdleServer(&out);
    }
  }

  std::string MetaJson() const override {
    const wcoj::ServerConfig defaults;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "\"engine\": \"lftj\", \"threads\": 1, \"slots\": %d, "
        "\"connections\": %d, \"heavy_connections\": %d, "
        "\"cheap_texts\": %d, \"heavy_texts\": %d, \"cache_capacity\": %zu, "
        "\"heavy_log2_threshold\": %g, \"zipf_exponent\": %g, "
        "\"sample_relations\": %d, \"sample_nodes\": %lld, "
        "\"reference\": \"in-process lftj\", ",
        kSlots, kHeavyConnections + kCheapConnections, kHeavyConnections,
        kCheapTexts, kNumHeavyTexts, defaults.cache_capacity,
        defaults.heavy_log2_threshold,
        kZipfExponent, kSampleRelations,
        static_cast<long long>(kSampleNodes));
    return std::string(buf) + "\"mirrors\": [" + MirrorJson(mirror_) + "]";
  }

  std::map<std::string, double> SetupCounters() const override {
    return {{"persist_installed", static_cast<double>(installed_)}};
  }

 private:
  // texts_ holds the heavy pool, then the cheap pool. Every connection
  // replays its own seeded sequence of text indexes: uniform over the
  // heavy pool, Zipf-popular over the cheap one.
  void BuildTexts() {
    for (const char* text : kHeavyTexts) texts_.push_back(text);
    std::vector<std::pair<int, int>> pairs;
    for (int i = 0; i < kSampleRelations; ++i) {
      for (int j = 0; j < kSampleRelations; ++j) {
        if (i != j) pairs.emplace_back(i, j);
      }
    }
    const std::vector<int> order =
        Shuffled(static_cast<int>(pairs.size()), seed_ * 31 + 5);
    for (int k = 0; k < kCheapTexts; ++k) {
      const auto [i, j] = pairs[order[k]];
      texts_.push_back("s" + std::to_string(i) + "(a), edge(a,b), s" +
                       std::to_string(j) + "(b)");
    }
    for (const std::string& t : texts_) lines_.push_back(RequestLine(t));
    std::vector<double> cdf(kCheapTexts);
    double total = 0;
    for (int k = 0; k < kCheapTexts; ++k) {
      total += 1.0 / std::pow(k + 1, kZipfExponent);
      cdf[k] = total;
    }
    for (int c = 0; c < kHeavyConnections + kCheapConnections; ++c) {
      wcoj::Rng rng(seed_ * 104729 + c);
      std::vector<int> seq(kSequenceLength);
      std::vector<int> think(kSequenceLength, 0);
      if (c >= kHeavyConnections) {
        for (int& us : think) {
          us = static_cast<int>(rng.NextBounded(kCheapThinkUs));
        }
      }
      for (int& t : seq) {
        if (c < kHeavyConnections) {
          t = static_cast<int>(rng.NextBounded(kNumHeavyTexts));
        } else {
          const auto rank = std::lower_bound(cdf.begin(), cdf.end(),
                                             rng.NextDouble() * total) -
                            cdf.begin();
          t = kNumHeavyTexts +
              std::min(static_cast<int>(rank), kCheapTexts - 1);
        }
      }
      sequences_.push_back(std::move(seq));
      think_us_.push_back(std::move(think));
    }
  }

  std::unique_ptr<wcoj::Database> MakeDatabase(Tracer* tracer) const {
    ScopedSpan span(tracer, "graph.relations");
    auto db = std::make_unique<wcoj::Database>();
    db->Put("edge", mirror_.graph->EdgeRelationSymmetric());
    db->Put("edge_lt", mirror_.graph->EdgeRelationOriented());
    for (int i = 0; i < kSampleRelations; ++i) {
      db->Put("s" + std::to_string(i),
              wcoj::SampleNodesExact(*mirror_.graph, kSampleNodes,
                                     seed_ * 7919 + i));
    }
    return db;
  }

  void RunConnection(int c, int64_t t0, int64_t stop, Tracer* tracer,
                     PhaseResult* out) {
    Client& client = *clients_[c];
    const std::vector<int>& seq = sequences_[c];
    // Connections resume their sequence where the last phase stopped.
    size_t& pos = positions_[c];
    uint32_t op = static_cast<uint32_t>(c + 1) << 24;
    while (NowNs() < stop) {
      const int think_us = think_us_[c][pos % seq.size()];
      if (think_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(think_us));
        if (NowNs() >= stop) break;
      }
      const int t = seq[pos++ % seq.size()];
      OpRecord rec;
      rec.start_s = static_cast<double>(NowNs() - t0) * 1e-9;
      wcoj::ServerReply reply;
      bool io_ok = false;
      {
        ScopedSpan op_span(tracer, "bench.op", 0, ++op, c);
        ScopedSpan request_span(tracer, "server.request");
        io_ok = client.RoundTrip(lines_[t], &reply);
      }
      rec.end_s = static_cast<double>(NowNs() - t0) * 1e-9;
      rec.exec_s = reply.seconds;
      rec.cls = reply.query_class == "heavy" ? kHeavy : kMain;
      rec.ok = io_ok && reply.ok && static_cast<int64_t>(reply.count) == refs_[t];
      if (!out->Add(rec)) break;
      if (!rec.ok) {
        out->Fail(texts_[t] + ": " +
                  (!io_ok ? std::string("connection failed")
                   : !reply.ok ? "ERR " + reply.code + " " + reply.message
                               : "got " + std::to_string(reply.count) +
                                     " expected " + std::to_string(refs_[t])));
        if (!io_ok) break;
      }
    }
  }

  // The server's own cost on the cheap path, without the admission wait
  // that dominates it under load: with the heavy connections idle, the
  // cheap connection replays the start of its sequence back to back,
  // and each request's round trip minus the engine time it reports
  // (protocol, prepared cache, admission grant) is kept.
  void ProbeIdleServer(PhaseResult* out) {
    constexpr int kProbes = 256;
    Client& client = *clients_[kHeavyConnections];
    std::vector<double>& non_exec = out->samples["server_idle_non_exec_s"];
    for (int i = 0; i < kProbes; ++i) {
      const int t = sequences_[kHeavyConnections][i];
      wcoj::ServerReply reply;
      const int64_t t0 = NowNs();
      const bool io_ok = client.RoundTrip(lines_[t], &reply);
      const double round_trip = static_cast<double>(NowNs() - t0) * 1e-9;
      if (!io_ok || !reply.ok ||
          static_cast<int64_t>(reply.count) != refs_[t]) {
        out->Fail(texts_[t] + ": wrong or failed reply in the idle probe");
        continue;
      }
      non_exec.push_back(round_trip - reply.seconds);
    }
  }

  void Teardown() {
    clients_.clear();
    server_.reset();  // drains and joins
    db_.reset();
  }

  const uint64_t seed_;
  const std::string workdir_;
  std::vector<std::string> texts_;
  std::vector<std::string> lines_;
  std::vector<std::vector<int>> sequences_;
  std::vector<std::vector<int>> think_us_;
  size_t positions_[kHeavyConnections + kCheapConnections] = {};
  Mirror mirror_;
  std::unique_ptr<wcoj::Database> db_;
  std::unique_ptr<wcoj::Server> server_;
  std::vector<std::unique_ptr<Client>> clients_;
  size_t installed_ = 0;
  std::vector<int64_t> refs_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeMixed(const Options& opts) {
  return std::make_unique<ServeMixed>(opts);
}

}  // namespace perfbench
