// Serving-layer suite: admission controller semantics, the wire
// protocol, the prepared-query cache, and end-to-end daemon behavior
// over real sockets — replies exact vs the serial oracle, structured
// errors for budget/deadline/overload, disconnect and drain
// cancellation, and deterministic count-then-inject sweeps over the
// four server failpoints (server.accept/read/write/enqueue).

#include "server/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/workloads.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "query/parser.h"
#include "query/query.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/prepared_cache.h"
#include "server/protocol.h"
#include "storage/persist.h"
#include "util/failpoint.h"
#include "util/stopwatch.h"

namespace wcoj {
namespace {

// Spin-wait with timeout for cross-thread conditions (stats counters,
// watchdog reactions). Returns false on timeout, never hangs the suite.
template <typename Pred>
bool WaitFor(Pred&& pred, double seconds = 5.0) {
  Stopwatch watch;
  while (!pred()) {
    if (watch.ElapsedSeconds() > seconds) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

// ---------------------------------------------------------------------
// AdmissionController

TEST(AdmissionTest, FastPathGrantsDistinctSlotsUpToConcurrency) {
  AdmissionController ac(AdmissionConfig{2, 4});
  const AdmitResult a =
      ac.Admit(QueryClass::kCheap, Deadline::Infinite(), nullptr);
  const AdmitResult b =
      ac.Admit(QueryClass::kHeavy, Deadline::Infinite(), nullptr);
  ASSERT_EQ(a.outcome, AdmitOutcome::kAdmitted);
  ASSERT_EQ(b.outcome, AdmitOutcome::kAdmitted);
  EXPECT_NE(a.slot, b.slot);
  EXPECT_EQ(ac.running(), 2);
  ac.Release(a.slot);
  ac.Release(b.slot);
  EXPECT_EQ(ac.running(), 0);
}

TEST(AdmissionTest, DeadlineExpiresWhileQueued) {
  AdmissionController ac(AdmissionConfig{1, 4});
  const AdmitResult slot =
      ac.Admit(QueryClass::kCheap, Deadline::Infinite(), nullptr);
  ASSERT_EQ(slot.outcome, AdmitOutcome::kAdmitted);
  const AdmitResult r = ac.Admit(
      QueryClass::kCheap, Deadline::AfterSeconds(0.05), nullptr);
  EXPECT_EQ(r.outcome, AdmitOutcome::kDeadline);
  ac.Release(slot.slot);
}

TEST(AdmissionTest, CancelTokenAbandonsQueuedWaiter) {
  AdmissionController ac(AdmissionConfig{1, 4});
  const AdmitResult slot =
      ac.Admit(QueryClass::kCheap, Deadline::Infinite(), nullptr);
  ASSERT_EQ(slot.outcome, AdmitOutcome::kAdmitted);
  StopToken cancel;
  std::thread firer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    cancel.RequestStop();
  });
  const AdmitResult r =
      ac.Admit(QueryClass::kHeavy, Deadline::Infinite(), &cancel);
  firer.join();
  EXPECT_EQ(r.outcome, AdmitOutcome::kCancelled);
  EXPECT_EQ(ac.queued(), 0u);  // the waiter removed its own node
  ac.Release(slot.slot);
}

TEST(AdmissionTest, FullClassQueueShedsWithBacklogScaledHint) {
  AdmissionConfig config{1, 1};
  AdmissionController ac(config);
  const AdmitResult slot =
      ac.Admit(QueryClass::kHeavy, Deadline::Infinite(), nullptr);
  ASSERT_EQ(slot.outcome, AdmitOutcome::kAdmitted);
  // One waiter fills the heavy queue (capacity 1 per class).
  std::atomic<bool> waiter_admitted{false};
  std::thread waiter([&] {
    const AdmitResult r =
        ac.Admit(QueryClass::kHeavy, Deadline::Infinite(), nullptr);
    EXPECT_EQ(r.outcome, AdmitOutcome::kAdmitted);
    waiter_admitted.store(true);
    ac.Release(r.slot);
  });
  ASSERT_TRUE(WaitFor([&] { return ac.queued() == 1; }));
  // The next heavy request must shed, with the hint scaled to the
  // backlog it observed: base * (1 + queue length).
  const AdmitResult shed =
      ac.Admit(QueryClass::kHeavy, Deadline::AfterSeconds(5), nullptr);
  EXPECT_EQ(shed.outcome, AdmitOutcome::kShed);
  EXPECT_EQ(shed.retry_after_ms, kRetryAfterBaseMs * 2);
  EXPECT_EQ(shed.queued, 1u);
  // The cheap queue is independent: a cheap request still queues (and
  // is granted once the slot frees).
  std::thread cheap([&] {
    const AdmitResult r =
        ac.Admit(QueryClass::kCheap, Deadline::Infinite(), nullptr);
    EXPECT_EQ(r.outcome, AdmitOutcome::kAdmitted);
    ac.Release(r.slot);
  });
  ASSERT_TRUE(WaitFor([&] { return ac.queued() == 2; }));
  ac.Release(slot.slot);
  waiter.join();
  cheap.join();
  EXPECT_TRUE(waiter_admitted.load());
}

// Class fairness: with a heavy backlog queued first and the round-robin
// cursor starting at cheap, a late-arriving cheap request is granted
// ahead of the older heavy waiters — a burst of analytics cannot starve
// point lookups.
TEST(AdmissionTest, CheapRequestIsNotStarvedByHeavyBacklog) {
  AdmissionController ac(AdmissionConfig{1, 8});
  const AdmitResult slot =
      ac.Admit(QueryClass::kHeavy, Deadline::Infinite(), nullptr);
  ASSERT_EQ(slot.outcome, AdmitOutcome::kAdmitted);
  std::atomic<int> grant_seq{0};
  std::atomic<int> cheap_rank{-1};
  std::vector<std::thread> heavies;
  for (int i = 0; i < 3; ++i) {
    heavies.emplace_back([&] {
      const AdmitResult r =
          ac.Admit(QueryClass::kHeavy, Deadline::Infinite(), nullptr);
      ASSERT_EQ(r.outcome, AdmitOutcome::kAdmitted);
      grant_seq.fetch_add(1);
      ac.Release(r.slot);
    });
  }
  ASSERT_TRUE(WaitFor([&] { return ac.queued() == 3; }));
  std::thread cheap([&] {
    const AdmitResult r =
        ac.Admit(QueryClass::kCheap, Deadline::Infinite(), nullptr);
    ASSERT_EQ(r.outcome, AdmitOutcome::kAdmitted);
    cheap_rank.store(grant_seq.fetch_add(1));
    ac.Release(r.slot);
  });
  ASSERT_TRUE(WaitFor([&] { return ac.queued() == 4; }));
  ac.Release(slot.slot);  // grants cascade as each waiter releases
  cheap.join();
  for (auto& t : heavies) t.join();
  // The cheap waiter went first (rank 0): the cursor preferred its
  // class over the three heavies queued ahead of it.
  EXPECT_EQ(cheap_rank.load(), 0);
}

TEST(AdmissionTest, BeginDrainShedsQueuedAndFutureRequests) {
  AdmissionController ac(AdmissionConfig{1, 8});
  const AdmitResult slot =
      ac.Admit(QueryClass::kCheap, Deadline::Infinite(), nullptr);
  ASSERT_EQ(slot.outcome, AdmitOutcome::kAdmitted);
  std::thread waiter([&] {
    const AdmitResult r =
        ac.Admit(QueryClass::kCheap, Deadline::Infinite(), nullptr);
    EXPECT_EQ(r.outcome, AdmitOutcome::kShed);
  });
  ASSERT_TRUE(WaitFor([&] { return ac.queued() == 1; }));
  ac.BeginDrain();
  waiter.join();
  EXPECT_EQ(ac.queued(), 0u);
  const AdmitResult after =
      ac.Admit(QueryClass::kHeavy, Deadline::Infinite(), nullptr);
  EXPECT_EQ(after.outcome, AdmitOutcome::kShed);
  EXPECT_GT(after.retry_after_ms, 0);
  ac.Release(slot.slot);  // running work is unaffected by drain
}

// ---------------------------------------------------------------------
// Protocol

TEST(ProtocolTest, RequestRoundTripsThroughFormatAndParse) {
  ServerRequest req;
  req.kind = ServerRequest::Kind::kQuery;
  req.engine = "lftj";
  req.deadline_ms = 1500;
  req.budget_mb = 64;
  req.text = "edge(a,b), edge(b,c), a<b";
  ServerRequest back;
  std::string error;
  ASSERT_TRUE(ParseRequestLine(FormatRequestLine(req), &back, &error))
      << error;
  EXPECT_EQ(back.engine, "lftj");
  EXPECT_EQ(back.deadline_ms, 1500);
  EXPECT_EQ(back.budget_mb, 64);
  EXPECT_EQ(back.text, req.text);
  for (const char* control : {"PING", "STATS", "QUIT"}) {
    ASSERT_TRUE(ParseRequestLine(control, &back, &error)) << control;
  }
}

TEST(ProtocolTest, MalformedRequestsAreRejectedWithReason) {
  ServerRequest req;
  std::string error;
  for (const char* bad :
       {"", "FLY me to the moon", "Q", "Q lftj", "Q lftj 0",
        "Q lftj 0 0", "Q lftj -1 0 edge(a,b)", "Q lftj 0 -2 edge(a,b)"}) {
    EXPECT_FALSE(ParseRequestLine(bad, &req, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(ProtocolTest, RepliesRoundTripIncludingShedShape) {
  ServerReply r;
  ASSERT_TRUE(ParseReplyLine(
      FormatOkReply(12345, 0.25, true, "heavy", 777), &r));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.count, 12345u);
  EXPECT_TRUE(r.cached);
  EXPECT_EQ(r.query_class, "heavy");
  EXPECT_EQ(r.seeks, 777u);

  ASSERT_TRUE(ParseReplyLine(
      FormatErrorReply(Status(StatusCode::kBudgetExceeded,
                              "query memory budget exceeded")),
      &r));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "BUDGET_EXCEEDED");
  EXPECT_FALSE(r.shed());
  EXPECT_EQ(r.message, "query memory budget exceeded");

  ASSERT_TRUE(ParseReplyLine(FormatShedReply(75, 3, "queue full"), &r));
  EXPECT_TRUE(r.shed());
  EXPECT_EQ(r.retry_after_ms, 75);
  EXPECT_EQ(r.queued, 3u);

  EXPECT_FALSE(ParseReplyLine("", &r));
  EXPECT_FALSE(ParseReplyLine("WAT 42", &r));
}

// ServerReply::status() inverts StatusCodeName: every code survives the
// wire, which is what lets wcoj_client exit with CliExitCode.
TEST(ProtocolTest, ErrorRepliesMapBackToTheirStatusCode) {
  ServerReply r;
  for (int c = 1; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    const auto code = static_cast<StatusCode>(c);
    ASSERT_TRUE(ParseReplyLine(FormatErrorReply(Status(code, "why")), &r));
    EXPECT_EQ(r.status().code(), code) << StatusCodeName(code);
    EXPECT_EQ(r.status().message(), "why");
  }
  ASSERT_TRUE(ParseReplyLine(FormatOkReply(1, 0.5, false, "cheap", 1), &r));
  EXPECT_TRUE(r.status().ok());
  ASSERT_TRUE(ParseReplyLine(FormatShedReply(5, 1, "queue full"), &r));
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------
// Shared serving fixture: one dataset (same shape as wcoj_serverd's,
// smaller), serial oracle counts, and the shared ServerClient.

constexpr char kCheapQuery[] = "edge(a,b)";
constexpr char kTriangleQuery[] = "edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)";
// Triple cross product: its full answer is ~10^13 rows, so it never
// finishes inside a test — the canonical slot blocker, relying on the
// engines' prompt cancellation to wind down.
constexpr char kBlockerQuery[] = "edge(a,b), edge(c,d), edge(e,f)";

// ServerClient::Call as a gtest assertion: ASSERT_TRUE(Call(...)) fails
// the test on a transport error, with the cause in the message.
testing::AssertionResult Call(ServerClient& conn, const std::string& line,
                              ServerReply* reply) {
  StatusOr<ServerReply> r = conn.Call(line);
  if (!r.ok()) {
    return testing::AssertionFailure() << line << ": "
                                       << r.status().ToString();
  }
  *reply = r.take();
  return testing::AssertionSuccess();
}

std::string QueryLine(const std::string& text, const std::string& engine,
                      int64_t deadline_ms = 0, int64_t budget_mb = 0) {
  ServerRequest req;
  req.kind = ServerRequest::Kind::kQuery;
  req.engine = engine;
  req.deadline_ms = deadline_ms;
  req.budget_mb = budget_mb;
  req.text = text;
  return FormatRequestLine(req);
}

class ServerTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new Graph(Rmat(/*scale=*/10, /*num_edges=*/20000, 0.45, 0.2,
                            0.2, /*seed=*/7));
    rels_ = new DatasetRelations(*graph_);
    rels_->Resample(/*selectivity=*/10.0, /*seed=*/1);
    cheap_count_ = Oracle(kCheapQuery);
    triangle_count_ = Oracle(kTriangleQuery);
    ASSERT_GT(cheap_count_, 0u);
    ASSERT_GT(triangle_count_, 0u);
  }
  static void TearDownTestSuite() {
    delete rels_;
    rels_ = nullptr;
    delete graph_;
    graph_ = nullptr;
  }
  void SetUp() override {
    FailPoints::DisarmAll();
    FailPoints::SetCounting(false);
    FailPoints::ResetCounters();
  }
  void TearDown() override {
    FailPoints::DisarmAll();
    FailPoints::SetCounting(false);
  }

  // Serial single-threaded oracle over the same relations + catalog.
  static uint64_t Oracle(const std::string& text) {
    const Query q = MustParseQuery(text);
    BoundQuery bq = Bind(q, rels_->Map(), q.Variables());
    bq.catalog = rels_->catalog();
    const ExecResult r = RunTimed(*CreateEngine("lftj"), bq, ExecOptions{});
    EXPECT_TRUE(r.ok()) << r.status.ToString();
    return r.count;
  }

  static ServerConfig SmallConfig() {
    ServerConfig config;
    config.max_concurrency = 1;
    config.max_queue = 1;
    config.default_deadline_ms = 60000;
    config.drain_deadline_ms = 400;
    // Single atoms (~2^15 AGM rows) are cheap; triangles and cross
    // products land heavy.
    config.heavy_log2_threshold = 20.0;
    return config;
  }

  std::unique_ptr<Server> StartServer(const ServerConfig& config) {
    auto server =
        std::make_unique<Server>(rels_->Map(), rels_->catalog(), config);
    const Status s = server->Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
    return server;
  }

  static Graph* graph_;
  static DatasetRelations* rels_;
  static uint64_t cheap_count_;
  static uint64_t triangle_count_;
};

Graph* ServerTest::graph_ = nullptr;
DatasetRelations* ServerTest::rels_ = nullptr;
uint64_t ServerTest::cheap_count_ = 0;
uint64_t ServerTest::triangle_count_ = 0;

// ---------------------------------------------------------------------
// Prepared-query cache (unit level, sharing the fixture dataset)

TEST_F(ServerTest, PreparedCacheHitsClassifiesAndRejects) {
  PreparedQueryCache cache(rels_->Map(), rels_->catalog(),
                           /*heavy_log2_threshold=*/20.0, /*capacity=*/2);
  Status status;
  bool hit = true;
  const auto cheap = cache.Get("lftj", kCheapQuery, &status, &hit);
  ASSERT_NE(cheap, nullptr) << status.ToString();
  EXPECT_FALSE(hit);
  EXPECT_EQ(cheap->cls, QueryClass::kCheap);
  const auto blocker = cache.Get("lftj", kBlockerQuery, &status, &hit);
  ASSERT_NE(blocker, nullptr) << status.ToString();
  EXPECT_FALSE(hit);
  EXPECT_EQ(blocker->cls, QueryClass::kHeavy);
  EXPECT_GT(blocker->agm_log2, cheap->agm_log2);
  // Second lookup of the same key is a hit returning the same object.
  const auto again = cache.Get("lftj", kCheapQuery, &status, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(again.get(), cheap.get());

  // Validation failures return structured kInvalidArgument, uncached.
  for (const char* bad :
       {"nosuch(a,b)", "edge(a,b,c)", "edge(a,b), a<z", "edge(a,"}) {
    const auto p = cache.Get("lftj", bad, &status, &hit);
    EXPECT_EQ(p, nullptr) << bad;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_EQ(cache.Get("nosuch_engine", kCheapQuery, &status, &hit), nullptr);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cache.size(), 2u);

  // Capacity 2: a third distinct key evicts the LRU entry (triangle
  // text; cheap was touched more recently).
  cache.Get("lftj", kTriangleQuery, &status, &hit);
  EXPECT_EQ(cache.size(), 2u);
}

// Pins the status-reset fix in PreparedQueryCache::Get: every path that
// returns a non-null entry — the fast hit, the miss-insert, and the
// lost-insert race where another thread built the same key first — must
// reset *status to OK rather than leak whatever a previous failed
// lookup left in the caller's reused Status.
TEST_F(ServerTest, PreparedCacheResetsStaleStatusOnEveryHitPath) {
  PreparedQueryCache cache(rels_->Map(), rels_->catalog(),
                           /*heavy_log2_threshold=*/20.0, /*capacity=*/8);
  Status status;
  bool hit = false;
  ASSERT_NE(cache.Get("lftj", kCheapQuery, &status, &hit), nullptr);
  // Poison the out-param the way a preceding garbage request does, then
  // hit the cached entry: the stale error must not survive.
  ASSERT_EQ(cache.Get("lftj", "edge(a,", &status, &hit), nullptr);
  ASSERT_FALSE(status.ok());
  ASSERT_NE(cache.Get("lftj", kCheapQuery, &status, &hit), nullptr);
  EXPECT_TRUE(hit);
  EXPECT_TRUE(status.ok()) << status.ToString();

  // The lost-insert race: many threads miss the same cold key at once,
  // all build, one insert wins, the rest return the winner's entry.
  // Each racer starts with a poisoned Status; under the pre-fix code
  // the losers returned a valid entry next to the stale error.
  constexpr int kRacers = 8;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  std::vector<Status> statuses(kRacers,
                               Status(StatusCode::kInternal, "stale"));
  std::vector<std::shared_ptr<const PreparedQuery>> entries(kRacers);
  threads.reserve(kRacers);
  for (int i = 0; i < kRacers; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      entries[i] =
          cache.Get("lftj", kTriangleQuery, &statuses[i], nullptr);
    });
  }
  while (ready.load() != kRacers) std::this_thread::yield();
  go.store(true);
  for (auto& t : threads) t.join();
  for (int i = 0; i < kRacers; ++i) {
    ASSERT_NE(entries[i], nullptr) << i;
    EXPECT_TRUE(statuses[i].ok()) << i << ": " << statuses[i].ToString();
  }
}

// ---------------------------------------------------------------------
// End-to-end daemon behavior

TEST_F(ServerTest, ServesExactCountsAndCachesPreparedQueries) {
  ServerConfig config = SmallConfig();
  config.max_concurrency = 2;
  config.max_queue = 4;
  auto server = StartServer(config);
  ServerClient conn;
  ASSERT_TRUE(conn.Connect(server->port()).ok());

  ServerReply r;
  ASSERT_TRUE(Call(conn, "PING", &r));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.message, "pong");

  ASSERT_TRUE(Call(conn, QueryLine(kCheapQuery, "lftj"), &r));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.count, cheap_count_);
  EXPECT_EQ(r.query_class, "cheap");
  EXPECT_FALSE(r.cached);

  ASSERT_TRUE(Call(conn, QueryLine(kCheapQuery, "lftj"), &r));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.count, cheap_count_);
  EXPECT_TRUE(r.cached);  // parse/bind/classify amortized away

  ASSERT_TRUE(Call(conn, QueryLine(kTriangleQuery, "lftj"), &r));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.count, triangle_count_);
  EXPECT_EQ(r.query_class, "heavy");

  ASSERT_TRUE(Call(conn, "STATS", &r));
  EXPECT_TRUE(r.ok);

  ASSERT_TRUE(Call(conn, "QUIT", &r));
  EXPECT_TRUE(r.ok);
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.ok, 3u);  // the three queries; pings are not queries
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);
}

// Two requests in one write: the server splits them at '\n' and answers
// in order. Reading only after both are answered puts both replies in
// one recv, so the second comes out of the client's leftover buffer.
TEST_F(ServerTest, PipelinedRequestsAreAnsweredInOrder) {
  auto server = StartServer(SmallConfig());
  ServerClient conn;
  ASSERT_TRUE(conn.Connect(server->port()).ok());
  ASSERT_TRUE(conn.SendLine("PING\n" + QueryLine(kCheapQuery, "lftj")).ok());
  ASSERT_TRUE(WaitFor([&] { return server->stats().ok == 1; }));
  ServerReply r;
  StatusOr<std::string> line = conn.ReadLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  ASSERT_TRUE(ParseReplyLine(line.value(), &r)) << line.value();
  EXPECT_EQ(r.message, "pong");
  line = conn.ReadLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  ASSERT_TRUE(ParseReplyLine(line.value(), &r)) << line.value();
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_EQ(r.count, cheap_count_);
}

TEST_F(ServerTest, InvalidQueriesGetStructuredErrorsOnALiveConnection) {
  auto server = StartServer(SmallConfig());
  ServerClient conn;
  ASSERT_TRUE(conn.Connect(server->port()).ok());
  ServerReply r;
  // Garbage line, unknown engine, unknown relation, arity mismatch,
  // unbound filter variable, a variable repeated inside one atom (which,
  // unrefused, crashed the daemon inside Minesweeper): every one a
  // structured INVALID_ARGUMENT.
  for (const std::string& bad :
       {std::string("open the pod bay doors"),
        QueryLine(kCheapQuery, "nosuch_engine"),
        QueryLine("nosuch(a,b)", "lftj"), QueryLine("edge(a,b,c)", "lftj"),
        QueryLine("edge(a,b), a<z", "lftj"), QueryLine("edge(a,a)", "ms")}) {
    ASSERT_TRUE(Call(conn, bad, &r)) << bad;
    EXPECT_FALSE(r.ok) << bad;
    EXPECT_EQ(r.code, "INVALID_ARGUMENT") << bad;
    EXPECT_FALSE(r.message.empty()) << bad;
  }
  // The connection survives all of it, and so does the engine.
  ASSERT_TRUE(Call(conn, QueryLine(kCheapQuery, "lftj"), &r));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.count, cheap_count_);
  ASSERT_TRUE(Call(conn, QueryLine(kTriangleQuery, "ms"), &r));
  ASSERT_TRUE(r.ok) << r.code << " " << r.message;
  EXPECT_EQ(r.count, triangle_count_);
  EXPECT_EQ(server->stats().invalid, 6u);
}

// A 71-variable path is past Minesweeper's variable limit: every
// Minesweeper-based engine refuses it with a structured INVALID_ARGUMENT
// reply (not a crash, not a count), and the connection keeps serving.
TEST_F(ServerTest, WideQueryIsRefusedByMinesweeperEnginesOverTheWire) {
  std::string wide;
  for (int v = 0; v + 1 < 71; ++v) {
    wide += (v == 0 ? "" : ", ") + ("edge(x" + std::to_string(v) + ",x" +
                                    std::to_string(v + 1) + ")");
  }
  auto server = StartServer(SmallConfig());
  ServerClient conn;
  ASSERT_TRUE(conn.Connect(server->port()).ok());
  ServerReply r;
  for (const char* engine : {"ms", "#ms", "ms-noidea7", "hybrid"}) {
    ASSERT_TRUE(Call(conn, QueryLine(wide, engine), &r)) << engine;
    EXPECT_FALSE(r.ok) << engine;
    EXPECT_EQ(r.code, "INVALID_ARGUMENT") << engine << ": " << r.message;
    EXPECT_NE(r.message.find("variables"), std::string::npos) << r.message;
  }
  ASSERT_TRUE(Call(conn, QueryLine(kCheapQuery, "ms"), &r));
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_EQ(r.count, cheap_count_);
}

TEST_F(ServerTest, DeadlineExpiryIsAStructuredReplyAndConnectionSurvives) {
  auto server = StartServer(SmallConfig());
  ServerClient conn;
  ASSERT_TRUE(conn.Connect(server->port()).ok());
  ServerReply r;
  ASSERT_TRUE(Call(conn, 
      QueryLine(kBlockerQuery, "lftj", /*deadline_ms=*/100), &r));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "DEADLINE_EXCEEDED");
  // Same connection keeps serving: the failure was the query's, not the
  // transport's.
  ASSERT_TRUE(Call(conn, QueryLine(kCheapQuery, "lftj"), &r));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.count, cheap_count_);
  EXPECT_EQ(server->stats().deadline_exceeded, 1u);
}

TEST_F(ServerTest, BudgetRefusalIsAStructuredReplyAndConnectionSurvives) {
  auto server = StartServer(SmallConfig());
  ServerClient conn;
  ASSERT_TRUE(conn.Connect(server->port()).ok());
  ServerReply r;
  // Minesweeper's CDS on an endless cross product grows without bound;
  // a 1 MiB budget latches long before the 60s default deadline.
  ASSERT_TRUE(Call(conn, 
      QueryLine(kBlockerQuery, "ms", /*deadline_ms=*/30000,
                /*budget_mb=*/1),
      &r));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "BUDGET_EXCEEDED") << r.message;
  // Sticky per request, not per connection: an ungoverned request on
  // the same socket still answers exactly.
  ASSERT_TRUE(Call(conn, QueryLine(kCheapQuery, "lftj"), &r));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.count, cheap_count_);
  EXPECT_EQ(server->stats().budget_exceeded, 1u);
}

// The deterministic overload drill: C=1, Q=1. A blocker occupies the
// slot, a second fills the heavy queue, and every further heavy request
// sheds immediately with a structured RETRY_AFTER — counted exactly.
TEST_F(ServerTest, OverloadShedsDeterministicallyWithRetryAfter) {
  auto server = StartServer(SmallConfig());
  const std::string blocker = QueryLine(kBlockerQuery, "lftj");

  ServerClient running;
  ASSERT_TRUE(running.Connect(server->port()).ok());
  ASSERT_TRUE(running.SendLine(blocker).ok());
  ASSERT_TRUE(WaitFor([&] { return server->stats().inflight == 1; }));

  ServerClient queued;
  ASSERT_TRUE(queued.Connect(server->port()).ok());
  ASSERT_TRUE(queued.SendLine(blocker).ok());
  ASSERT_TRUE(WaitFor([&] { return server->stats().queued == 1; }));

  // Queue full: the next K requests shed, deterministically, each with
  // a backlog-scaled hint — and the shed connections stay usable.
  constexpr int kShedders = 4;
  for (int i = 0; i < kShedders; ++i) {
    ServerClient shedder;
    ASSERT_TRUE(shedder.Connect(server->port()).ok());
    ServerReply r;
    ASSERT_TRUE(Call(shedder, blocker, &r)) << i;
    ASSERT_TRUE(r.shed()) << r.code << " " << r.message;
    EXPECT_GT(r.retry_after_ms, 0) << i;
    EXPECT_EQ(r.queued, 1u) << i;
  }
  EXPECT_EQ(server->stats().shed, static_cast<uint64_t>(kShedders));

  // Clients hang up: the watchdog fires their connection tokens, the
  // running blocker cancels promptly, the queued one leaves the queue.
  running.Close();
  queued.Close();
  ASSERT_TRUE(WaitFor([&] {
    const ServerStats s = server->stats();
    return s.inflight == 0 && s.queued == 0 && s.connections_open == 0;
  }))
      << "blocker did not cancel after disconnect";
  EXPECT_GE(server->stats().cancelled, 1u);
}

TEST_F(ServerTest, ClientDisconnectCancelsExecutingQueryPromptly) {
  auto server = StartServer(SmallConfig());
  ServerClient conn;
  ASSERT_TRUE(conn.Connect(server->port()).ok());
  ASSERT_TRUE(conn.SendLine(QueryLine(kBlockerQuery, "lftj")).ok());
  ASSERT_TRUE(WaitFor([&] { return server->stats().inflight == 1; }));
  Stopwatch watch;
  conn.Close();
  ASSERT_TRUE(WaitFor([&] { return server->stats().inflight == 0; }, 3.0));
  EXPECT_LT(watch.ElapsedSeconds(), 3.0);
  EXPECT_EQ(server->stats().cancelled, 1u);
}

// SIGTERM semantics, in-process: drain stops accepting, cancels what
// the drain deadline catches in flight (structured ERR CANCELLED on the
// still-open connection), and leaves every thread joined.
TEST_F(ServerTest, DrainCancelsStragglersWithinDeadline) {
  ServerConfig config = SmallConfig();
  config.drain_deadline_ms = 300;
  auto server = StartServer(config);
  ServerClient conn;
  ASSERT_TRUE(conn.Connect(server->port()).ok());
  ASSERT_TRUE(conn.SendLine(QueryLine(kBlockerQuery, "lftj")).ok());
  ASSERT_TRUE(WaitFor([&] { return server->stats().inflight == 1; }));

  Stopwatch watch;
  std::thread drainer([&] { server->Drain(); });
  // The in-flight blocker is cancelled by the drain deadline and the
  // client still receives a structured reply before the close.
  const StatusOr<std::string> line = conn.ReadLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  ServerReply r;
  ASSERT_TRUE(ParseReplyLine(line.value(), &r));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "CANCELLED");
  drainer.join();
  EXPECT_LT(watch.ElapsedSeconds(), 3.0);
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.connections_open, 0u);
  EXPECT_GE(stats.drain_cancelled, 1u);
  // The listener is gone: new connections are refused.
  ServerClient late;
  EXPECT_FALSE(late.Connect(server->port()).ok());
}

// Concurrent mixed storm with generous limits: every request is
// answered — OK replies carry the exact oracle count, the rest are
// structured sheds — and nothing hangs, leaks, or miscounts.
TEST_F(ServerTest, ConcurrentStormAnswersEveryRequestExactly) {
  ServerConfig config = SmallConfig();
  config.max_concurrency = 2;
  config.max_queue = 2;
  auto server = StartServer(config);
  constexpr int kClients = 8;
  constexpr int kPerClient = 6;
  std::atomic<uint64_t> ok{0}, shed{0}, wrong{0}, dropped{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServerClient conn;
      if (!conn.Connect(server->port()).ok()) {
        dropped.fetch_add(kPerClient);
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        const bool heavy = (c + i) % 3 == 0;
        const std::string query =
            QueryLine(heavy ? kTriangleQuery : kCheapQuery, "lftj");
        ServerReply r;
        if (!Call(conn, query, &r)) {
          dropped.fetch_add(1);
          return;
        }
        if (r.ok) {
          const uint64_t want = heavy ? triangle_count_ : cheap_count_;
          if (r.count == want) {
            ok.fetch_add(1);
          } else {
            wrong.fetch_add(1);
          }
        } else if (r.shed()) {
          shed.fetch_add(1);
        } else {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(dropped.load(), 0u);
  EXPECT_EQ(ok.load() + shed.load(),
            static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_GT(ok.load(), 0u);
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.ok, ok.load());
  EXPECT_EQ(stats.shed, shed.load());
  ASSERT_TRUE(
      WaitFor([&] { return server->stats().connections_open == 0; }));
}

// RunLoad, the client's storm driver, against one slot and a queue of
// one: every request is answered OK or shed, and the OK replies agree
// on the serial answer.
TEST_F(ServerTest, RunLoadRepliesAgreeOnTheSerialCount) {
  auto server = StartServer(SmallConfig());
  constexpr int kClients = 4;
  constexpr int kRepeat = 5;
  const LoadResult load = RunLoad(
      server->port(), QueryLine(kTriangleQuery, "lftj"), kClients, kRepeat);
  EXPECT_EQ(load.ok + load.shed + load.err,
            static_cast<uint64_t>(kClients * kRepeat));
  EXPECT_EQ(load.err, 0u);
  ASSERT_GT(load.ok, 0u);
  EXPECT_TRUE(load.counts_agree);
  EXPECT_EQ(load.count, triangle_count_);
  EXPECT_EQ(load.ok_ms.size(), load.ok);
}

// ---------------------------------------------------------------------
// Failpoint chaos sweeps (satellite: server.accept/read/write/enqueue)

// The scripted session the sweeps replay: two connections issuing
// pings, cheap/heavy queries, one garbage request, one clean QUIT.
// Tolerant of failures by design — under an armed failpoint any of
// these operations may legitimately die mid-flight.
void RunScript(int port) {
  ServerClient a, b;
  ServerReply r;
  if (a.Connect(port).ok()) {
    Call(a, "PING", &r);
    Call(a, QueryLine(kCheapQuery, "lftj"), &r);
    Call(a, "definitely not a request", &r);
    Call(a, QueryLine(kTriangleQuery, "lftj"), &r);
  }
  if (b.Connect(port).ok()) {
    Call(b, QueryLine(kCheapQuery, "lftj"), &r);
    Call(b, "QUIT", &r);
  }
}

TEST_F(ServerTest, ServerFailpointSweepsNeverWedgeTheDaemon) {
  for (const char* point :
       {"server.accept", "server.read", "server.write", "server.enqueue"}) {
    SCOPED_TRACE(point);
    // Pass 1: count the point's fault-free evaluations.
    uint64_t hits = 0;
    {
      auto server = StartServer(SmallConfig());
      FailPoints::ResetCounters();
      FailPoints::SetCounting(true);
      RunScript(server->port());
      FailPoints::SetCounting(false);
      hits = FailPoints::Hits(point);
      server->Drain();
    }
    ASSERT_GT(hits, 0u) << "script never reaches " << point;
    // Pass 2: inject at every k the clean run reached. Whatever dies,
    // the daemon must keep serving exactly, close every connection,
    // and drain cleanly.
    for (uint64_t k = 1; k <= hits; ++k) {
      SCOPED_TRACE(k);
      auto server = StartServer(SmallConfig());
      FailPoints::Arm(point, k);
      RunScript(server->port());
      FailPoints::DisarmAll();
      ServerClient probe;
      ASSERT_TRUE(probe.Connect(server->port()).ok());
      ServerReply r;
      ASSERT_TRUE(Call(probe, "PING", &r));
      EXPECT_TRUE(r.ok);
      ASSERT_TRUE(Call(probe, QueryLine(kCheapQuery, "lftj"), &r));
      ASSERT_TRUE(r.ok);
      EXPECT_EQ(r.count, cheap_count_);
      probe.Close();
      // No leaked connections: every fd the script opened is reaped.
      ASSERT_TRUE(
          WaitFor([&] { return server->stats().connections_open == 0; }))
          << "leaked connection at k=" << k;
      server->Drain();
    }
  }
}

// The injected enqueue fault surfaces as a structured shed, not a
// dropped connection: the one failure mode overload and faults share.
TEST_F(ServerTest, EnqueueFaultIsAStructuredShedReply) {
  auto server = StartServer(SmallConfig());
  ServerClient conn;
  ASSERT_TRUE(conn.Connect(server->port()).ok());
  FailPoints::Arm("server.enqueue", 1);
  ServerReply r;
  ASSERT_TRUE(Call(conn, QueryLine(kCheapQuery, "lftj"), &r));
  FailPoints::DisarmAll();
  ASSERT_TRUE(r.shed()) << r.code;
  EXPECT_GT(r.retry_after_ms, 0);
  // And the connection still serves.
  ASSERT_TRUE(Call(conn, QueryLine(kCheapQuery, "lftj"), &r));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.count, cheap_count_);
}

// Every ServerStats field by its name, spelled out apart from
// kServerStatsFields so the key names themselves are pinned.
std::map<std::string, uint64_t> FieldsByName(const ServerStats& s) {
  return {{"connections_accepted", s.connections_accepted},
          {"connections_open", s.connections_open},
          {"requests", s.requests},
          {"ok", s.ok},
          {"shed", s.shed},
          {"cancelled", s.cancelled},
          {"deadline_exceeded", s.deadline_exceeded},
          {"budget_exceeded", s.budget_exceeded},
          {"invalid", s.invalid},
          {"errors", s.errors},
          {"cache_hits", s.cache_hits},
          {"cache_misses", s.cache_misses},
          {"accept_faults", s.accept_faults},
          {"read_faults", s.read_faults},
          {"write_faults", s.write_faults},
          {"inflight", s.inflight},
          {"queued", s.queued},
          {"drain_completed", s.drain_completed},
          {"drain_cancelled", s.drain_cancelled}};
}

// The "key=value" tokens of a report line; other words are skipped.
std::map<std::string, uint64_t> ReportedFields(const std::string& line) {
  std::map<std::string, uint64_t> fields;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    fields[token.substr(0, eq)] = std::stoull(token.substr(eq + 1));
  }
  return fields;
}

// One outcome record, printed one way: after a mix of OK, invalid, shed,
// deadline, budget and injected-fault requests, the STATS reply and the
// drain-line formatter each carry all 19 ServerStats fields under their
// own names, equal to stats().
TEST_F(ServerTest, StatsReplyAndDrainLineCarryTheWholeOutcomeRecord) {
  auto server = StartServer(SmallConfig());
  ServerClient conn;
  ASSERT_TRUE(conn.Connect(server->port()).ok());
  ServerReply r;
  ASSERT_TRUE(Call(conn, QueryLine(kCheapQuery, "lftj"), &r));  // ok, miss
  ASSERT_TRUE(r.ok);
  ASSERT_TRUE(Call(conn, QueryLine(kCheapQuery, "lftj"), &r));  // ok, hit
  ASSERT_TRUE(r.ok);
  ASSERT_TRUE(Call(conn, "not a request", &r));                 // invalid
  ASSERT_TRUE(Call(conn, QueryLine("edge(a,a)", "ms"), &r));    // invalid
  FailPoints::Arm("server.enqueue", 1);
  ASSERT_TRUE(Call(conn, QueryLine(kCheapQuery, "lftj"), &r));  // shed, hit
  ASSERT_TRUE(r.shed());
  ASSERT_TRUE(Call(conn, QueryLine(kBlockerQuery, "lftj", 100), &r));
  ASSERT_EQ(r.code, "DEADLINE_EXCEEDED");                       // miss
  ASSERT_TRUE(
      Call(conn, QueryLine(kBlockerQuery, "ms", 30000, /*budget_mb=*/1), &r));
  ASSERT_EQ(r.code, "BUDGET_EXCEEDED");                         // miss
  // Injected faults, each on a connection of its own: a failed reply
  // write and a failed request read close theirs, a failed accept drops
  // its socket at the door.
  for (const char* point : {"server.write", "server.read", "server.accept"}) {
    FailPoints::Arm(point, 1);
    ServerClient doomed;
    ASSERT_TRUE(doomed.Connect(server->port()).ok()) << point;
    EXPECT_FALSE(doomed.Call("PING").ok()) << point;
    FailPoints::DisarmAll();
  }
  ASSERT_TRUE(
      WaitFor([&] { return server->stats().connections_open == 1; }));

  ASSERT_TRUE(conn.SendLine("STATS").ok());
  const StatusOr<std::string> line = conn.ReadLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  ASSERT_EQ(line.value().rfind("OK stats ", 0), 0u) << line.value();
  const ServerStats s = server->stats();
  EXPECT_EQ(ReportedFields(line.value()), FieldsByName(s));
  EXPECT_EQ(ReportedFields(FormatServerStats(s)), FieldsByName(s));
  // The request mix lands where it should: the write-faulted PING is a
  // request, the read-faulted one never became one, and STATS counts
  // itself.
  EXPECT_EQ(s.connections_accepted, 3u);
  EXPECT_EQ(s.connections_open, 1u);
  EXPECT_EQ(s.requests, 9u);
  EXPECT_EQ(s.ok, 2u);
  EXPECT_EQ(s.invalid, 2u);
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.deadline_exceeded, 1u);
  EXPECT_EQ(s.budget_exceeded, 1u);
  EXPECT_EQ(s.cache_hits, 2u);
  EXPECT_EQ(s.cache_misses, 3u);
  EXPECT_EQ(s.accept_faults, 1u);
  EXPECT_EQ(s.read_faults, 1u);
  EXPECT_EQ(s.write_faults, 1u);

  conn.Close();
  server->Drain();
  const ServerStats drained = server->stats();
  EXPECT_EQ(drained.connections_open, 0u);
  EXPECT_EQ(ReportedFields(FormatServerStats(drained)),
            FieldsByName(drained));
}

// Pins the Drain() flush-status fix: a failed drain-time catalog flush
// must surface through Server::flush_status() instead of being
// swallowed. The drain itself still completes cleanly (a failed save
// means the next process cold-starts; it never wedges shutdown), and a
// torn MANIFEST is never published.
TEST_F(ServerTest, DrainSurfacesCatalogFlushFailure) {
  const std::string dir =
      testing::TempDir() + "wcoj_server_flushfail";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  ServerConfig config = SmallConfig();
  config.save_catalog_dir = dir;
  auto server = StartServer(config);
  // Serve one query so the flush has a built index to write.
  ServerClient conn;
  ASSERT_TRUE(conn.Connect(server->port()).ok());
  ServerReply r;
  ASSERT_TRUE(Call(conn, QueryLine(kCheapQuery, "lftj"), &r));
  ASSERT_TRUE(r.ok);
  conn.Close();

  FailPoints::Arm("persist.manifest.commit", 1);
  server->Drain();
  FailPoints::DisarmAll();

  const Status flush = server->flush_status();
  EXPECT_FALSE(flush.ok()) << "injected commit fault was swallowed";
  // The commit fault fires before the manifest rename, so no MANIFEST
  // is published: a cold start sees "no catalog", never a torn one.
  EXPECT_FALSE(std::filesystem::exists(
      std::filesystem::path(dir) / CatalogManifestName()));

  // Control: the same drain without the fault reports OK and publishes.
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto server2 = StartServer(config);
  ServerClient conn2;
  ASSERT_TRUE(conn2.Connect(server2->port()).ok());
  ASSERT_TRUE(Call(conn2, QueryLine(kCheapQuery, "lftj"), &r));
  conn2.Close();
  server2->Drain();
  EXPECT_TRUE(server2->flush_status().ok())
      << server2->flush_status().ToString();
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(dir) / CatalogManifestName()));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace wcoj
