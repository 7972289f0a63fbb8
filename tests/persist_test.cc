#include "storage/persist.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "query/parser.h"
#include "storage/catalog.h"
#include "storage/level_keys.h"
#include "storage/relation.h"
#include "storage/trie.h"
#include "util/rng.h"

namespace wcoj {
namespace {

// Fresh per-test scratch directory under the gtest temp root.
std::string TestDir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "wcoj_persist_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// Full DFS through the iterator interface: the exact tuple set and the
// order every engine above observes.
void WalkInto(TrieIterator& it, int arity, Tuple& cur,
              std::vector<Tuple>& out) {
  it.Open();
  while (!it.AtEnd()) {
    cur.push_back(it.Key());
    if (static_cast<int>(cur.size()) == arity) {
      out.push_back(cur);
    } else {
      WalkInto(it, arity, cur, out);
    }
    cur.pop_back();
    it.Next();
  }
  it.Up();
}

std::vector<Tuple> Walk(const TrieIndex& index) {
  std::vector<Tuple> out;
  if (index.size() == 0) return out;
  TrieIterator it(&index);
  Tuple cur;
  WalkInto(it, index.arity(), cur, out);
  return out;
}

// The degenerate and adversarial relation shapes the tiers must survive.
struct Shape {
  const char* name;
  int arity;
  std::vector<Tuple> tuples;
};

std::vector<Shape> Shapes() {
  std::vector<Shape> shapes;
  shapes.push_back({"empty", 3, {}});
  Shape unary{"arity1", 1, {}};
  for (Value v = 0; v < 300; v += 3) unary.tuples.push_back({v});
  shapes.push_back(std::move(unary));
  Shape hub{"all_dup_prefix", 2, {}};  // one hub key owns every child
  for (Value v = 0; v < 200; ++v) hub.tuples.push_back({7, v * v});
  shapes.push_back(std::move(hub));
  Shape extreme{"int64_extreme", 2, {}};  // spans defeat every encoder
  for (const Value a : {kNegInf + 1, Value{-(1LL << 62)}, Value{-5}, Value{0},
                        Value{1LL << 62}, kPosInf - 1}) {
    extreme.tuples.push_back({a, -a});
    extreme.tuples.push_back({a, a / 2});
  }
  shapes.push_back(std::move(extreme));
  // Level 0 has < 64 keys (raw), level 1 spans 200 values (packed16),
  // level 2 spans up to 100000 (raw).
  Shape dense{"dense_triple", 3, {}};
  Rng rng(42);
  for (int i = 0; i < 500; ++i) {
    dense.tuples.push_back({static_cast<Value>(rng.NextBounded(40)),
                            static_cast<Value>(rng.NextBounded(200)),
                            static_cast<Value>(rng.NextBounded(100000))});
  }
  shapes.push_back(std::move(dense));
  return shapes;
}

TEST(PersistRoundTripTest, BitIdenticalAcrossShapes) {
  const std::string dir = TestDir("roundtrip");
  bool saw_packed16 = false;
  for (const Shape& shape : Shapes()) {
    Relation rel = Relation::FromTuples(shape.arity, shape.tuples);
    const uint64_t fp = RelationFingerprint(rel);
    SCOPED_TRACE(shape.name);
    TrieIndex built(rel);
    const std::string path = dir + "/" + shape.name + ".wct";
    const Status save_status = SaveIndex(built, fp, path);
    ASSERT_TRUE(save_status.ok()) << save_status.ToString();
    const Status verify_status = VerifyIndexFile(path);
    ASSERT_TRUE(verify_status.ok()) << verify_status.ToString();
    Status open_status;
    std::unique_ptr<TrieIndex> mapped = OpenIndex(path, fp, &open_status);
    ASSERT_NE(mapped, nullptr) << open_status.ToString();

    EXPECT_TRUE(mapped->mapped());
    EXPECT_FALSE(built.mapped());
    EXPECT_EQ(mapped->arity(), built.arity());
    EXPECT_EQ(mapped->size(), built.size());
    EXPECT_EQ(mapped->perm(), built.perm());
    for (int d = 0; d < built.arity(); ++d) {
      EXPECT_EQ(mapped->LevelTier(d), built.LevelTier(d)) << "level " << d;
      saw_packed16 |= built.LevelTier(d) == KeyTier::kPacked16;
      EXPECT_EQ(mapped->LevelSize(d), built.LevelSize(d)) << "level " << d;
      // View-backed levels own no heap memory.
      EXPECT_EQ(mapped->LevelKeyBytes(d), 0u);
      EXPECT_TRUE(mapped->Keys(d).is_view());
    }
    EXPECT_EQ(Walk(*mapped), Walk(built));

    // Seek parity at every level boundary value +- 1.
    if (built.size() > 0) {
      const size_t n0 = built.LevelSize(0);
      for (size_t i = 0; i < n0; ++i) {
        const Value k = built.KeyAt(0, i);
        for (const Value probe : {k, k == kNegInf + 1 ? k : k - 1,
                                  k == kPosInf - 1 ? k : k + 1}) {
          EXPECT_EQ(mapped->LowerBound(0, 0, n0, probe),
                    built.LowerBound(0, 0, n0, probe));
          EXPECT_EQ(mapped->UpperBound(0, 0, n0, probe),
                    built.UpperBound(0, 0, n0, probe));
        }
      }
      // SeekGap parity on present and perturbed tuples.
      for (const Tuple& t : shape.tuples) {
        for (int jitter = -1; jitter <= 1; ++jitter) {
          Tuple probe = t;
          // int64_extreme places kPosInf itself in the last column.
          if ((jitter > 0 && probe.back() == kPosInf) ||
              (jitter < 0 && probe.back() == kNegInf)) {
            continue;
          }
          probe.back() += jitter;
          const auto a = built.SeekGap(probe);
          const auto b = mapped->SeekGap(probe);
          EXPECT_EQ(a.found, b.found);
          EXPECT_EQ(a.fail_pos, b.fail_pos);
          EXPECT_EQ(a.glb, b.glb);
          EXPECT_EQ(a.lub, b.lub);
        }
      }
      EXPECT_EQ(mapped->SplitPoints(8), built.SplitPoints(8));
      for (int c = 0; c < built.arity(); ++c) {
        EXPECT_EQ(mapped->ColMin(c), built.ColMin(c));
        EXPECT_EQ(mapped->ColMax(c), built.ColMax(c));
      }
    }
  }
  // The shapes cover both tiers (the raw ones trivially).
  EXPECT_TRUE(saw_packed16);
}

TEST(PersistRoundTripTest, NonIdentityPermutationSurvives) {
  const std::string dir = TestDir("perm");
  Relation rel = Relation::FromTuples(3, {{1, 20, 300}, {2, 10, 100},
                                          {2, 30, 200}, {5, 10, 400}});
  const uint64_t fp = RelationFingerprint(rel);
  TrieIndex built(rel, {2, 0, 1});
  const std::string path = dir + "/perm.wct";
  const Status save_status = SaveIndex(built, fp, path);
  ASSERT_TRUE(save_status.ok()) << save_status.ToString();
  Status open_status;
  std::unique_ptr<TrieIndex> mapped = OpenIndex(path, fp, &open_status);
  ASSERT_NE(mapped, nullptr) << open_status.ToString();
  EXPECT_EQ(mapped->perm(), (std::vector<int>{2, 0, 1}));
  EXPECT_EQ(Walk(*mapped), Walk(built));
}

// --- Corruption / compatibility rejection ---

// FileHeader field offsets (storage/persist.cc); the header is followed
// by int32_t perm[arity] and then the LevelSection table, each section
// starting with its uint32 tier tag.
constexpr size_t kVersionOff = 8;
constexpr size_t kHeaderBytesOff = 16;
constexpr size_t kHeaderChecksumOff = 32;
constexpr size_t kArityOff = 56;
constexpr size_t kRowsOff = 64;
constexpr size_t kFileHeaderBytes = 72;

// The format's checksum: 64-bit FNV-1a.
uint64_t Fnv1a(const std::string& bytes, size_t n) {
  uint64_t h = 14695981039346656037ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint8_t>(bytes[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

template <typename T>
T Load(const std::string& bytes, size_t off) {
  T v;
  std::memcpy(&v, bytes.data() + off, sizeof(v));
  return v;
}

template <typename T>
void Store(std::string* bytes, size_t off, T v) {
  std::memcpy(bytes->data() + off, &v, sizeof(v));
}

class PersistCorruptionTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestDir("corrupt");
    Relation rel = Relation::FromTuples(2, {{1, 2}, {1, 3}, {4, 5}, {6, 7}});
    fp_ = RelationFingerprint(rel);
    TrieIndex index(rel);
    path_ = dir_ + "/index.wct";
    const Status save_status = SaveIndex(index, fp_, path_);
    ASSERT_TRUE(save_status.ok()) << save_status.ToString();
    bytes_ = ReadFile(path_);
    ASSERT_GT(bytes_.size(), 72u);
  }

  // Expect a clean rejection (null + non-OK status, no crash).
  void ExpectRejected(const std::string& why) {
    Status status;
    EXPECT_EQ(OpenIndex(path_, fp_, &status), nullptr) << why;
    EXPECT_FALSE(status.ok()) << why;
    EXPECT_FALSE(status.message().empty()) << why;
  }

  // Writes the saved file with the uint32 at `off` set to `value` and
  // the header checksum recomputed over the edited header, so the open
  // gets past the checksum to the check that field feeds.
  void WriteResealed(size_t off, uint32_t value) {
    std::string hostile = bytes_;
    Store(&hostile, off, value);
    Store<uint64_t>(&hostile, kHeaderChecksumOff, 0);
    Store(&hostile, kHeaderChecksumOff,
          Fnv1a(hostile, Load<uint64_t>(hostile, kHeaderBytesOff)));
    WriteFile(path_, hostile);
  }

  // Expect a kDataLoss rejection whose message names `reason`.
  void ExpectRejectedWith(const std::string& reason) {
    Status status;
    EXPECT_EQ(OpenIndex(path_, fp_, &status), nullptr) << reason;
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
    EXPECT_NE(status.message().find(reason), std::string::npos)
        << status.ToString();
  }

  std::string dir_, path_, bytes_;
  uint64_t fp_ = 0;
};

TEST_F(PersistCorruptionTest, TruncatedFileRejected) {
  for (const size_t keep :
       {size_t{0}, size_t{8}, size_t{71}, bytes_.size() / 2,
        bytes_.size() - 1}) {
    WriteFile(path_, bytes_.substr(0, keep));
    ExpectRejected("truncated to " + std::to_string(keep));
  }
}

TEST_F(PersistCorruptionTest, FlippedChecksumByteRejected) {
  std::string corrupt = bytes_;
  corrupt[kHeaderChecksumOff] ^= 0x5a;
  WriteFile(path_, corrupt);
  ExpectRejected("flipped checksum byte");
}

TEST_F(PersistCorruptionTest, FlippedHeaderByteRejected) {
  std::string corrupt = bytes_;
  // rows is checked against the leaf count only after the checksum, so
  // the flip is the checksum's to catch.
  corrupt[kRowsOff] ^= 0x01;
  WriteFile(path_, corrupt);
  ExpectRejected("flipped header byte");
}

TEST_F(PersistCorruptionTest, WrongMagicRejected) {
  std::string corrupt = bytes_;
  corrupt[0] = 'X';
  WriteFile(path_, corrupt);
  ExpectRejected("wrong magic");
}

TEST_F(PersistCorruptionTest, FutureVersionRejected) {
  // version is the uint32 at offset 8; checked before the checksum so a
  // reader from the past gives the right error for a file from the
  // future.
  std::string corrupt = bytes_;
  corrupt[8] = 99;
  WriteFile(path_, corrupt);
  ExpectRejected("future version");
}

TEST_F(PersistCorruptionTest, StaleFingerprintRejected) {
  Status status;
  EXPECT_EQ(OpenIndex(path_, fp_ + 1, &status), nullptr);
  EXPECT_NE(status.message().find("stale"), std::string::npos);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

TEST_F(PersistCorruptionTest, PayloadFlipCaughtByVerifyOnly) {
  // Open validates the header region lazily by design; a payload flip
  // is VerifyIndexFile's job.
  std::string corrupt = bytes_;
  corrupt[bytes_.size() - 1] ^= 0xff;
  WriteFile(path_, corrupt);
  Status status;
  EXPECT_NE(OpenIndex(path_, fp_, &status), nullptr) << status.ToString();
  const Status verify_status = VerifyIndexFile(path_);
  EXPECT_FALSE(verify_status.ok());
  EXPECT_NE(verify_status.message().find("payload"), std::string::npos);
}

TEST_F(PersistCorruptionTest, RetiredKeyTierTagRejected) {
  const size_t tier_off =
      kFileHeaderBytes + Load<uint32_t>(bytes_, kArityOff) * sizeof(int32_t);
  // Resealing the unchanged tag must still open: the helper's checksum
  // is the format's.
  WriteResealed(tier_off, Load<uint32_t>(bytes_, tier_off));
  Status status;
  ASSERT_NE(OpenIndex(path_, fp_, &status), nullptr) << status.ToString();
  // Tags 1, 3 and 4 named the retired packed8, packed32 and delta
  // tiers.
  for (const uint32_t tag : {1u, 3u, 4u}) {
    WriteResealed(tier_off, tag);
    ExpectRejectedWith("unknown key tier");
  }
}

TEST_F(PersistCorruptionTest, RetiredVersionsRejected) {
  // Version 1 files carried a per-level aux section, version 2 files a
  // tier policy in the header; the catalog rebuilds such indexes in
  // memory.
  for (const uint32_t version : {1u, 2u}) {
    WriteResealed(kVersionOff, version);
    ExpectRejectedWith("unsupported format version " +
                       std::to_string(version));
  }
}

// --- Catalog-level save / open ---

Relation TriangleEdges() {
  Relation edge(2);
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    const Value a = static_cast<Value>(rng.NextBounded(60));
    const Value b = static_cast<Value>(rng.NextBounded(60));
    if (a == b) continue;
    edge.Add({a, b});
    edge.Add({b, a});
  }
  edge.Build();
  return edge;
}

struct EngineRun {
  uint64_t count;
  std::vector<Tuple> tuples;
  EngineStats stats;
};

// Runs `text` over `db` with GAO a, b, c; `use_catalog` false runs it
// trie-private, the answer a catalog state must not change.
EngineRun RunQuery(const Database& db, const std::string& text,
                   const std::string& engine_name, bool use_catalog = true) {
  BoundQuery bq = Bind(MustParseQuery(text), db, {"a", "b", "c"});
  if (!use_catalog) bq.catalog = nullptr;
  std::unique_ptr<Engine> engine = CreateEngine(engine_name);
  ExecOptions opts;
  opts.collect_tuples = true;
  ExecResult r = engine->Execute(bq, opts);
  std::sort(r.tuples.begin(), r.tuples.end());
  return {r.count, std::move(r.tuples), r.stats};
}

EngineRun RunTriangle(const Database& db, const std::string& engine_name) {
  return RunQuery(db, "edge(a,b), edge(b,c), edge(a,c)", engine_name);
}

// An oriented (a < b) edge relation: its two permutations index
// different tries, so serving one under the other's key answers wrong.
Relation OrientedEdges() {
  Relation edge(2);
  Rng rng(11);
  for (int i = 0; i < 400; ++i) {
    const Value a = static_cast<Value>(rng.NextBounded(60));
    const Value b = static_cast<Value>(rng.NextBounded(60));
    if (a < b) edge.Add({a, b});
  }
  edge.Build();
  return edge;
}

TEST(PersistCatalogTest, WarmStartAnswersWithZeroBuilds) {
  const std::string dir = TestDir("catalog");
  Relation edge = TriangleEdges();

  Database cold;
  cold.Put("edge", edge.Permuted({0, 1}));  // cheap copy via identity perm
  std::vector<EngineRun> want;
  for (const char* e : {"lftj", "ms", "hybrid"}) {
    want.push_back(RunTriangle(cold, e));
  }
  EXPECT_GT(want[0].count, 0u);
  Status save_status;
  const size_t saved = cold.SaveCatalog(dir, &save_status);
  ASSERT_GT(saved, 0u) << save_status.ToString();
  ASSERT_TRUE(save_status.ok()) << save_status.ToString();

  // A second process: same data loaded fresh, catalog reopened from
  // disk. Every index the engines ask for must come back as a cache
  // hit on a mapped index — zero builds, identical tuples.
  Database warm;
  warm.Put("edge", edge.Permuted({0, 1}));
  CatalogOpenStats open_stats;
  const size_t installed = warm.LoadCatalog(dir, &open_stats);
  ASSERT_EQ(installed, saved) << open_stats.status.ToString();
  EXPECT_TRUE(open_stats.status.ok());
  EXPECT_EQ(open_stats.skipped, 0u);
  EXPECT_TRUE(open_stats.skip_log.empty());
  for (size_t i = 0; i < 3; ++i) {
    const char* names[] = {"lftj", "ms", "hybrid"};
    SCOPED_TRACE(names[i]);
    const EngineRun got = RunTriangle(warm, names[i]);
    EXPECT_EQ(got.count, want[i].count);
    EXPECT_EQ(got.tuples, want[i].tuples);
    EXPECT_EQ(got.stats.index_builds, 0u);
    EXPECT_GT(got.stats.index_cache_hits, 0u);
  }
}

TEST(PersistCatalogTest, StaleFingerprintFallsBackToBuild) {
  const std::string dir = TestDir("stale");
  Relation edge = TriangleEdges();
  Database cold;
  cold.Put("edge", edge.Permuted({0, 1}));
  RunTriangle(cold, "lftj");
  Status save_status;
  const size_t saved = cold.SaveCatalog(dir, &save_status);
  ASSERT_GT(saved, 0u) << save_status.ToString();

  // Different contents under the same name: every manifest entry is
  // stale, nothing installs, queries rebuild and still answer. Every
  // skip is counted and carries a per-file reason.
  Database changed;
  Relation other(2);  // the saved edges plus two rows: new fingerprint
  for (size_t r = 0; r < edge.size(); ++r) other.Add(edge.RowTuple(r));
  other.Add({1000, 1001});
  other.Add({1001, 1000});
  other.Build();
  changed.Put("edge", std::move(other));
  CatalogOpenStats open_stats;
  EXPECT_EQ(changed.LoadCatalog(dir, &open_stats), 0u);
  EXPECT_TRUE(open_stats.status.ok()) << open_stats.status.ToString();
  EXPECT_EQ(open_stats.installed, 0u);
  EXPECT_EQ(open_stats.skipped, saved);
  ASSERT_EQ(open_stats.skip_log.size(), saved);
  for (const std::string& line : open_stats.skip_log) {
    EXPECT_NE(line.find("stale"), std::string::npos) << line;
  }
  const EngineRun run = RunTriangle(changed, "lftj");
  EXPECT_GT(run.stats.index_builds, 0u);
}

TEST(PersistCatalogTest, CorruptCatalogFileFallsBackToBuild) {
  const std::string dir = TestDir("fallback");
  Relation edge = TriangleEdges();
  Database cold;
  cold.Put("edge", edge.Permuted({0, 1}));
  const EngineRun want = RunTriangle(cold, "ms");
  Status save_status;
  const size_t saved = cold.SaveCatalog(dir, &save_status);
  ASSERT_GT(saved, 0u) << save_status.ToString();

  // Truncate every index file behind the manifest's back.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".wct") {
      std::filesystem::resize_file(entry.path(), 48);
    }
  }
  Database warm;
  warm.Put("edge", edge.Permuted({0, 1}));
  CatalogOpenStats open_stats;
  EXPECT_EQ(warm.LoadCatalog(dir, &open_stats), 0u);
  EXPECT_EQ(open_stats.skipped, saved);
  EXPECT_EQ(open_stats.skip_log.size(), saved);
  const EngineRun got = RunTriangle(warm, "ms");
  EXPECT_EQ(got.tuples, want.tuples);
  EXPECT_GT(got.stats.index_builds, 0u);  // clean rebuild, no crash
}

// Pins the one skip-reason format OpenFrom emits: every entry names the
// full path of the file it rejected, and syscall failures carry the
// errno. Operators grep these lines to find the broken file; the format
// is contract, not decoration.
TEST(PersistCatalogTest, SkipReasonsNameFullPathAndErrno) {
  const std::string dir = TestDir("skipreasons");
  Relation edge = TriangleEdges();
  Database cold;
  cold.Put("edge", edge.Permuted({0, 1}));
  RunTriangle(cold, "lftj");
  Status save_status;
  const size_t saved = cold.SaveCatalog(dir, &save_status);
  ASSERT_GT(saved, 0u) << save_status.ToString();

  // Delete the index files but keep the manifest: each entry skips with
  // a "cannot open" reason that must carry the full path and the errno
  // (ENOENT here).
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".wct") {
      std::filesystem::remove(entry.path());
    }
  }
  Database missing;
  missing.Put("edge", edge.Permuted({0, 1}));
  CatalogOpenStats open_stats;
  EXPECT_EQ(missing.LoadCatalog(dir, &open_stats), 0u);
  ASSERT_EQ(open_stats.skip_log.size(), saved);
  for (const std::string& line : open_stats.skip_log) {
    EXPECT_EQ(line.find(dir + "/"), 0u) << line;  // starts with full path
    EXPECT_NE(line.find("cannot open"), std::string::npos) << line;
    EXPECT_NE(line.find("errno"), std::string::npos) << line;
  }

  // Truncated files skip with a data-loss reason that still leads with
  // the full path (no errno: the syscalls all succeeded).
  const std::string dir2 = TestDir("skipreasons2");
  Database cold2;
  cold2.Put("edge", edge.Permuted({0, 1}));
  RunTriangle(cold2, "lftj");
  const size_t saved2 = cold2.SaveCatalog(dir2);
  ASSERT_GT(saved2, 0u);
  for (const auto& entry : std::filesystem::directory_iterator(dir2)) {
    if (entry.path().extension() == ".wct") {
      std::filesystem::resize_file(entry.path(), 48);
    }
  }
  Database trunc;
  trunc.Put("edge", edge.Permuted({0, 1}));
  CatalogOpenStats trunc_stats;
  EXPECT_EQ(trunc.LoadCatalog(dir2, &trunc_stats), 0u);
  ASSERT_EQ(trunc_stats.skip_log.size(), saved2);
  for (const std::string& line : trunc_stats.skip_log) {
    EXPECT_EQ(line.find(dir2 + "/"), 0u) << line;
  }
}

// The header, not the file name, says which permutation a file holds:
// swapping the two .wct names of a catalog with both permutations of
// one relation must still install each trie under its own key.
TEST(PersistCatalogTest, SwappedFileNamesInstallUnderHeaderPermutation) {
  const std::string dir = TestDir("swapped");
  const std::string text = "e(a,b), e(c,b)";  // perms {0,1} and {1,0}
  const char* engines[] = {"lftj", "ms", "hybrid"};
  Database cold;
  cold.Put("e", OrientedEdges());
  std::vector<EngineRun> want;
  for (const char* e : engines) {
    want.push_back(RunQuery(cold, text, e, /*use_catalog=*/false));
    RunQuery(cold, text, e);  // fills the catalog the save writes
  }
  EXPECT_GT(want[0].count, 0u);
  Status save_status;
  ASSERT_EQ(cold.SaveCatalog(dir, &save_status), 2u)
      << save_status.ToString();

  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".wct") files.push_back(entry.path());
  }
  ASSERT_EQ(files.size(), 2u);
  const std::filesystem::path parked = dir + "/parked";
  std::filesystem::rename(files[0], parked);
  std::filesystem::rename(files[1], files[0]);
  std::filesystem::rename(parked, files[1]);

  Database warm;
  warm.Put("e", OrientedEdges());
  CatalogOpenStats open_stats;
  EXPECT_EQ(warm.LoadCatalog(dir, &open_stats), 2u);
  EXPECT_TRUE(open_stats.status.ok()) << open_stats.status.ToString();
  EXPECT_EQ(open_stats.skipped, 0u);
  for (size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(engines[i]);
    const EngineRun got = RunQuery(warm, text, engines[i]);
    EXPECT_EQ(got.count, want[i].count);
    EXPECT_EQ(got.tuples, want[i].tuples);
    EXPECT_EQ(got.stats.index_builds, 0u);
  }
}

// A manifest line in the retired format (name followed by fingerprint,
// policy, arity, rows and permutation columns) is not a file name: it
// is skipped with a reason naming the manifest, and the query builds.
TEST(PersistCatalogTest, OldIdentityColumnsLineIsSkipped) {
  const std::string dir = TestDir("oldmanifest");
  Database cold;
  cold.Put("edge", TriangleEdges());
  const EngineRun want = RunTriangle(cold, "lftj");
  ASSERT_EQ(cold.SaveCatalog(dir), 1u);
  const std::string manifest_path =
      dir + "/" + std::string(CatalogManifestName());
  std::string manifest = ReadFile(manifest_path);
  ASSERT_EQ(manifest.back(), '\n');
  manifest.pop_back();
  const Relation& edge = *cold.Find("edge");
  std::ostringstream columns;
  columns << " " << std::hex << RelationFingerprint(edge) << std::dec
          << " auto 2 " << edge.size() << " 0,1\n";
  WriteFile(manifest_path, manifest + columns.str());

  Database warm;
  warm.Put("edge", TriangleEdges());
  CatalogOpenStats open_stats;
  EXPECT_EQ(warm.LoadCatalog(dir, &open_stats), 0u);
  EXPECT_TRUE(open_stats.status.ok()) << open_stats.status.ToString();
  EXPECT_EQ(open_stats.skipped, 1u);
  ASSERT_EQ(open_stats.skip_log.size(), 1u);
  EXPECT_EQ(open_stats.skip_log[0].find(manifest_path + ": "), 0u)
      << open_stats.skip_log[0];
  EXPECT_NE(open_stats.skip_log[0].find("malformed manifest entry"),
            std::string::npos)
      << open_stats.skip_log[0];
  const EngineRun got = RunTriangle(warm, "lftj");
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.tuples, want.tuples);
  EXPECT_GT(got.stats.index_builds, 0u);
}

TEST(PersistCatalogTest, MissingManifestIsCleanError) {
  const std::string dir = TestDir("nomanifest");
  Database db;
  db.Put("edge", TriangleEdges());
  CatalogOpenStats open_stats;
  EXPECT_EQ(db.LoadCatalog(dir, &open_stats), 0u);
  EXPECT_FALSE(open_stats.status.ok());
  EXPECT_NE(open_stats.status.message().find("manifest"), std::string::npos);
}

// Two writers racing SaveTo into one directory: the advisory flock
// around the files+manifest sequence serializes them, so the directory
// always ends as one writer's complete snapshot — openable, with every
// manifest entry verifying — never an interleaving of the two.
TEST(PersistCatalogTest, ConcurrentSaveToSerializedByDirLock) {
  const std::string dir = TestDir("flock");
  Relation edge = TriangleEdges();
  Database a, b;
  a.Put("edge", edge.Permuted({0, 1}));
  b.Put("edge", edge.Permuted({0, 1}));
  RunTriangle(a, "lftj");
  RunTriangle(b, "ms");  // same relation: same fingerprints, same files

  Status status_a, status_b;
  size_t saved_a = 0, saved_b = 0;
  std::thread ta([&] { saved_a = a.SaveCatalog(dir, &status_a); });
  std::thread tb([&] { saved_b = b.SaveCatalog(dir, &status_b); });
  ta.join();
  tb.join();
  EXPECT_TRUE(status_a.ok()) << status_a.ToString();
  EXPECT_TRUE(status_b.ok()) << status_b.ToString();
  EXPECT_GT(saved_a, 0u);
  EXPECT_GT(saved_b, 0u);

  // Whatever order the two snapshots landed in, the surviving catalog
  // must be complete and internally consistent.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".wct") continue;
    const Status v = VerifyIndexFile(entry.path().string());
    EXPECT_TRUE(v.ok()) << entry.path() << ": " << v.ToString();
  }
  Database fresh;
  fresh.Put("edge", edge.Permuted({0, 1}));
  CatalogOpenStats open_stats;
  const size_t installed = fresh.LoadCatalog(dir, &open_stats);
  EXPECT_TRUE(open_stats.status.ok()) << open_stats.status.ToString();
  EXPECT_GT(installed, 0u);
  EXPECT_EQ(open_stats.skipped, 0u);
  const EngineRun got = RunTriangle(fresh, "lftj");
  EXPECT_EQ(got.stats.index_builds, 0u);
}

}  // namespace
}  // namespace wcoj
