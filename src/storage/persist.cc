#include "storage/persist.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "storage/catalog.h"
#include "storage/level_keys.h"
#include "util/failpoint.h"

namespace wcoj {

namespace {

constexpr char kMagic[8] = {'W', 'C', 'O', 'J', 'T', 'R', 'I', '1'};
constexpr uint32_t kFormatVersion = 3;
constexpr uint32_t kEndianTag = 0x01020304;  // reads back 0x04030201 if swapped
constexpr uint32_t kMaxArity = 64;
constexpr size_t kSectionAlign = 64;
constexpr char kManifestMagic[] = "WCOJCAT 1";

// Fixed-size little-endian header; followed by int32_t perm[arity] and
// LevelSection[arity], then the 64-byte-aligned payload sections.
struct FileHeader {
  char magic[8];
  uint32_t version;
  uint32_t endian;
  uint64_t header_bytes;      // aligned end of header+perm+section table
  uint64_t file_bytes;        // exact total size; mismatch = truncation
  uint64_t header_checksum;   // FNV-1a over [0, header_bytes), field zeroed
  uint64_t payload_checksum;  // FNV-1a over [header_bytes, file_bytes)
  uint64_t fingerprint;       // RelationFingerprint of the source relation
  uint32_t arity;
  uint32_t reserved;          // zero; keeps rows 8-byte aligned
  uint64_t rows;
};
static_assert(sizeof(FileHeader) == 72, "on-disk layout is versioned");

struct LevelSection {
  uint32_t tier;  // KeyTier: 0 raw, 2 packed16
  uint32_t reserved;
  uint64_t key_count;
  int64_t packed_base;   // kPacked16 frame-of-reference base
  uint64_t keys_off;     // key payload: raw keys / packed lanes
  uint64_t keys_bytes;
  uint64_t child_off;    // CSR child offsets; 0/0 at the deepest level
  uint64_t child_bytes;
};
static_assert(sizeof(LevelSection) == 56, "on-disk layout is versioned");

uint64_t Fnv1a(const void* data, size_t n,
               uint64_t h = 14695981039346656037ULL) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

size_t Align64(size_t off) {
  return (off + (kSectionAlign - 1)) & ~(kSectionAlign - 1);
}

size_t HeaderBytes(uint32_t arity) {
  return Align64(sizeof(FileHeader) +
                 arity * (sizeof(int32_t) + sizeof(LevelSection)));
}

size_t TierElemBytes(KeyTier tier) {
  return tier == KeyTier::kRaw ? sizeof(Value) : sizeof(uint16_t);
}

// Failpoints covering every syscall class the persistence layer
// performs; chaos_test sweeps each one through its k-th hit.
FailPoint& WriteFp() { return FailPoints::Register("persist.write"); }
FailPoint& RenameFp() { return FailPoints::Register("persist.rename"); }
FailPoint& MmapFp() { return FailPoints::Register("persist.mmap"); }
FailPoint& ReadFp() { return FailPoints::Register("persist.read"); }
FailPoint& ManifestWriteFp() {
  return FailPoints::Register("persist.manifest.write");
}
FailPoint& ManifestCommitFp() {
  return FailPoints::Register("persist.manifest.commit");
}

void SetStatus(Status* status, StatusCode code, const std::string& what) {
  if (status != nullptr) *status = Status(code, what);
}

// The one format every per-file reason uses — "<full path>: <why>" —
// so catalog skip logs and IO errors always name the exact file. The
// errno flavor captures the syscall cause ("errno 13: Permission
// denied") that a bare "cannot open" hides; callers must format before
// any further libc call clobbers errno.
std::string FileReason(const std::string& path, const std::string& why) {
  return path + ": " + why;
}

std::string FileErrnoReason(const std::string& path, const std::string& why) {
  const int err = errno;
  return FileReason(path, why + " (errno " + std::to_string(err) + ": " +
                              std::strerror(err) + ")");
}

// Advisory cross-process lock on a catalog directory: SaveTo holds it
// exclusively across its whole tmp+rename sequence (files + manifest),
// OpenFrom holds it shared, so a reader never observes a manifest from
// one writer pointing at files a second writer is mid-replacing. Lock
// acquisition failure (e.g. the directory does not exist yet for a
// reader) degrades to unlocked operation — the tmp+rename discipline
// still guarantees per-file atomicity.
class DirLock {
 public:
  DirLock(const std::string& dir, bool exclusive) {
    fd_ = ::open((dir + "/.catalog.lock").c_str(),
                 O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ >= 0 && ::flock(fd_, exclusive ? LOCK_EX : LOCK_SH) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~DirLock() {
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
  }
  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;
  bool held() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

// Read-only mapping of a whole file; the mapping (not the path) is what
// mapped TrieIndexes keep alive.
class MappedFile {
 public:
  static std::shared_ptr<MappedFile> Map(const std::string& path,
                                         Status* status) {
    if (WCOJ_FAILPOINT(MmapFp())) {
      SetStatus(status, StatusCode::kIoError,
                FileReason(path, "mmap failed (failpoint persist.mmap)"));
      return nullptr;
    }
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      SetStatus(status, StatusCode::kNotFound,
                FileErrnoReason(path, "cannot open"));
      return nullptr;
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      SetStatus(status, StatusCode::kIoError,
                FileErrnoReason(path, "cannot stat"));
      ::close(fd);
      return nullptr;
    }
    if (st.st_size <= 0) {
      ::close(fd);
      SetStatus(status, StatusCode::kIoError, FileReason(path, "empty file"));
      return nullptr;
    }
    const size_t size = static_cast<size_t>(st.st_size);
    void* data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (data == MAP_FAILED) {
      SetStatus(status, StatusCode::kIoError,
                FileErrnoReason(path, "mmap failed"));
      ::close(fd);
      return nullptr;
    }
    ::close(fd);  // the mapping holds its own reference
    return std::shared_ptr<MappedFile>(
        new MappedFile(data, size));  // wcoj-lint: allow(naked-new) -- private ctor
  }

  ~MappedFile() { ::munmap(data_, size_); }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const uint8_t* data() const { return static_cast<const uint8_t*>(data_); }
  size_t size() const { return size_; }

 private:
  MappedFile(void* data, size_t size) : data_(data), size_(size) {}
  void* data_;
  size_t size_;
};

// A section's [off, off+bytes) must sit inside the payload region,
// 64-byte aligned; arithmetic in uint64 with explicit overflow guards
// because every field is attacker-controlled until validated.
bool SectionInBounds(uint64_t off, uint64_t bytes, uint64_t header_bytes,
                     uint64_t file_bytes) {
  if (off % kSectionAlign != 0) return false;
  if (off < header_bytes || off > file_bytes) return false;
  return bytes <= file_bytes - off;
}

// One mapped file that passed every open-time check: the header (the
// file's identity), its permutation and section table, and the mapping.
// Each Assemble binds a fresh TrieIndex to the same mapping.
struct MappedTrie {
  FileHeader header;
  std::vector<int> perm;
  std::vector<LevelSection> secs;
  std::shared_ptr<MappedFile> file;
};

// Write-then-rename, the one way this layer publishes a file: `bytes`
// go to `path`.tmp, which is then renamed over `path`, so a crash or
// failure never leaves a half-written `path` behind. On any failure —
// real or injected through `write_fp`/`rename_fp` — the tmp file is
// removed and `path` keeps whatever it held before.
Status WriteThenRename(const std::string& path, const void* bytes, size_t n,
                       FailPoint& write_fp, FailPoint& rename_fp) {
  auto tag = [](const FailPoint& fp, bool injected) {
    return injected ? " (failpoint " + fp.name() + ")" : std::string();
  };
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    const bool injected = WCOJ_FAILPOINT(write_fp);
    if (injected || !out ||
        !out.write(static_cast<const char*>(bytes),
                   static_cast<std::streamsize>(n))) {
      out.close();
      std::error_code ignore;
      std::filesystem::remove(tmp, ignore);
      return Status(StatusCode::kIoError,
                    "write failed: " + tmp + tag(write_fp, injected));
    }
  }
  std::error_code ec;
  const bool injected = WCOJ_FAILPOINT(rename_fp);
  if (!injected) std::filesystem::rename(tmp, path, ec);
  if (injected || ec) {
    std::error_code ignore;
    std::filesystem::remove(tmp, ignore);
    return Status(StatusCode::kIoError,
                  "rename failed: " + path + tag(rename_fp, injected));
  }
  return OkStatus();
}

}  // namespace

// Friend of TrieIndex: reads the private CSR arrays for serialization
// and assembles mapped instances field-by-field via the private default
// constructor. Lives here so trie.h stays independent of the format.
class TrieIndexMapper {
 public:
  static const TrieIndex::Offset* Child(const TrieIndex& index, int depth) {
    return index.levels_[depth].child;
  }

  static std::unique_ptr<TrieIndex> Assemble(const MappedTrie& trie) {
    std::unique_ptr<TrieIndex> index(
        new TrieIndex());  // wcoj-lint: allow(naked-new) -- private ctor
    const FileHeader& h = trie.header;
    const std::vector<LevelSection>& secs = trie.secs;
    const uint8_t* base = trie.file->data();
    index->rows_ = h.rows;
    index->perm_ = trie.perm;
    index->levels_.resize(h.arity);
    for (uint32_t d = 0; d < h.arity; ++d) {
      const LevelSection& s = secs[d];
      LevelKeys& keys = index->levels_[d].keys;
      if (static_cast<KeyTier>(s.tier) == KeyTier::kRaw) {
        keys.BindRawView(reinterpret_cast<const Value*>(base + s.keys_off),
                         s.key_count);
      } else {
        keys.BindPackedView(
            s.packed_base,
            reinterpret_cast<const uint16_t*>(base + s.keys_off),
            s.key_count);
      }
      if (d + 1 < h.arity) {
        index->levels_[d].child =
            reinterpret_cast<const TrieIndex::Offset*>(base + s.child_off);
      }
    }
    index->mmap_backing_ = trie.file;
    return index;
  }
};

uint64_t RelationFingerprint(const Relation& rel) {
  assert(rel.built());
  const uint64_t meta[2] = {static_cast<uint64_t>(rel.arity()), rel.size()};
  uint64_t h = Fnv1a(meta, sizeof(meta));
  if (rel.size() > 0) {
    h = Fnv1a(rel.Row(0), rel.size() * rel.arity() * sizeof(Value), h);
  }
  return h;
}

const char* CatalogManifestName() { return "MANIFEST"; }

Status SaveIndex(const TrieIndex& index, uint64_t fingerprint,
                 const std::string& path) {
  const int arity = index.arity();
  assert(arity >= 1 && arity <= static_cast<int>(kMaxArity));

  FileHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kFormatVersion;
  h.endian = kEndianTag;
  h.header_bytes = HeaderBytes(arity);
  h.fingerprint = fingerprint;
  h.arity = static_cast<uint32_t>(arity);
  h.rows = index.size();

  // Lay out the sections, then assemble the whole file in memory: index
  // files are bounded by the relation's in-memory footprint, and a
  // single buffer makes the two checksums and the atomic write trivial.
  std::vector<LevelSection> secs(arity);
  size_t off = h.header_bytes;
  for (int d = 0; d < arity; ++d) {
    const LevelKeys& keys = index.Keys(d);
    LevelSection& s = secs[d];
    s.tier = static_cast<uint32_t>(keys.tier());
    s.key_count = keys.size();
    s.packed_base = keys.packed_base();
    s.keys_off = Align64(off);
    s.keys_bytes = keys.PayloadBytes();
    off = s.keys_off + s.keys_bytes;
    if (d + 1 < arity) {
      s.child_off = Align64(off);
      s.child_bytes = (keys.size() + 1) * sizeof(TrieIndex::Offset);
      off = s.child_off + s.child_bytes;
    }
  }
  h.file_bytes = off;

  std::vector<uint8_t> buf(h.file_bytes, 0);
  size_t cursor = sizeof(FileHeader);
  for (int d = 0; d < arity; ++d) {
    const int32_t col = index.perm()[d];
    std::memcpy(buf.data() + cursor, &col, sizeof(col));
    cursor += sizeof(col);
  }
  std::memcpy(buf.data() + cursor, secs.data(),
              secs.size() * sizeof(LevelSection));
  for (int d = 0; d < arity; ++d) {
    const LevelKeys& keys = index.Keys(d);
    const LevelSection& s = secs[d];
    if (s.keys_bytes > 0) {
      std::memcpy(buf.data() + s.keys_off, keys.PayloadData(), s.keys_bytes);
    }
    if (s.child_bytes > 0) {
      std::memcpy(buf.data() + s.child_off, TrieIndexMapper::Child(index, d),
                  s.child_bytes);
    }
  }
  h.payload_checksum =
      Fnv1a(buf.data() + h.header_bytes, h.file_bytes - h.header_bytes);
  h.header_checksum = 0;
  std::memcpy(buf.data(), &h, sizeof(h));
  h.header_checksum = Fnv1a(buf.data(), h.header_bytes);
  std::memcpy(buf.data(), &h, sizeof(h));

  return WriteThenRename(path, buf.data(), buf.size(), WriteFp(), RenameFp());
}

namespace {

// Maps `path` into *out and validates it (the payload checksum too when
// `verify_payload`); false with *status naming the rejection. The
// fingerprint is reported in out->header, not checked: each caller
// decides what it must match.
bool OpenImpl(const std::string& path, bool verify_payload, MappedTrie* out,
              Status* status) {
  std::shared_ptr<MappedFile> file = MappedFile::Map(path, status);
  if (file == nullptr) return false;
  const uint8_t* base = file->data();
  auto reject = [&](const std::string& what) {
    SetStatus(status, StatusCode::kDataLoss, FileReason(path, what));
    return false;
  };
  if (WCOJ_FAILPOINT(ReadFp())) {
    SetStatus(status, StatusCode::kIoError,
              FileReason(path, "read failed (failpoint persist.read)"));
    return false;
  }

  if (file->size() < sizeof(FileHeader)) return reject("truncated header");
  FileHeader h;
  std::memcpy(&h, base, sizeof(h));
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    return reject("bad magic");
  }
  if (h.version != kFormatVersion) {
    return reject("unsupported format version " + std::to_string(h.version));
  }
  if (h.endian != kEndianTag) return reject("endianness mismatch");
  if (h.arity < 1 || h.arity > kMaxArity) return reject("implausible arity");
  if (h.header_bytes != HeaderBytes(h.arity)) {
    return reject("header size mismatch");
  }
  if (h.file_bytes != file->size()) return reject("truncated or padded file");

  // Header checksum: the stored bytes with the checksum field zeroed.
  std::vector<uint8_t> hdr(base, base + h.header_bytes);
  std::memset(hdr.data() + offsetof(FileHeader, header_checksum), 0,
              sizeof(uint64_t));
  if (Fnv1a(hdr.data(), hdr.size()) != h.header_checksum) {
    return reject("header checksum mismatch");
  }
  std::vector<int> perm(h.arity);
  std::vector<bool> seen(h.arity, false);
  const int32_t* perm32 =
      reinterpret_cast<const int32_t*>(base + sizeof(FileHeader));
  for (uint32_t d = 0; d < h.arity; ++d) {
    const int32_t c = perm32[d];
    if (c < 0 || c >= static_cast<int32_t>(h.arity) || seen[c]) {
      return reject("invalid permutation");
    }
    seen[c] = true;
    perm[d] = c;
  }

  std::vector<LevelSection> secs(h.arity);
  std::memcpy(secs.data(),
              base + sizeof(FileHeader) + h.arity * sizeof(int32_t),
              h.arity * sizeof(LevelSection));
  for (uint32_t d = 0; d < h.arity; ++d) {
    const LevelSection& s = secs[d];
    if (s.tier != static_cast<uint32_t>(KeyTier::kRaw) &&
        s.tier != static_cast<uint32_t>(KeyTier::kPacked16)) {
      return reject("unknown key tier");
    }
    const KeyTier tier = static_cast<KeyTier>(s.tier);
    if (s.key_count > UINT32_MAX) return reject("level too large");
    if (s.keys_bytes != s.key_count * TierElemBytes(tier) ||
        !SectionInBounds(s.keys_off, s.keys_bytes, h.header_bytes,
                         h.file_bytes)) {
      return reject("malformed key section");
    }
    if (d + 1 < h.arity) {
      if (s.child_bytes != (s.key_count + 1) * sizeof(TrieIndex::Offset) ||
          !SectionInBounds(s.child_off, s.child_bytes, h.header_bytes,
                           h.file_bytes)) {
        return reject("malformed child section");
      }
    } else {
      if (s.child_off != 0 || s.child_bytes != 0) {
        return reject("unexpected child section");
      }
      if (s.key_count != h.rows) return reject("leaf count != rows");
    }
  }
  // One word per level: each child array's closing sentinel must equal
  // the next level's key count, the invariant every ChildEnd range
  // ultimately chains up to. Touches at most one page per level.
  for (uint32_t d = 0; d + 1 < h.arity; ++d) {
    const TrieIndex::Offset* child =
        reinterpret_cast<const TrieIndex::Offset*>(base + secs[d].child_off);
    if (child[secs[d].key_count] != secs[d + 1].key_count) {
      return reject("child sentinel mismatch");
    }
  }

  if (verify_payload) {
    const uint64_t sum =
        Fnv1a(base + h.header_bytes, h.file_bytes - h.header_bytes);
    if (sum != h.payload_checksum) return reject("payload checksum mismatch");
  }

  *out = MappedTrie{h, std::move(perm), std::move(secs), std::move(file)};
  return true;
}

}  // namespace

std::unique_ptr<TrieIndex> OpenIndex(const std::string& path,
                                     uint64_t expected_fingerprint,
                                     Status* status) {
  MappedTrie trie;
  if (!OpenImpl(path, /*verify_payload=*/false, &trie, status)) return nullptr;
  if (trie.header.fingerprint != expected_fingerprint) {
    SetStatus(status, StatusCode::kDataLoss,
              FileReason(path, "stale fingerprint"));
    return nullptr;
  }
  return TrieIndexMapper::Assemble(trie);
}

Status VerifyIndexFile(const std::string& path) {
  MappedTrie trie;
  Status status;
  return OpenImpl(path, /*verify_payload=*/true, &trie, &status) ? OkStatus()
                                                                 : status;
}

// --- IndexCatalog / Database persistence (declared in catalog.h) ---

namespace {

// A name unique per (contents, permutation), so identical indexes
// share one file and distinct ones never collide. Only SaveTo reads it:
// OpenFrom trusts the header, never the name.
std::string IndexFileName(uint64_t fingerprint, const std::vector<int>& perm) {
  std::ostringstream name;
  name << "trie_" << std::hex << fingerprint << std::dec << "_p";
  for (size_t i = 0; i < perm.size(); ++i) {
    name << (i > 0 ? "-" : "") << perm[i];
  }
  name << ".wct";
  return name.str();
}

}  // namespace

size_t IndexCatalog::SaveTo(const std::string& dir, Status* status) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    SetStatus(status, StatusCode::kIoError, "cannot create " + dir);
    return 0;
  }
  // Exclusive advisory lock for the whole files+manifest sequence: a
  // concurrent SaveTo (this process or another) waits here instead of
  // interleaving its tmp+rename steps with ours.
  DirLock lock(dir, /*exclusive=*/true);
  // Snapshot under the map lock; completed entries are immutable after
  // their once_flag fires, so the writes below run lock-free.
  std::vector<std::pair<Key, std::shared_ptr<Entry>>> snapshot;
  {
    MutexLock lock_map(mu_);
    snapshot.assign(entries_.begin(), entries_.end());
  }
  std::ostringstream manifest;
  manifest << kManifestMagic << "\n";
  size_t saved = 0;
  std::vector<std::string> written;
  for (const auto& [key, entry] : snapshot) {
    if (!entry->ready.load(std::memory_order_acquire)) continue;  // in-flight
    const TrieIndex* index = entry->index.get();
    const uint64_t fp = RelationFingerprint(*key.rel);
    const std::string name = IndexFileName(fp, index->perm());
    // Two relations with identical contents share a fingerprint and
    // would serialize to identical files; write once.
    bool dup = false;
    for (const std::string& w : written) dup |= w == name;
    if (dup) continue;
    const std::string path = dir + "/" + name;
    const Status save = SaveIndex(*index, fp, path);
    if (!save.ok()) {
      // Stop the sweep: the manifest is NOT committed, so the directory
      // keeps whatever complete manifest it had before this call — a
      // failed save never publishes a partial catalog.
      if (status != nullptr) *status = save;
      return saved;
    }
    written.push_back(name);
    manifest << name << "\n";
    ++saved;
  }
  // The manifest rename is the commit point: until it lands, a reader
  // sees the previous complete catalog (or none).
  const std::string bytes = manifest.str();
  const Status commit = WriteThenRename(
      dir + "/" + std::string(CatalogManifestName()), bytes.data(),
      bytes.size(), ManifestWriteFp(), ManifestCommitFp());
  if (!commit.ok() && status != nullptr) *status = commit;
  return saved;
}

void IndexCatalog::Install(const Relation& rel, std::vector<int> perm,
                           std::unique_ptr<TrieIndex> index) {
  std::shared_ptr<Entry> entry;
  {
    MutexLock lock(mu_);
    std::shared_ptr<Entry>& slot = entries_[Key{&rel, std::move(perm)}];
    if (slot == nullptr) slot = std::make_shared<Entry>();
    entry = slot;
  }
  // Fire the entry's once_flag with the mapped index, so every later
  // GetOrBuild on this key is a cache hit (index_builds stays 0 across
  // a warm start). If the key was already built, the mapped instance is
  // simply dropped — first writer wins, same as racing builders.
  std::call_once(entry->once, [&] {
    entry->index = std::move(index);
    entry->ready.store(true, std::memory_order_release);
  });
}

size_t IndexCatalog::OpenFrom(const std::string& dir,
                              const std::vector<const Relation*>& live,
                              CatalogOpenStats* stats) {
  CatalogOpenStats local;
  if (stats == nullptr) stats = &local;
  // Every skip entry is FileReason-shaped: the full path of the file
  // the manifest entry names (or the manifest itself for unparseable
  // lines), then the reason — one format, pinned by persist_test.
  auto skip = [stats](const std::string& path, const std::string& why) {
    ++stats->skipped;
    stats->skip_log.push_back(FileReason(path, why));
  };
  const std::string manifest_path =
      dir + "/" + std::string(CatalogManifestName());
  // Shared advisory lock: don't read a manifest a concurrent SaveTo is
  // mid-replacing (the rename itself is atomic; the lock keeps the
  // files the manifest names from racing the sweep).
  DirLock lock(dir, /*exclusive=*/false);
  std::ifstream in(manifest_path);
  if (!in) {
    stats->status =
        Status(StatusCode::kNotFound, "no catalog manifest in " + dir);
    return 0;
  }
  std::string line;
  if (!std::getline(in, line) || line != kManifestMagic) {
    stats->status =
        Status(StatusCode::kDataLoss, "bad manifest magic in " + dir);
    return 0;
  }
  // Fingerprint each live relation once; an index file is loadable only
  // over relations whose current contents still hash to its header's
  // fingerprint (Resample/Put invalidation shows up here as a mismatch).
  std::vector<uint64_t> live_fp(live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    live_fp[i] = RelationFingerprint(*live[i]);
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // An entry is one file name inside `dir`; anything else (a line
    // carrying more fields, a path) is skipped and rebuilds on demand.
    if (line.find_first_of(" \t/") != std::string::npos) {
      skip(manifest_path, "malformed manifest entry '" + line + "'");
      continue;
    }
    const std::string path = dir + "/" + line;
    MappedTrie trie;
    Status open_status;
    if (!OpenImpl(path, /*verify_payload=*/false, &trie, &open_status)) {
      // Corrupt/truncated/missing file: reject this entry cleanly; the
      // in-memory build path covers it.
      skip(path, open_status.ToString());
      continue;
    }
    const FileHeader& h = trie.header;
    // One mapping serves every live relation with these contents; each
    // gets its own index under the permutation the header names.
    bool matched_live = false;
    for (size_t i = 0; i < live.size(); ++i) {
      if (live_fp[i] != h.fingerprint ||
          static_cast<uint32_t>(live[i]->arity()) != h.arity) {
        continue;
      }
      matched_live = true;
      Install(*live[i], trie.perm, TrieIndexMapper::Assemble(trie));
      ++stats->installed;
    }
    if (!matched_live) {
      skip(path, "stale fingerprint (no live relation matches)");
    }
  }
  return stats->installed;
}

size_t Database::SaveCatalog(const std::string& dir, Status* status) const {
  return catalog_.SaveTo(dir, status);
}

size_t Database::LoadCatalog(const std::string& dir,
                             CatalogOpenStats* stats) {
  std::vector<const Relation*> live;
  live.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) live.push_back(&rel);
  return catalog_.OpenFrom(dir, live, stats);
}

}  // namespace wcoj
