#ifndef WCOJ_STORAGE_PERSIST_H_
#define WCOJ_STORAGE_PERSIST_H_

// Persistent on-disk trie catalog: one versioned binary file per
// TrieIndex, mmap'd back as the index's backing store with zero
// deserialization.
//
// The CSR trie (storage/trie.h) is already flat-array data: per level,
// one encoded key payload (raw int64 or FoR-packed u16, see
// storage/level_keys.h) plus a u32 child-offset array. The
// file format writes those arrays verbatim behind a self-describing
// header, each section 64-byte aligned, so OpenIndex can mmap the file
// and bind every LevelKeys to the mapped bytes through its view mode.
// Nothing is decoded at open: the kernel pages bytes in on first touch,
// which is what makes a warm start orders of magnitude cheaper than a
// rebuild.
//
// File layout (all little-endian, version 3):
//
//   +--------------------------------------------------------------+
//   | FileHeader   magic "WCOJTRI1", version, endian tag,          |
//   |              header/file byte counts, header checksum,       |
//   |              payload checksum, relation fingerprint,         |
//   |              arity, rows                                     |
//   | int32_t      perm[arity]                                     |
//   | LevelSection sections[arity]  (tier, key count, packed base, |
//   |              keys/child offset+bytes)                        |
//   +---- 64-byte aligned sections, in level order ----------------+
//   | level 0: key payload | child offsets                         |
//   | level 1: ...                                                 |
//   +--------------------------------------------------------------+
//
// Integrity model: OpenIndex validates everything reachable without
// paging in the payload — magic, version (any other version rejected),
// endianness, exact file size (catches truncation), a checksum over the
// header region, fingerprint match, and per-section bounds/alignment/
// size arithmetic — plus one sentinel offset per level. The payload
// checksum covers the section bytes but is only verified by
// VerifyIndexFile, because checking it at open would fault in the whole
// file and erase the warm-start win. Every rejection is a clean error
// return; callers fall back to an in-memory build.
//
// Identity: the checksummed header is the one record of what a file
// holds (source fingerprint, arity, permutation). A level's tier tag
// records how its bytes are encoded, not a choice: the tier follows
// from the keys (storage/level_keys.h), so a rebuild would write the
// same bytes. The catalog's MANIFEST only lists file names, and the
// file name is a unique label for the writer, never parsed:
// IndexCatalog::OpenFrom installs each file under the permutation its
// header names. Files of an older version (1 or 2) are refused by the
// version check and rebuild in memory.
//
// Lifetime: a mapped TrieIndex owns its file mapping (a shared_ptr kept
// inside the index), so the usual catalog contract is unchanged — the
// mapping lives exactly as long as the index. The *file* must not be
// rewritten in place while mapped; SaveTo always writes fresh files.

#include <cstdint>
#include <memory>
#include <string>

#include "storage/relation.h"
#include "storage/trie.h"
#include "util/status.h"

namespace wcoj {

// Content fingerprint (FNV-1a over arity, row count, and every value in
// row-major order). Stored in every index file's header; a catalog open
// installs a file only over a live relation whose current contents hash
// to it, so a relation that changed since the save (e.g.
// DatasetRelations::Resample drawing new node samples) rebuilds instead.
uint64_t RelationFingerprint(const Relation& rel);

// Writes `index` to `path` (replacing any existing file). `fingerprint`
// is the source relation's RelationFingerprint, stored in the header
// and re-checked at open. Write-then-rename: a failure (real or via the
// "persist.write"/"persist.rename" failpoints) never leaves a partial
// file at `path`. Non-OK with the failing step on I/O failure.
Status SaveIndex(const TrieIndex& index, uint64_t fingerprint,
                 const std::string& path);

// Maps `path` and returns a TrieIndex serving directly out of the
// mapping, or null with *status describing the rejection (missing file,
// truncation, bad magic/version/checksum, fingerprint mismatch,
// malformed section table). The returned index owns the mapping.
std::unique_ptr<TrieIndex> OpenIndex(const std::string& path,
                                     uint64_t expected_fingerprint,
                                     Status* status = nullptr);

// Full-file validation: everything OpenIndex checks plus the payload
// checksum. For tests and offline catalog audits.
Status VerifyIndexFile(const std::string& path);

// Name of the manifest file inside a catalog directory.
const char* CatalogManifestName();

}  // namespace wcoj

#endif  // WCOJ_STORAGE_PERSIST_H_
