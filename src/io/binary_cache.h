// Binary frame cache — the step beyond the paper's optimization.
//
// The paper speeds up repeated CSV parsing; the obvious follow-on (used by
// later CANDLE releases via .npy feather caches) is to parse once and keep
// a binary image whose load cost is a memory copy. This module implements
// that: a cached frame is a fixed header, zero padding up to a 64-byte
// payload offset, then the raw row-major float payload. MappedFrame
// (io/mapped_frame.h) is the one reader of the payload.
//
// Format v2 ("CFR2"):
//   * the payload starts at kFrameCachePayloadOffset (cache-line aligned,
//     so a memory-mapped payload pointer is 64-byte aligned — see
//     io/mapped_frame.h for the zero-copy reader);
//   * the header carries a content fingerprint of the source CSV (byte
//     size + mtime + FNV-1a of the first and last 4 KiB), so a rewritten
//     CSV of identical length is still detected as a cache miss;
//   * cache files are published with write-to-temp + atomic rename, so
//     concurrent rank threads racing to build the same cache never observe
//     a torn file.
// v1 ("CFR1") files fail header validation and are rebuilt.
#pragma once

#include <cstdint>
#include <string>

#include "io/csv_reader.h"
#include "io/dataframe.h"

namespace candle::io {

/// Magic of the current cache format. Bumped whenever the header layout or
/// validation semantics change; old-magic files are treated as misses.
inline constexpr char kFrameCacheMagic[4] = {'C', 'F', 'R', '2'};

/// Byte offset of the float payload within a cache file. One cache line,
/// so mmap'ed payloads are 64-byte aligned like every Tensor allocation.
inline constexpr std::size_t kFrameCachePayloadOffset = 64;

/// On-disk header of a v2 cache file (bytes [0, sizeof) of the file; the
/// gap up to kFrameCachePayloadOffset is zero padding).
struct FrameCacheHeader {
  char magic[4];                  // kFrameCacheMagic
  std::uint32_t payload_offset;   // == kFrameCachePayloadOffset
  std::uint64_t rows;
  std::uint64_t cols;
  std::uint64_t source_bytes;     // fingerprint of the CSV this was built
  std::int64_t source_mtime_ns;   // from (all zero for save_frame images
  std::uint64_t source_hash;      // that have no source CSV)
};
static_assert(sizeof(FrameCacheHeader) <= kFrameCachePayloadOffset,
              "header must fit before the payload");

/// The one CFR2 header check: magic, payload offset, a non-empty frame
/// whose rows * cols * sizeof(float) payload does not overflow, and
/// payload offset + payload == `file_bytes`. Throws IoError naming `path`.
void check_header(const FrameCacheHeader& h, std::uint64_t file_bytes,
                  const std::string& path);

/// Content fingerprint of a source CSV used for cache validation.
struct SourceFingerprint {
  std::uint64_t bytes = 0;     // file size
  std::int64_t mtime_ns = 0;   // last-write time, ns since the epoch
  std::uint64_t hash = 0;      // FNV-1a over the first and last 4 KiB
  bool operator==(const SourceFingerprint&) const = default;
};

/// Fingerprints `path`; throws IoError when the file cannot be read.
SourceFingerprint fingerprint_source(const std::string& path);

/// Writes `df` as a binary cache file at `path` (no source fingerprint).
void save_frame(const DataFrame& df, const std::string& path);

/// Loads `csv_path` through the cache and returns rank `rank` of `world`'s
/// rows (the load rule in csv_reader.h). On a cache hit (the cache file
/// exists, passes check_header and its stored fingerprint matches the
/// CSV's current size and content hash; the recorded mtime is diagnostic
/// only, so rewriting an identical CSV stays warm) the rows are copied out
/// of the memory-mapped image (MappedFrame): `stats->chunks` is 0 and
/// `stats->bytes` counts the header plus the copied rows only, so per-rank
/// load bytes scale ~1/world. On a miss the CSV is parsed in full with
/// `loader`, the cache is published and the rank's rows are kept. Throws
/// InvalidArgument when rank >= world or the frame has fewer rows than
/// world.
DataFrame read_csv_cached(const std::string& csv_path,
                          LoaderKind loader = LoaderKind::kChunked,
                          CsvReadStats* stats = nullptr, std::size_t rank = 0,
                          std::size_t world = 1);

/// Cache file path derived from a CSV path ("x.csv" -> "x.csv.bin").
std::string cache_path_for(const std::string& csv_path);

}  // namespace candle::io
