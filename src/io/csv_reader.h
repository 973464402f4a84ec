// CSV readers reproducing the data-loading strategies compared in the paper
// (Section 5, Tables 3 and 4).
//
// Four strategies are implemented:
//
//  * read_csv_original — models `pandas.read_csv()` with its default
//    low_memory=True: the file is tokenized in small text chunks; for every
//    (chunk, column) pair a separate piece buffer is allocated and a dtype
//    inference pass runs (try integer, fall back to float); at end-of-file
//    all per-column pieces are concatenated (extra copy), then the columnar
//    frame is transposed into the row-major result (second copy). For wide
//    files (tens of thousands of columns) the per-(chunk, column) overhead
//    dominates, exactly the pathology the paper measured on NT3/P1B1/P1B2.
//
//  * read_csv_chunked — the paper's fix: sequential 16 MB block reads
//    (Spectrum Scale's largest I/O block on Summit) parsed in a single pass
//    with std::from_chars straight into the final row-major buffer, no type
//    re-inference and no concatenation. Its rank/world parameters make it
//    a strided (row-sharded) read: every rank streams the whole file but
//    tokenizes only rows rank, rank + world, ..., so across the ranks every
//    row is tokenized by exactly one rank.
//
//  * read_csv_dask — a Dask-DataFrame-like strategy: the file is split into
//    row segments parsed independently into per-segment frames that are
//    concatenated at the end. The paper found it faster than the original
//    but slower than the 16 MB chunked reader.
//
//  * read_csv_parallel — the threaded extension of the chunked reader
//    (this repo's step beyond the paper): phase 1 indexes newlines per
//    16 MB block across the candle::parallel pool, phase 2 parses disjoint
//    row ranges directly into the final row-major buffer.
//
// The chunked, Dask and parallel readers share one private CSV core in
// csv_reader.cpp: the line rule (split on '\n', drop one trailing '\r',
// skip empty lines), the row tokenizer (std::from_chars per cell, an empty
// field is 0, a row whose field count differs from the first row's throws
// IoError) and the file reads. They differ only in how they schedule the
// work, so their frames are equal bit for bit for any block size, segment
// count or thread count.
//
// read_csv_original stands apart on purpose. It keeps its own tokenizer
// and its int64-then-float64 conversion because it is the independent
// reference the fast readers are checked against (the tests and the
// end-to-end benchmark's gate); sharing the core would let one tokenizer
// bug pass on both sides. On the text CsvWriter writes, its frames equal
// the others' bit for bit with one exception: a "-0" cell is +0.0 in
// read_csv_original (its int64 inference reads "-0" as the integer 0, as
// pandas does) and -0.0 in the other three. Two rounding corner cases, which
// CsvWriter never writes, also part them: read_csv_original converts
// through float64, so a nonzero cell too small to survive as a float reads
// as 0 there but throws IoError in the fast readers, and a cell within a
// float64 ulp of a float rounding tie can round the other way. A finite
// cell beyond float range throws IoError in every reader.
//
// The load rule lives here too. read_csv and read_csv_cached (binary_cache.h)
// are the only load entry points, and both take the same row shard: rank
// `rank` of `world` gets rows i (0-based, blank lines not counted) with
// i % world == rank, in file order, its tail row included, and
// CsvReadStats::file_rows counts the whole file's rows. Equal shards (the
// first file_rows / world rows of every rank) are the caller's cut, made
// after it has checked the tail rows too.
#pragma once

#include <cstddef>
#include <string>

#include "io/dataframe.h"

namespace candle::io {

/// The chunked reader's I/O block: 16 MiB, Spectrum Scale's largest on
/// Summit (the paper's setting).
inline constexpr std::size_t kChunkBytes = 16 * 1024 * 1024;

/// Measurements from one read.
struct CsvReadStats {
  double seconds = 0.0;        // wall-clock parse time
  std::size_t bytes = 0;       // file size
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t chunks = 0;      // text chunks (original) or blocks (chunked)
  std::size_t piece_allocs = 0;  // per-(chunk,column) buffers (original only)
  // Rows in the whole file: equal to `rows` except under a row shard
  // (world > 1), where `rows` counts only the rank's rows.
  std::size_t file_rows = 0;
};

/// Pandas-default model (low_memory=True). `low_memory_chunk_bytes` is the
/// tokenizer chunk size (pandas uses 256 KiB of text).
DataFrame read_csv_original(const std::string& path, CsvReadStats* stats = nullptr,
                            std::size_t low_memory_chunk_bytes = 256 * 1024);

/// The paper's optimized loader: chunked read with low_memory=False.
/// `chunk_bytes` defaults to kChunkBytes.
///
/// Row shard (the load rule above): with world > 1 the rows this rank does
/// not keep are split off at their newline and never tokenized, so only
/// kept rows can raise a malformed-cell or ragged-row IoError. Every rank
/// takes the frame width from the file's first row, so the world ranks'
/// frames interleave to exactly the world = 1 frame and every row is
/// checked by exactly one rank. Throws InvalidArgument when rank >= world
/// or the file has fewer rows than world, IoError when it has none.
DataFrame read_csv_chunked(const std::string& path, CsvReadStats* stats = nullptr,
                           std::size_t chunk_bytes = kChunkBytes,
                           std::size_t rank = 0, std::size_t world = 1);

/// Dask-like segmented reader. `segments` row partitions (default 8).
DataFrame read_csv_dask(const std::string& path, CsvReadStats* stats = nullptr,
                        std::size_t segments = 8);

/// Multi-threaded two-phase reader over the candle::parallel pool (thread
/// count from CANDLE_NUM_THREADS / parallel::set_num_threads). Exactly
/// frame-equal to read_csv_chunked; `block_bytes` sizes the phase-1
/// newline-index blocks (16 MiB, matching the chunked reader's I/O block).
DataFrame read_csv_parallel(const std::string& path,
                            CsvReadStats* stats = nullptr,
                            std::size_t block_bytes = 16 * 1024 * 1024);

/// Loader selection used by the benchmark runner and the binary cache.
enum class LoaderKind { kOriginal, kChunked, kDask, kParallel };

std::string loader_name(LoaderKind kind);

/// Reads rank `rank` of `world`'s rows (the load rule above) with one of
/// the readers above: kChunked tokenizes only those rows, the others parse
/// the whole file and copy them out (copy_shard). Throws InvalidArgument
/// when rank >= world or the file has fewer rows than world.
DataFrame read_csv(const std::string& path, LoaderKind kind,
                   CsvReadStats* stats = nullptr, std::size_t rank = 0,
                   std::size_t world = 1);

/// Copies rank `rank` of `world`'s rows (the load rule above) out of a
/// row-major `rows` x `cols` payload into a fresh frame. Throws
/// InvalidArgument when rank >= world or rows < world.
DataFrame copy_shard(const float* payload, std::size_t rows, std::size_t cols,
                     std::size_t rank, std::size_t world);

/// Keeps rank `rank` of `world`'s rows of a whole-file frame: the frame
/// itself when world is 1, else copy_shard of it, with `stats->rows` (when
/// requested) set to the kept rows.
DataFrame take_shard(DataFrame&& full, std::size_t rank, std::size_t world,
                     CsvReadStats* stats);

}  // namespace candle::io
