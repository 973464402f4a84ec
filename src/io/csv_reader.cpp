#include "io/csv_reader.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "common/stopwatch.h"

namespace candle::io {
namespace {

/// Parse-level validation failures are IoErrors (bad file content), not
/// InvalidArgument (bad caller arguments).
inline void io_require(bool cond, const std::string& msg) {
  if (!cond) throw IoError(msg);
}

/// RAII FILE handle.
struct File {
  std::FILE* f = nullptr;
  explicit File(const std::string& path) {
    f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) throw IoError("read_csv: cannot open " + path);
  }
  ~File() {
    if (f) std::fclose(f);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  /// Size in bytes; leaves the read position at the start.
  [[nodiscard]] std::size_t size() const {
    const bool at_end = std::fseek(f, 0, SEEK_END) == 0;
    const long n = std::ftell(f);
    if (!at_end || n < 0 || std::fseek(f, 0, SEEK_SET) != 0)
      throw IoError("read_csv: cannot size file");
    return static_cast<std::size_t>(n);
  }
};

/// Float64 cell conversion for the original reader. The per-cell cost is
/// deliberately the same as the fast path: pandas' C tokenizer converts
/// cells at comparable speed under both low_memory settings — the
/// low_memory=True penalty the paper measured comes from per-(chunk,
/// column) piece management and consolidation, which flush_chunk models.
/// A finite cell that rounds past the largest float (at or above
/// FLT_MAX + half an ulp) is an IoError, as in the fast readers: the
/// float conversion of such a double is undefined.
inline double parse_double(const char* begin, const char* end) {
  if (begin == end) return 0.0;  // empty field == NaN -> 0
  constexpr double kFloatOverflow = 0x1.ffffffp127;
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc{} || ptr != end)
    throw IoError("read_csv: malformed numeric field '" +
                  std::string(begin, end) + "'");
  if (std::isfinite(v) && std::fabs(v) >= kFloatOverflow)
    throw IoError("read_csv: numeric field beyond float range '" +
                  std::string(begin, end) + "'");
  return v;
}

/// Attempted integer conversion used by the original reader's dtype
/// inference (pandas tries int64 per column chunk before falling back).
inline bool try_parse_int(const char* begin, const char* end,
                          long long& out) {
  if (begin == end) return false;
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

// ---------------------------------------------------------------------------
// The CSV core of the chunked, Dask and parallel readers: one line rule,
// one row tokenizer, one streaming line source and one whole-file read.
// read_csv_original keeps its own tokenizer on purpose: it is the
// independent reference these readers are checked against.
// ---------------------------------------------------------------------------

[[noreturn]] void throw_ragged(std::size_t got, std::size_t expected) {
  throw IoError("read_csv: ragged row (got " + std::to_string(got) +
                " fields, expected " + std::to_string(expected) + ")");
}

/// Field count of one line (the first row's count fixes the frame width).
std::size_t count_fields(const char* begin, const char* end) {
  return 1 + static_cast<std::size_t>(std::count(begin, end, ','));
}

/// Parses the field starting at `p` into `out` and returns where it stops:
/// at the ',' that ends it, or at `end`. An empty field (NaN) is 0.
inline const char* parse_fast(const char* p, const char* end, float& out) {
  out = 0.0f;
  if (p == end || *p == ',') return p;
  const auto [stop, ec] = std::from_chars(p, end, out);
  if (ec != std::errc{} || (stop != end && *stop != ','))
    throw IoError("read_csv: malformed numeric field '" +
                  std::string(p, std::find(p, end, ',')) + "'");
  return stop;
}

/// The row tokenizer: parses the line [begin, end) into exactly `cols`
/// floats at `out`; any other field count is a ragged row.
void parse_row(const char* begin, const char* end, float* out,
               std::size_t cols) {
  const char* p = begin;
  for (std::size_t c = 0; c < cols; ++c) {
    p = parse_fast(p, end, out[c]);
    if (p == end) {
      if (c + 1 != cols) throw_ragged(c + 1, cols);
      return;
    }
    ++p;  // past the ','
  }
  throw_ragged(cols + count_fields(p, end), cols);
}

/// Appends one parsed row to `df`. The first row fixes the column count
/// unless the caller preset it.
void append_row(DataFrame& df, const char* begin, const char* end) {
  if (df.cols == 0) df.cols = count_fields(begin, end);
  const std::size_t at = df.data.size();
  df.data.resize(at + df.cols);
  parse_row(begin, end, df.data.data() + at, df.cols);
  ++df.rows;
}

/// The line rule for one line without its '\n': one trailing '\r' is
/// dropped. A line left empty carries no row.
inline const char* trim_cr(const char* begin, const char* end) {
  return end > begin && end[-1] == '\r' ? end - 1 : end;
}

/// Calls row(begin, end) for every non-empty line of [p, end); the last
/// line needs no '\n'.
template <class RowFn>
void for_each_line(const char* p, const char* end, RowFn&& row) {
  while (p < end) {
    const char* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    const char* line_end = trim_cr(p, nl != nullptr ? nl : end);
    if (line_end > p) row(p, line_end);
    if (nl == nullptr) return;
    p = nl + 1;
  }
}

/// The streaming line source: reads `path` through one buffer of
/// min(chunk_bytes, file size) bytes and hands every line to
/// for_each_line. The unfinished line left by a read moves to the front of
/// the buffer and the next fread lands right after it; a line longer than
/// the buffer doubles it. Returns the bytes read; `reads` counts the
/// freads that returned data.
template <class RowFn>
std::size_t stream_lines(const std::string& path, std::size_t chunk_bytes,
                         std::size_t& reads, RowFn&& row) {
  File file(path);
  std::size_t cap = std::max<std::size_t>(
      1, std::min(chunk_bytes, file.size()));
  auto buf = std::make_unique_for_overwrite<char[]>(cap);
  std::size_t carry = 0;
  std::size_t total = 0;
  while (true) {
    if (carry == cap) {
      auto bigger = std::make_unique_for_overwrite<char[]>(2 * cap);
      std::memcpy(bigger.get(), buf.get(), carry);
      buf = std::move(bigger);
      cap *= 2;
    }
    const std::size_t n =
        std::fread(buf.get() + carry, 1, cap - carry, file.f);
    if (n == 0) break;
    total += n;
    ++reads;
    // The carry holds no '\n', so the last one is among the fresh bytes.
    const char* fresh = buf.get() + carry;
    const char* end = fresh + n;
    const char* tail = end;
    while (tail > fresh && tail[-1] != '\n') --tail;
    if (tail == fresh) {
      carry += n;
      continue;
    }
    for_each_line(buf.get(), tail - 1, row);
    carry = static_cast<std::size_t>(end - tail);
    std::memmove(buf.get(), tail, carry);
  }
  for_each_line(buf.get(), buf.get() + carry, row);
  return total;
}

/// Whole-file read for the readers that index the text in place.
std::string read_file(const std::string& path) {
  File file(path);
  std::string text(file.size(), '\0');
  io_require(!text.empty(), "read_csv: empty file " + path);
  if (std::fread(text.data(), 1, text.size(), file.f) != text.size())
    throw IoError("read_csv: short read on " + path);
  return text;
}

void fill_stats(CsvReadStats* stats, const Stopwatch& watch,
                std::size_t bytes, const DataFrame& df, std::size_t chunks,
                std::size_t file_rows) {
  if (stats != nullptr)
    *stats = {watch.seconds(), bytes, df.rows, df.cols, chunks, 0, file_rows};
}

}  // namespace

std::string loader_name(LoaderKind kind) {
  switch (kind) {
    case LoaderKind::kOriginal: return "pandas.read_csv (original)";
    case LoaderKind::kChunked: return "chunked, low_memory=False";
    case LoaderKind::kDask: return "dask.dataframe";
    case LoaderKind::kParallel: return "parallel chunked (threaded)";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// read_csv_original: pandas low_memory=True model.
// ---------------------------------------------------------------------------

DataFrame read_csv_original(const std::string& path, CsvReadStats* stats,
                            std::size_t low_memory_chunk_bytes) {
  require(low_memory_chunk_bytes >= 4096,
          "read_csv_original: chunk must be >= 4 KiB");
  Stopwatch watch;
  File file(path);

  // Per-column piece lists: each text chunk contributes one piece per column.
  std::vector<std::vector<std::vector<double>>> column_pieces;
  std::size_t cols = 0;
  std::size_t total_rows = 0;
  std::size_t chunks = 0;
  std::size_t piece_allocs = 0;
  std::size_t file_bytes = 0;

  std::vector<char> buf(low_memory_chunk_bytes);
  std::string carry;  // partial trailing line from the previous read
  std::vector<std::pair<const char*, const char*>> cells;

  // Rows of the current text chunk, as (begin, end) cell ranges per column.
  std::vector<std::vector<std::pair<const char*, const char*>>> chunk_rows;

  auto flush_chunk = [&]() {
    if (chunk_rows.empty()) return;
    ++chunks;
    if (column_pieces.empty()) column_pieces.resize(cols);
    // Per (chunk, column): allocate a piece and run dtype inference.
    for (std::size_t c = 0; c < cols; ++c) {
      std::vector<double> piece;
      piece.reserve(chunk_rows.size());
      ++piece_allocs;
      // Dtype inference: attempt int64 until a cell refuses, then restart
      // the column as float64 (pandas' fallback re-parse).
      bool as_int = true;
      for (const auto& row : chunk_rows) {
        long long iv = 0;
        if (!try_parse_int(row[c].first, row[c].second, iv)) {
          as_int = false;
          break;
        }
        piece.push_back(static_cast<double>(iv));
      }
      if (!as_int) {
        piece.clear();
        for (const auto& row : chunk_rows)
          piece.push_back(parse_double(row[c].first, row[c].second));
      }
      column_pieces[c].push_back(std::move(piece));
    }
    total_rows += chunk_rows.size();
    chunk_rows.clear();
  };

  auto process_line = [&](const char* begin, const char* end) {
    if (begin == end) return;  // skip blank lines
    cells.clear();
    const char* field = begin;
    for (const char* p = begin; p <= end; ++p) {
      if (p == end || *p == ',') {
        cells.emplace_back(field, p);
        field = p + 1;
      }
    }
    if (cols == 0) {
      cols = cells.size();
    } else {
      io_require(cells.size() == cols,
              "read_csv: ragged row (got " + std::to_string(cells.size()) +
                  " fields, expected " + std::to_string(cols) + ")");
    }
    chunk_rows.push_back(cells);
  };

  std::string text;  // the chunk's stable backing store
  while (true) {
    const std::size_t n = std::fread(buf.data(), 1, buf.size(), file.f);
    file_bytes += n;
    if (n == 0) break;
    text.assign(carry);
    text.append(buf.data(), n);
    carry.clear();
    // Keep the trailing partial line for the next chunk.
    std::size_t last_nl = text.rfind('\n');
    if (last_nl == std::string::npos) {
      carry = text;
      continue;
    }
    carry.assign(text, last_nl + 1, std::string::npos);
    const char* p = text.data();
    const char* chunk_end = text.data() + last_nl;  // exclusive of final \n
    while (p <= chunk_end) {
      const char* nl = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<std::size_t>(chunk_end - p + 1)));
      if (nl == nullptr) nl = chunk_end;
      const char* line_end = (nl > p && nl[-1] == '\r') ? nl - 1 : nl;
      process_line(p, line_end);
      p = nl + 1;
    }
    flush_chunk();
  }
  if (!carry.empty()) {
    text.assign(carry);
    const char* b = text.data();
    const char* e = b + text.size();
    if (e > b && e[-1] == '\r') --e;
    process_line(b, e);
    flush_chunk();
  }

  io_require(cols > 0 && total_rows > 0, "read_csv: empty file " + path);

  // Concatenate per-column pieces (the low_memory consolidation copy) ...
  std::vector<std::vector<double>> columns(cols);
  for (std::size_t c = 0; c < cols; ++c) {
    columns[c].reserve(total_rows);
    for (const auto& piece : column_pieces[c])
      columns[c].insert(columns[c].end(), piece.begin(), piece.end());
    column_pieces[c].clear();
  }
  column_pieces.clear();

  // ... then materialize the row-major frame (DataFrame.values copy).
  DataFrame df;
  df.rows = total_rows;
  df.cols = cols;
  df.data.resize(total_rows * cols);
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t r = 0; r < total_rows; ++r)
      df.data[r * cols + c] = static_cast<float>(columns[c][r]);

  if (stats != nullptr)
    *stats = {watch.seconds(), file_bytes, df.rows, df.cols, chunks,
              piece_allocs, df.rows};
  return df;
}

// ---------------------------------------------------------------------------
// read_csv_chunked: the paper's optimized loader.
// ---------------------------------------------------------------------------

DataFrame read_csv_chunked(const std::string& path, CsvReadStats* stats,
                           std::size_t chunk_bytes, std::size_t rank,
                           std::size_t world) {
  require(chunk_bytes >= 4096, "read_csv_chunked: chunk must be >= 4 KiB");
  require(rank < world, "read_csv_chunked: rank out of range");
  Stopwatch watch;
  DataFrame df;
  std::size_t blocks = 0;
  std::size_t lines = 0;
  const std::size_t bytes = stream_lines(
      path, chunk_bytes, blocks, [&](const char* b, const char* e) {
        // Every rank takes the frame width from the file's first row; only
        // the rows this rank keeps are tokenized.
        if (df.cols == 0) df.cols = count_fields(b, e);
        if (lines++ % world == rank) append_row(df, b, e);
      });
  io_require(lines > 0, "read_csv: empty file " + path);
  require(lines >= world, "read_csv_chunked: fewer rows than ranks");
  fill_stats(stats, watch, bytes, df, blocks, lines);
  return df;
}

// ---------------------------------------------------------------------------
// read_csv_dask: segmented reader.
// ---------------------------------------------------------------------------

DataFrame read_csv_dask(const std::string& path, CsvReadStats* stats,
                        std::size_t segments) {
  require(segments > 0, "read_csv_dask: segments must be > 0");
  Stopwatch watch;
  // Dask mmaps / reads byte ranges per partition.
  const std::string text = read_file(path);

  // Segment boundaries aligned to line starts.
  std::vector<std::size_t> bounds{0};
  for (std::size_t s = 1; s < segments; ++s) {
    std::size_t pos = s * text.size() / segments;
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos || nl + 1 >= text.size()) break;
    if (nl + 1 > bounds.back()) bounds.push_back(nl + 1);
  }
  bounds.push_back(text.size());

  // Parse each partition into its own frame, then concat: the extra copy
  // is the cost this reader models. The file's first row fixes the width
  // of every segment.
  std::vector<DataFrame> parts;
  std::size_t cols = 0;
  for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
    DataFrame part;
    part.cols = cols;
    for_each_line(
        text.data() + bounds[s], text.data() + bounds[s + 1],
        [&](const char* b, const char* e) { append_row(part, b, e); });
    cols = part.cols;
    if (part.rows > 0) parts.push_back(std::move(part));
  }

  io_require(!parts.empty(), "read_csv: no data parsed from " + path);
  DataFrame df;
  df.cols = cols;
  for (const auto& part : parts) df.rows += part.rows;
  df.data.reserve(df.rows * df.cols);
  for (auto& part : parts)
    df.data.insert(df.data.end(), part.data.begin(), part.data.end());
  fill_stats(stats, watch, text.size(), df, parts.size(), df.rows);
  return df;
}

// ---------------------------------------------------------------------------
// read_csv_parallel: the threaded two-phase extension of the chunked
// reader. Phase 1 newline-indexes 16 MB blocks across the pool; phase 2
// parses disjoint row ranges straight into the row-major frame with the
// same row tokenizer, so the frame is exactly equal for any thread count.
// ---------------------------------------------------------------------------

DataFrame read_csv_parallel(const std::string& path, CsvReadStats* stats,
                            std::size_t block_bytes) {
  require(block_bytes >= 4096, "read_csv_parallel: block must be >= 4 KiB");
  Stopwatch watch;
  // One sequential read of the file; the parallelism is in the parsing,
  // which is where the chunked reader spends its time.
  const std::string text = read_file(path);

  // Phase 1: per-block newline index. Blocks are disjoint byte ranges, so
  // each worker scans its own blocks with memchr; concatenating the block
  // lists in block order reproduces the sequential newline sequence.
  const std::size_t blocks = (text.size() + block_bytes - 1) / block_bytes;
  std::vector<std::vector<std::size_t>> block_newlines(blocks);
  parallel::parallel_for(0, blocks, 1, [&](std::size_t b0, std::size_t b1) {
    for (std::size_t blk = b0; blk < b1; ++blk) {
      const std::size_t lo = blk * block_bytes;
      const std::size_t hi = std::min(text.size(), lo + block_bytes);
      std::vector<std::size_t>& out = block_newlines[blk];
      const char* base = text.data();
      std::size_t at = lo;
      while (at < hi) {
        const char* nl = static_cast<const char*>(
            std::memchr(base + at, '\n', hi - at));
        if (nl == nullptr) break;
        at = static_cast<std::size_t>(nl - base);
        out.push_back(at);
        ++at;
      }
    }
  });

  // Row table in file order under the core's line rule.
  std::vector<std::pair<const char*, const char*>> rows;
  auto add_line = [&](const char* begin, const char* end) {
    end = trim_cr(begin, end);
    if (end > begin) rows.emplace_back(begin, end);
  };
  const char* line = text.data();
  for (const auto& nls : block_newlines) {
    for (std::size_t nl : nls) {
      add_line(line, text.data() + nl);
      line = text.data() + nl + 1;
    }
  }
  add_line(line, text.data() + text.size());
  io_require(!rows.empty(), "read_csv: empty file " + path);

  DataFrame df;
  df.rows = rows.size();
  df.cols = count_fields(rows.front().first, rows.front().second);
  df.data.resize(df.rows * df.cols);

  // Phase 2: parse disjoint row ranges directly into the final buffer.
  // The grain is a byte budget, not a row count: a chunk carries about
  // kParseGrainBytes of text, so a file of a few very wide rows still
  // spreads over the pool. Ragged rows throw; the pool rethrows the
  // lowest-chunk error on the calling thread.
  constexpr std::size_t kParseGrainBytes = 64 * 1024;
  const std::size_t mean_row_bytes = std::max<std::size_t>(
      1, text.size() / rows.size());
  const std::size_t grain =
      std::max<std::size_t>(1, kParseGrainBytes / mean_row_bytes);
  float* out = df.data.data();
  parallel::parallel_for(0, rows.size(), grain, [&](std::size_t r0,
                                                    std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r)
      parse_row(rows[r].first, rows[r].second, out + r * df.cols, df.cols);
  });
  fill_stats(stats, watch, text.size(), df, blocks, df.rows);
  return df;
}

DataFrame copy_shard(const float* payload, std::size_t rows, std::size_t cols,
                     std::size_t rank, std::size_t world) {
  require(rank < world, "read_csv: rank out of range");
  require(rows >= world, "read_csv: fewer rows than ranks");
  DataFrame df;
  df.rows = (rows - rank + world - 1) / world;
  df.cols = cols;
  df.data.reserve(df.rows * cols);
  for (std::size_t r = rank; r < rows; r += world)
    df.data.insert(df.data.end(), payload + r * cols, payload + (r + 1) * cols);
  return df;
}

DataFrame take_shard(DataFrame&& full, std::size_t rank, std::size_t world,
                     CsvReadStats* stats) {
  if (world == 1 && rank == 0) return std::move(full);
  DataFrame mine =
      copy_shard(full.data.data(), full.rows, full.cols, rank, world);
  if (stats != nullptr) stats->rows = mine.rows;
  return mine;
}

DataFrame read_csv(const std::string& path, LoaderKind kind,
                   CsvReadStats* stats, std::size_t rank, std::size_t world) {
  DataFrame full;
  switch (kind) {
    case LoaderKind::kChunked:
      return read_csv_chunked(path, stats, kChunkBytes, rank, world);
    case LoaderKind::kOriginal: full = read_csv_original(path, stats); break;
    case LoaderKind::kDask: full = read_csv_dask(path, stats); break;
    case LoaderKind::kParallel: full = read_csv_parallel(path, stats); break;
    default: throw InvalidArgument("read_csv: bad loader kind");
  }
  return take_shard(std::move(full), rank, world, stats);
}

}  // namespace candle::io
