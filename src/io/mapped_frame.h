// Zero-copy memory-mapped view of a binary frame cache.
//
// load_frame() reads the whole payload into heap memory — fine when the
// frame is consumed entirely, wasteful when a rank only needs its shard of
// the rows. MappedFrame mmaps the cache file instead and exposes row views
// directly into the page cache: validation touches only the header, and a
// subsequent sharded copy touches only the pages that hold the requested
// rows, so per-rank load bytes scale with the shard size, not the file
// size. The v2 format's 64-byte payload offset keeps every mapped row
// buffer as aligned as a Tensor allocation.
//
// The mapping is read-only and private; the file can be atomically replaced
// (write-to-temp + rename, as the cache writer does) while a MappedFrame is
// live — the mapping pins the old inode.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "io/binary_cache.h"
#include "io/dataframe.h"

namespace candle::io {

/// Read-only mmap of a v2 cache file with zero-copy row access.
class MappedFrame {
 public:
  /// Maps `path` and validates it with check_header; throws IoError on
  /// open/map failure, a bad or old-format header, or a payload/file-size
  /// mismatch (truncation, or a rows * cols product that overflows).
  explicit MappedFrame(const std::string& path);
  ~MappedFrame();

  MappedFrame(MappedFrame&& other) noexcept;
  MappedFrame& operator=(MappedFrame&& other) noexcept;
  MappedFrame(const MappedFrame&) = delete;
  MappedFrame& operator=(const MappedFrame&) = delete;

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  /// Zero-copy view of row `r`; throws InvalidArgument when out of range.
  [[nodiscard]] std::span<const float> row(std::size_t r) const;

  /// The full payload (rows * cols floats, row-major, 64-byte aligned).
  [[nodiscard]] const float* payload() const { return payload_; }
  [[nodiscard]] std::size_t payload_bytes() const {
    return rows_ * cols_ * sizeof(float);
  }

  /// Heap materialization of the whole frame (tests compare this against
  /// load_frame for frame equality).
  [[nodiscard]] DataFrame to_frame() const;

 private:
  void unmap() noexcept;

  void* map_ = nullptr;          // whole-file mapping
  std::size_t map_bytes_ = 0;
  const float* payload_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

/// Copies the listed rows (any order, repeats allowed) of a row-major
/// `rows` x `cols` payload into a fresh frame; throws InvalidArgument when
/// a listed row is out of range.
DataFrame copy_rows(const float* payload, std::size_t rows, std::size_t cols,
                    const std::vector<std::size_t>& picks);

/// Copies only the listed rows (any order, repeats allowed) out of a mapped
/// cache into a fresh frame. `stats->bytes`, when requested, counts the
/// header plus the touched rows only — the point of the sharded path.
DataFrame load_frame_rows(const std::string& path,
                          const std::vector<std::size_t>& rows,
                          CsvReadStats* stats = nullptr);

}  // namespace candle::io
