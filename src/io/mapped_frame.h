// Zero-copy memory-mapped view of a binary frame cache: the one reader of
// CFR2 payload bytes.
//
// MappedFrame mmaps the cache file and exposes row views directly into the
// page cache: validation touches only the header, and a sharded copy
// (read_csv_cached with world > 1) touches only the pages that hold the
// requested rows, so per-rank load bytes scale with the shard size, not
// the file size. The v2 format's 64-byte payload offset keeps every mapped
// row buffer as aligned as a Tensor allocation.
//
// The mapping is read-only and private; the file can be atomically replaced
// (write-to-temp + rename, as the cache writer does) while a MappedFrame is
// live — the mapping pins the old inode.
#pragma once

#include <cstddef>
#include <span>
#include <string>

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

  /// The validated header (its source fingerprint decides a cache hit).
  [[nodiscard]] const FrameCacheHeader& header() const { return header_; }
  [[nodiscard]] std::size_t rows() const { return header_.rows; }
  [[nodiscard]] std::size_t cols() const { return header_.cols; }

  /// Zero-copy view of row `r`; throws InvalidArgument when out of range.
  [[nodiscard]] std::span<const float> row(std::size_t r) const;

  /// The full payload (rows * cols floats, row-major, 64-byte aligned).
  [[nodiscard]] const float* payload() const { return payload_; }
  [[nodiscard]] std::size_t payload_bytes() const {
    return rows() * cols() * sizeof(float);
  }

  /// Heap materialization of the whole frame.
  [[nodiscard]] DataFrame to_frame() const;

 private:
  void unmap() noexcept;

  void* map_ = nullptr;          // whole-file mapping
  std::size_t map_bytes_ = 0;
  const float* payload_ = nullptr;
  FrameCacheHeader header_{};
};

}  // namespace candle::io
