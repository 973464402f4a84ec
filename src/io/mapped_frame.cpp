#include "io/mapped_frame.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "common/error.h"
#include "common/stopwatch.h"

namespace candle::io {

MappedFrame::MappedFrame(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw IoError("MappedFrame: cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw IoError("MappedFrame: cannot stat " + path);
  }
  const auto file_bytes = static_cast<std::size_t>(st.st_size);
  if (file_bytes < kFrameCachePayloadOffset) {
    ::close(fd);
    throw IoError("MappedFrame: truncated header in " + path);
  }
  void* map = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the inode alive
  if (map == MAP_FAILED) throw IoError("MappedFrame: mmap failed for " + path);
  map_ = map;
  map_bytes_ = file_bytes;

  FrameCacheHeader h{};
  std::memcpy(&h, map_, sizeof(h));
  try {
    check_header(h, file_bytes, path);
  } catch (const IoError&) {
    unmap();
    throw;
  }
  rows_ = h.rows;
  cols_ = h.cols;
  payload_ = reinterpret_cast<const float*>(
      static_cast<const char*>(map_) + kFrameCachePayloadOffset);
}

MappedFrame::~MappedFrame() { unmap(); }

MappedFrame::MappedFrame(MappedFrame&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_bytes_(std::exchange(other.map_bytes_, 0)),
      payload_(std::exchange(other.payload_, nullptr)),
      rows_(std::exchange(other.rows_, 0)),
      cols_(std::exchange(other.cols_, 0)) {}

MappedFrame& MappedFrame::operator=(MappedFrame&& other) noexcept {
  if (this != &other) {
    unmap();
    map_ = std::exchange(other.map_, nullptr);
    map_bytes_ = std::exchange(other.map_bytes_, 0);
    payload_ = std::exchange(other.payload_, nullptr);
    rows_ = std::exchange(other.rows_, 0);
    cols_ = std::exchange(other.cols_, 0);
  }
  return *this;
}

void MappedFrame::unmap() noexcept {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
  map_ = nullptr;
  map_bytes_ = 0;
  payload_ = nullptr;
}

std::span<const float> MappedFrame::row(std::size_t r) const {
  require(r < rows_, "MappedFrame::row: index out of range");
  return {payload_ + r * cols_, cols_};
}

DataFrame MappedFrame::to_frame() const {
  DataFrame df;
  df.rows = rows_;
  df.cols = cols_;
  df.data.assign(payload_, payload_ + rows_ * cols_);
  return df;
}

DataFrame copy_rows(const float* payload, std::size_t rows, std::size_t cols,
                    const std::vector<std::size_t>& picks) {
  DataFrame df;
  df.rows = picks.size();
  df.cols = cols;
  df.data.resize(df.rows * df.cols);
  for (std::size_t i = 0; i < picks.size(); ++i) {
    require(picks[i] < rows, "copy_rows: row index out of range");
    std::memcpy(df.data.data() + i * cols, payload + picks[i] * cols,
                cols * sizeof(float));
  }
  return df;
}

DataFrame load_frame_rows(const std::string& path,
                          const std::vector<std::size_t>& rows,
                          CsvReadStats* stats) {
  Stopwatch watch;
  const MappedFrame frame(path);
  DataFrame df = copy_rows(frame.payload(), frame.rows(), frame.cols(), rows);
  if (stats != nullptr) {
    stats->seconds = watch.seconds();
    // Bytes actually touched: the header page plus the copied rows.
    stats->bytes =
        kFrameCachePayloadOffset + rows.size() * df.cols * sizeof(float);
    stats->rows = df.rows;
    stats->cols = df.cols;
    stats->chunks = 0;
    stats->piece_allocs = 0;
  }
  return df;
}

}  // namespace candle::io
