#include "io/mapped_frame.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "common/error.h"

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

  std::memcpy(&header_, map_, sizeof(header_));
  try {
    check_header(header_, file_bytes, path);
  } catch (const IoError&) {
    unmap();
    throw;
  }
  payload_ = reinterpret_cast<const float*>(
      static_cast<const char*>(map_) + kFrameCachePayloadOffset);
}

MappedFrame::~MappedFrame() { unmap(); }

MappedFrame::MappedFrame(MappedFrame&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_bytes_(std::exchange(other.map_bytes_, 0)),
      payload_(std::exchange(other.payload_, nullptr)),
      header_(std::exchange(other.header_, {})) {}

MappedFrame& MappedFrame::operator=(MappedFrame&& other) noexcept {
  if (this != &other) {
    unmap();
    map_ = std::exchange(other.map_, nullptr);
    map_bytes_ = std::exchange(other.map_bytes_, 0);
    payload_ = std::exchange(other.payload_, nullptr);
    header_ = std::exchange(other.header_, {});
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
  require(r < rows(), "MappedFrame::row: index out of range");
  return {payload_ + r * cols(), cols()};
}

DataFrame MappedFrame::to_frame() const {
  return copy_shard(payload_, rows(), cols(), 0, 1);
}

}  // namespace candle::io
