// 64-byte aligned allocation for numeric buffers.
//
// Tensor storage and the GEMM packing buffers allocate through this
// allocator so (a) the AVX2 microkernel's 32-byte vector loads never
// straddle a cache line at a buffer's start, and (b) buffers handed to
// different pool workers begin on their own cache line, eliminating false
// sharing on the first/last elements of adjacent allocations.
//
// The alignment is made here, not by aligned operator new: glibc's
// memalign pads every request by the alignment, so a freed block is too
// small for the next request of the same size unless a neighbour is free
// too. A loop that frees and re-allocates one activation shape per step,
// beside other threads' live small allocations, then walks the heap
// upward by one block per step (EXPERIMENTS.md, "Steady peak RSS").
// Over-allocating by one line through plain operator new keeps same-size
// requests the same malloc size, so each fits the hole its predecessor
// left.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

namespace candle {

/// One x86 cache line; also a multiple of the 32-byte AVX2 vector width.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Minimal C++17 allocator returning kCacheLineBytes-aligned storage.
template <typename T>
struct AlignedAllocator {
  using value_type = T;
  static_assert(alignof(T) <= kCacheLineBytes,
                "type alignment exceeds the cache-line allocator");
  static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= sizeof(char*),
                "no room below the aligned address for the block pointer");

  AlignedAllocator() noexcept = default;
  template <typename U>
  explicit AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  /// Over-allocates one cache line and returns the first aligned address
  /// past the block's start; the block's own address sits in the word just
  /// below (operator new aligns to at least 16 bytes, so the gap is never
  /// smaller than one pointer).
  T* allocate(std::size_t n) {
    if (n > (SIZE_MAX - kCacheLineBytes) / sizeof(T))
      throw std::bad_array_new_length();
    char* raw = static_cast<char*>(
        ::operator new(n * sizeof(T) + kCacheLineBytes));
    char* p = raw + (kCacheLineBytes -
                     reinterpret_cast<std::uintptr_t>(raw) % kCacheLineBytes);
    std::memcpy(p - sizeof raw, &raw, sizeof raw);
    return reinterpret_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept {
    char* raw = nullptr;
    std::memcpy(&raw, reinterpret_cast<char*>(p) - sizeof raw, sizeof raw);
    ::operator delete(raw);
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// Cache-line aligned float buffer (Tensor storage, GEMM pack panels).
using AlignedVector = std::vector<float, AlignedAllocator<float>>;

/// True when `p` sits on a kCacheLineBytes boundary (alignment tests).
inline bool is_cacheline_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kCacheLineBytes == 0;
}

}  // namespace candle
