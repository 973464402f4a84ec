// Tests for the shared intra-node runtime (common/parallel.*) and the
// threaded hot paths wired onto it: partitioning determinism, exception
// propagation, nested regions, and exact threaded-vs-serial equivalence
// for GEMM, Conv1D, the in-place ops, optimizer updates, and the parallel
// CSV reader. "Exact" means bit-identical buffers at a fixed thread count
// — the determinism contract the TSan CI job runs under
// CANDLE_NUM_THREADS=4.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/aligned.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "hvd/fusion.h"
#include "io/csv_reader.h"
#include "io/synthetic.h"
#include "nn/optimizer.h"
#include "tensor/conv.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace candle {
namespace {

using parallel::parallel_for;
using parallel::parallel_reduce;
using parallel::set_num_threads;

/// Restores the ambient thread count when a test scope ends, so test order
/// never leaks a pool size into another test.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t n)
      : saved_(parallel::num_threads()) {
    set_num_threads(n);
  }
  ~ThreadCountGuard() { set_num_threads(saved_); }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  std::size_t saved_;
};

Tensor random_tensor(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (float& v : t.values()) v = static_cast<float>(rng.normal(0, 1));
  return t;
}

void expect_bit_identical(const Tensor& got, const Tensor& ref,
                          const char* what) {
  ASSERT_EQ(got.shape(), ref.shape()) << what;
  ASSERT_EQ(0, std::memcmp(got.data(), ref.data(),
                           got.numel() * sizeof(float)))
      << what << ": threaded result differs from serial";
}

// ---------------------------------------------------------------------------
// parallel_for basics
// ---------------------------------------------------------------------------

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadCountGuard guard(4);
  for (std::size_t n : {0u, 1u, 2u, 3u, 7u, 64u, 1000u, 1001u}) {
    std::vector<std::atomic<int>> hits(n);
    parallel_for(0, n, 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(1, hits[i].load()) << "n=" << n << " i=" << i;
  }
}

TEST(ParallelFor, HonorsNonZeroBegin) {
  ThreadCountGuard guard(4);
  std::vector<std::atomic<int>> hits(100);
  parallel_for(37, 91, 5, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(i >= 37 && i < 91 ? 1 : 0, hits[i].load()) << i;
}

TEST(ParallelFor, GrainEdgeCases) {
  ThreadCountGuard guard(4);
  // grain exceeding the range -> one inline chunk spanning everything.
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for(0, 10, 100, [&](std::size_t b, std::size_t e) {
    chunks.emplace_back(b, e);
  });
  ASSERT_EQ(1u, chunks.size());
  EXPECT_EQ(0u, chunks[0].first);
  EXPECT_EQ(10u, chunks[0].second);
  // Empty range: the body must never run.
  parallel_for(5, 5, 1, [](std::size_t, std::size_t) { FAIL(); });
  parallel_for(7, 3, 1, [](std::size_t, std::size_t) { FAIL(); });
  // grain 0 is a caller bug.
  EXPECT_THROW(parallel_for(0, 4, 0, [](std::size_t, std::size_t) {}),
               InvalidArgument);
}

TEST(ParallelFor, PartitionIsDeterministicAndGrainBounded) {
  // The chunk table is a pure function of (n, grain, threads): contiguous,
  // complete, sizes within one of each other and never below grain (except
  // the single-chunk case).
  for (std::size_t n : {1u, 5u, 63u, 64u, 65u, 4096u}) {
    for (std::size_t grain : {1u, 3u, 64u}) {
      for (std::size_t threads : {1u, 2u, 4u, 7u}) {
        const auto a = parallel::detail::partition(n, grain, threads);
        const auto b = parallel::detail::partition(n, grain, threads);
        ASSERT_EQ(a, b);
        ASSERT_LE(a.size(), threads);
        std::size_t at = 0;
        for (const auto& [lo, hi] : a) {
          ASSERT_EQ(at, lo);
          ASSERT_LT(lo, hi);
          at = hi;
        }
        ASSERT_EQ(n, at);
        if (a.size() > 1) {
          for (const auto& [lo, hi] : a) ASSERT_GE(hi - lo, grain);
        }
      }
    }
  }
}

TEST(ParallelFor, NeverExceedsConfiguredConcurrency) {
  // Deflake guard: the pool must never run more than CANDLE_NUM_THREADS
  // chunk bodies at once — an over-wide pool shows up elsewhere only as
  // rare nondeterministic oversubscription flakes, so pin it down here
  // with a high-water mark over many short overlapping chunks.
  constexpr std::size_t kThreads = 4;
  ThreadCountGuard guard(kThreads);
  std::atomic<int> live{0};
  std::atomic<int> high_water{0};
  for (int round = 0; round < 8; ++round) {
    parallel_for(0, 4096, 1, [&](std::size_t b, std::size_t e) {
      const int now = live.fetch_add(1) + 1;
      int hw = high_water.load();
      while (now > hw && !high_water.compare_exchange_weak(hw, now)) {
      }
      volatile float sink = 0.0f;  // keep chunks alive long enough to overlap
      for (std::size_t i = b; i < e; ++i)
        sink = sink + static_cast<float>(i);
      live.fetch_sub(1);
    });
    ASSERT_EQ(0, live.load()) << "round " << round;
  }
  EXPECT_GE(high_water.load(), 1);
  EXPECT_LE(high_water.load(), static_cast<int>(kThreads));
}

TEST(ParallelFor, SingleThreadRunsInline) {
  ThreadCountGuard guard(1);
  const auto caller = std::this_thread::get_id();
  std::size_t calls = 0;
  parallel_for(0, 1000, 1, [&](std::size_t, std::size_t) {
    // With threading disabled the body runs once, on the calling thread.
    EXPECT_EQ(caller, std::this_thread::get_id());
    ++calls;
  });
  EXPECT_EQ(1u, calls);
}

TEST(ParallelFor, NestedRegionsRunInlineAndStayCorrect) {
  ThreadCountGuard guard(4);
  const std::size_t rows = 16, cols = 256;
  std::vector<int> cells(rows * cols, 0);
  parallel_for(0, rows, 1, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      // Inner region must not deadlock against the outer one.
      parallel_for(0, cols, 1, [&](std::size_t c0, std::size_t c1) {
        for (std::size_t c = c0; c < c1; ++c) cells[r * cols + c] += 1;
      });
    }
  });
  for (int v : cells) ASSERT_EQ(1, v);
}

TEST(ParallelFor, PropagatesExceptionAndPoolSurvives) {
  ThreadCountGuard guard(4);
  const auto boom = [](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i)
      if (i == 97) throw std::runtime_error("chunk 97 failed");
  };
  EXPECT_THROW(parallel_for(0, 256, 1, boom), std::runtime_error);
  try {
    parallel_for(0, 256, 1, boom);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ("chunk 97 failed", e.what());
  }
  // The pool must stay usable after an exceptional region.
  std::atomic<std::size_t> sum{0};
  parallel_for(0, 100, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(4950u, sum.load());
}

TEST(ParallelConfig, SetNumThreadsValidatesAndReports) {
  EXPECT_THROW(set_num_threads(0), InvalidArgument);
  ThreadCountGuard guard(3);
  EXPECT_EQ(3u, parallel::num_threads());
  set_num_threads(1);
  EXPECT_EQ(1u, parallel::num_threads());
}

TEST(ParallelConfig, EnvValueParsing) {
  using parallel::detail::parse_thread_count;
  EXPECT_EQ(5u, parse_thread_count(nullptr, 5));
  EXPECT_EQ(5u, parse_thread_count("", 5));
  EXPECT_EQ(4u, parse_thread_count("4", 5));
  EXPECT_EQ(1u, parse_thread_count("1", 5));
  EXPECT_EQ(5u, parse_thread_count("0", 5));      // zero -> fallback
  EXPECT_EQ(5u, parse_thread_count("four", 5));   // junk -> fallback
  EXPECT_EQ(5u, parse_thread_count("4x", 5));     // trailing junk
}

// ---------------------------------------------------------------------------
// parallel_reduce
// ---------------------------------------------------------------------------

TEST(ParallelReduce, MatchesSerialSumAndIsRepeatable) {
  ThreadCountGuard guard(4);
  Rng rng(7);
  std::vector<float> xs(100001);
  for (float& v : xs) v = static_cast<float>(rng.normal(0, 1));

  const auto map = [&](std::size_t b, std::size_t e) {
    double acc = 0.0;
    for (std::size_t i = b; i < e; ++i) acc += xs[i];
    return acc;
  };
  const auto combine = [](double a, double b) { return a + b; };
  const double first =
      parallel_reduce(std::size_t{0}, xs.size(), std::size_t{1024}, 0.0,
                      map, combine);
  // Fixed thread count -> fixed chunk table -> bit-identical result.
  for (int run = 0; run < 3; ++run)
    ASSERT_EQ(first, parallel_reduce(std::size_t{0}, xs.size(),
                                     std::size_t{1024}, 0.0, map, combine));
  // And it is the true sum within fp tolerance of the serial fold.
  const double serial = std::accumulate(xs.begin(), xs.end(), 0.0);
  EXPECT_NEAR(serial, first, 1e-6 * std::abs(serial) + 1e-9);
}

TEST(ParallelReduce, EmptyRangeReturnsInit) {
  ThreadCountGuard guard(4);
  const int got = parallel_reduce(
      std::size_t{10}, std::size_t{10}, std::size_t{1}, 42,
      [](std::size_t, std::size_t) { return 7; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(42, got);
}

// ---------------------------------------------------------------------------
// Aligned allocation
// ---------------------------------------------------------------------------

TEST(Alignment, TensorStorageIsCacheLineAligned) {
  // Shapes straddling small/large allocator size classes; every backing
  // buffer must start on a 64-byte boundary for the AVX2 microkernel and
  // the per-worker panel math in gemm.cpp.
  for (std::size_t n : {1u, 3u, 16u, 17u, 1024u, 60483u}) {
    Tensor t({n});
    EXPECT_TRUE(is_cacheline_aligned(t.data())) << "numel=" << n;
  }
  Tensor copied = Tensor({5}, {1, 2, 3, 4, 5});
  EXPECT_TRUE(is_cacheline_aligned(copied.data()));
  const Tensor reshaped = copied.reshaped({5, 1});
  EXPECT_TRUE(is_cacheline_aligned(reshaped.data()));
  static_assert(kCacheLineBytes % (4 * sizeof(float)) == 0,
                "cache line must hold whole 128-bit vectors");
}

TEST(Alignment, FreedBlockFitsNextRequestOfSameSize) {
  // A block freed between two live neighbours must take the next request
  // of its size, or a loop that frees and re-allocates one activation
  // shape per step walks the heap upward (aligned.h). Sanitizer runtimes
  // quarantine freed blocks instead of reusing them.
#if !defined(__GLIBC__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "needs glibc malloc's immediate reuse";
#else
  AlignedAllocator<float> alloc;
  for (std::size_t n : {4096u, 25000u}) {
    float* left = alloc.allocate(n);
    float* block = alloc.allocate(n);
    float* right = alloc.allocate(n);
    alloc.deallocate(block, n);
    float* again = alloc.allocate(n);
    EXPECT_EQ(again, block) << "n=" << n;
    alloc.deallocate(again, n);
    alloc.deallocate(right, n);
    alloc.deallocate(left, n);
  }
#endif
}

TEST(Alignment, FusionBufferStorageIsCacheLineAligned) {
  // The persistent fusion scratch packs gradient buckets for the allreduce
  // pack/unpack memcpy loops; it must share the numeric buffers' 64-byte
  // alignment, including across monotonic growth steps.
  hvd::FusionBuffer buffer;
  for (std::size_t elems : {1u, 17u, 1024u, 4099u}) {
    EXPECT_TRUE(is_cacheline_aligned(buffer.acquire(elems).data()))
        << "elems=" << elems;
  }
  EXPECT_TRUE(is_cacheline_aligned(buffer.data()));
}

// ---------------------------------------------------------------------------
// Threaded-vs-serial equivalence of the wired hot paths. Each case runs
// the kernel at 1 thread and at 4 threads and requires bit-identical
// output buffers (the GEMM tile schedule and all elementwise updates
// perform the same fp ops in the same per-element order regardless of the
// thread count).
// ---------------------------------------------------------------------------

TEST(ThreadedEquivalence, GemmMatchesSerialBitExact) {
  Rng rng(31);
  // The PR 2 golden edge-tile shapes: straddle MR/NR/MC/KC boundaries.
  const std::size_t ms[] = {1, kGemmMR - 1, kGemmMR + 1, kGemmMC + 5};
  const std::size_t ns[] = {1, kGemmNR - 1, 3 * kGemmNR + 1};
  const std::size_t ks[] = {7, kGemmKC + 44};
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (std::size_t m : ms) {
        for (std::size_t n : ns) {
          for (std::size_t k : ks) {
            const Tensor a = ta ? random_tensor({k, m}, rng)
                                : random_tensor({m, k}, rng);
            const Tensor b = tb ? random_tensor({n, k}, rng)
                                : random_tensor({k, n}, rng);
            Epilogue ep;
            ep.op = EpilogueOp::kRelu;
            Tensor serial, threaded;
            {
              ThreadCountGuard guard(1);
              serial = gemm(ta, tb, a, b, ep);
            }
            {
              ThreadCountGuard guard(4);
              threaded = gemm(ta, tb, a, b, ep);
            }
            ASSERT_EQ(serial.shape(), threaded.shape());
            ASSERT_EQ(0, std::memcmp(serial.data(), threaded.data(),
                                     serial.numel() * sizeof(float)))
                << "ta=" << ta << " tb=" << tb << " m=" << m << " n=" << n
                << " k=" << k;
          }
        }
      }
    }
  }
}

TEST(ThreadedEquivalence, Conv1dForwardBackwardMatchSerialBitExact) {
  Rng rng(37);
  const Tensor x = random_tensor({3, 257, 4}, rng);
  const Tensor w = random_tensor({9, 4, 16}, rng);
  const Tensor b = random_tensor({16}, rng);
  Tensor y1, y4;
  Tensor dx1(x.shape()), dw1(w.shape()), db1(b.shape());
  Tensor dx4(x.shape()), dw4(w.shape()), db4(b.shape());
  {
    ThreadCountGuard guard(1);
    Conv1dWorkspace ws;
    y1 = conv1d_forward(x, w, b, 2, &ws, EpilogueOp::kRelu);
    const Tensor dy(y1.shape(), 1.0f);
    conv1d_backward(x, w, dy, 2, dx1, dw1, db1, &ws);
  }
  {
    ThreadCountGuard guard(4);
    Conv1dWorkspace ws;
    y4 = conv1d_forward(x, w, b, 2, &ws, EpilogueOp::kRelu);
    const Tensor dy(y4.shape(), 1.0f);
    conv1d_backward(x, w, dy, 2, dx4, dw4, db4, &ws);
  }
  expect_bit_identical(y4, y1, "conv1d forward");
  expect_bit_identical(dx4, dx1, "conv1d dx");
  expect_bit_identical(dw4, dw1, "conv1d dw");
  expect_bit_identical(db4, db1, "conv1d dbias");
}

TEST(ThreadedEquivalence, InplaceOpsMatchSerialBitExact) {
  Rng rng(41);
  const Tensor x = random_tensor({97, 193}, rng);
  for (auto* op : {&relu_inplace, &sigmoid_inplace, &tanh_inplace,
                   &softmax_rows_inplace}) {
    Tensor serial = x, threaded = x;
    {
      ThreadCountGuard guard(1);
      (*op)(serial);
    }
    {
      ThreadCountGuard guard(4);
      (*op)(threaded);
    }
    expect_bit_identical(threaded, serial, "inplace op");
  }
}

TEST(ThreadedEquivalence, OptimizersMatchSerialBitExact) {
  for (const char* name : {"sgd", "adam", "rmsprop"}) {
    Rng rng(43);
    Tensor w_serial = random_tensor({123, 77}, rng);
    Tensor w_threaded = w_serial;
    Tensor g0 = random_tensor({123, 77}, rng);
    Tensor g1 = random_tensor({123, 77}, rng);
    {
      ThreadCountGuard guard(1);
      auto opt = nn::make_optimizer(name, 0.01);
      for (Tensor* g : {&g0, &g1}) opt->apply({&w_serial}, {g});
    }
    {
      ThreadCountGuard guard(4);
      auto opt = nn::make_optimizer(name, 0.01);
      for (Tensor* g : {&g0, &g1}) opt->apply({&w_threaded}, {g});
    }
    expect_bit_identical(w_threaded, w_serial, name);
  }
}

// ---------------------------------------------------------------------------
// read_csv_parallel: exact frame equality with the chunked reader
// ---------------------------------------------------------------------------

std::string temp_csv_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(ParallelCsv, ExactlyFrameEqualToChunkedReader) {
  const std::string path = temp_csv_path("test_parallel_eq.csv");
  candle::io::write_synthetic_csv(path, {200, 133, false}, 1234);
  const candle::io::DataFrame chunked = candle::io::read_csv_chunked(path);
  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadCountGuard guard(threads);
    candle::io::CsvReadStats stats;
    const candle::io::DataFrame par =
        candle::io::read_csv_parallel(path, &stats);
    ASSERT_EQ(chunked.rows, par.rows) << threads;
    ASSERT_EQ(chunked.cols, par.cols) << threads;
    ASSERT_EQ(0, std::memcmp(chunked.data.data(), par.data.data(),
                             chunked.data.size() * sizeof(float)))
        << "threads=" << threads;
    EXPECT_EQ(par.rows, stats.rows);
    EXPECT_EQ(par.cols, stats.cols);
    EXPECT_EQ(0u, stats.piece_allocs);
  }
  std::filesystem::remove(path);
}

TEST(ParallelCsv, SmallBlocksManyThreadsStillExact) {
  // Blocks far smaller than the file force many phase-1 blocks whose
  // newline lists must concatenate back in file order.
  ThreadCountGuard guard(4);
  const std::string path = temp_csv_path("test_parallel_blocks.csv");
  candle::io::write_synthetic_csv(path, {500, 23, false}, 99);
  const candle::io::DataFrame chunked = candle::io::read_csv_chunked(path);
  candle::io::CsvReadStats stats;
  const candle::io::DataFrame par =
      candle::io::read_csv_parallel(path, &stats, 4096);
  ASSERT_EQ(chunked.rows, par.rows);
  ASSERT_EQ(chunked.cols, par.cols);
  ASSERT_EQ(0, std::memcmp(chunked.data.data(), par.data.data(),
                           chunked.data.size() * sizeof(float)));
  EXPECT_GT(stats.chunks, 1u);
  std::filesystem::remove(path);
}

TEST(ParallelCsv, HandlesCrlfBlankLinesAndMissingFinalNewline) {
  ThreadCountGuard guard(4);
  const std::string path = temp_csv_path("test_parallel_quirks.csv");
  {
    std::ofstream out(path, std::ios::binary);
    out << "1,2,3\r\n"
        << "\n"
        << "4,5,6\n"
        << "\r\n"
        << "7.5,-8e2,9";  // no trailing newline
  }
  const candle::io::DataFrame chunked = candle::io::read_csv_chunked(path);
  const candle::io::DataFrame par = candle::io::read_csv_parallel(path);
  ASSERT_EQ(3u, par.rows);
  ASSERT_EQ(3u, par.cols);
  ASSERT_EQ(chunked.rows, par.rows);
  ASSERT_EQ(0, std::memcmp(chunked.data.data(), par.data.data(),
                           chunked.data.size() * sizeof(float)));
  EXPECT_FLOAT_EQ(7.5f, par.at(2, 0));
  EXPECT_FLOAT_EQ(-800.0f, par.at(2, 1));
  std::filesystem::remove(path);
}

TEST(ParallelCsv, RaggedRowThrowsIoError) {
  ThreadCountGuard guard(4);
  const std::string path = temp_csv_path("test_parallel_ragged.csv");
  {
    std::ofstream out(path, std::ios::binary);
    out << "1,2,3\n1,2\n1,2,3\n";
  }
  EXPECT_THROW((void)candle::io::read_csv_parallel(path), IoError);
  std::filesystem::remove(path);
}

TEST(ParallelCsv, DispatchesThroughLoaderKind) {
  ThreadCountGuard guard(2);
  const std::string path = temp_csv_path("test_parallel_kind.csv");
  candle::io::write_synthetic_csv(path, {32, 8, false}, 5);
  const candle::io::DataFrame direct = candle::io::read_csv_parallel(path);
  const candle::io::DataFrame via_kind =
      candle::io::read_csv(path, candle::io::LoaderKind::kParallel);
  ASSERT_EQ(direct.rows, via_kind.rows);
  ASSERT_EQ(0, std::memcmp(direct.data.data(), via_kind.data.data(),
                           direct.data.size() * sizeof(float)));
  EXPECT_FALSE(
      candle::io::loader_name(candle::io::LoaderKind::kParallel).empty());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace candle
