// Micro-benchmarks (google-benchmark) of the four CSV readers across file
// geometries — the kernel-level view of Tables 3/4. BM_ReadChunkedShard
// is one rank's share of a strided (row-sharded) chunked read at world
// 1/2/4. BM_ReadParallel sweeps the candle::parallel pool width (third
// arg: 1/2/4 threads, 0 = default) and feeds the committed
// BENCH_parallel.json:
//   CANDLE_NUM_THREADS=4 build/bench/bench_micro_csv
//     --benchmark_filter=Parallel --benchmark_out=BENCH_parallel_csv.json
//     --benchmark_out_format=json
// CI runs every reader's rows with --benchmark_filter=Read (non-gating).
#include <benchmark/benchmark.h>

#include <filesystem>

#include "common/parallel.h"
#include "io/csv_reader.h"
#include "io/synthetic.h"

namespace {

using candle::io::FileGeometry;

std::string make_file(std::size_t rows, std::size_t cols) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("micro_csv_" + std::to_string(rows) + "x" + std::to_string(cols) +
        ".csv"))
          .string();
  if (!std::filesystem::exists(path))
    candle::io::write_synthetic_csv(path, FileGeometry{rows, cols, false},
                                    rows * 31 + cols);
  return path;
}

void BM_ReadOriginal(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto cols = static_cast<std::size_t>(state.range(1));
  const std::string path = make_file(rows, cols);
  std::size_t bytes = 0;
  for (auto _ : state) {
    candle::io::CsvReadStats stats;
    benchmark::DoNotOptimize(candle::io::read_csv_original(path, &stats));
    bytes = stats.bytes;
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) *
                          static_cast<int64_t>(state.iterations()));
}

void BM_ReadChunked(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto cols = static_cast<std::size_t>(state.range(1));
  const std::string path = make_file(rows, cols);
  std::size_t bytes = 0;
  for (auto _ : state) {
    candle::io::CsvReadStats stats;
    benchmark::DoNotOptimize(candle::io::read_csv_chunked(path, &stats));
    bytes = stats.bytes;
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) *
                          static_cast<int64_t>(state.iterations()));
}

// One rank's strided read_csv_chunked (third arg: world; the rank is 0):
// every rank still streams the whole file but tokenizes only its rows, so
// the per-rank cost falls about as 1/world.
void BM_ReadChunkedShard(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto cols = static_cast<std::size_t>(state.range(1));
  const auto world = static_cast<std::size_t>(state.range(2));
  const std::string path = make_file(rows, cols);
  std::size_t bytes = 0;
  for (auto _ : state) {
    candle::io::CsvReadStats stats;
    benchmark::DoNotOptimize(candle::io::read_csv_chunked(
        path, &stats, candle::io::kChunkBytes, 0, world));
    bytes = stats.bytes;
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) *
                          static_cast<int64_t>(state.iterations()));
}

void BM_ReadDask(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto cols = static_cast<std::size_t>(state.range(1));
  const std::string path = make_file(rows, cols);
  std::size_t bytes = 0;
  for (auto _ : state) {
    candle::io::CsvReadStats stats;
    benchmark::DoNotOptimize(candle::io::read_csv_dask(path, &stats));
    bytes = stats.bytes;
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) *
                          static_cast<int64_t>(state.iterations()));
}

void BM_ReadParallel(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto cols = static_cast<std::size_t>(state.range(1));
  // Pool width for this run; 0 keeps the CANDLE_NUM_THREADS / hardware
  // default. Restored below so later benchmarks see the default again.
  const std::size_t default_width = candle::parallel::num_threads();
  if (state.range(2) != 0)
    candle::parallel::set_num_threads(
        static_cast<std::size_t>(state.range(2)));
  const std::string path = make_file(rows, cols);
  std::size_t bytes = 0;
  for (auto _ : state) {
    candle::io::CsvReadStats stats;
    benchmark::DoNotOptimize(candle::io::read_csv_parallel(path, &stats));
    bytes = stats.bytes;
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) *
                          static_cast<int64_t>(state.iterations()));
  candle::parallel::set_num_threads(default_width);
}

// Wide (NT3-like) and narrow (P1B3-like) geometries of ~2 MB each.
#define CSV_GEOMETRIES()                 \
  Args({24, 10000})->Args({2400, 100})  \
      ->Unit(benchmark::kMillisecond)->MinTime(0.4)

BENCHMARK(BM_ReadOriginal)->CSV_GEOMETRIES();
BENCHMARK(BM_ReadChunked)->CSV_GEOMETRIES();
BENCHMARK(BM_ReadChunkedShard)
    ->Args({24, 10000, 1})->Args({24, 10000, 2})->Args({24, 10000, 4})
    ->Unit(benchmark::kMillisecond)->MinTime(0.4);
BENCHMARK(BM_ReadDask)->CSV_GEOMETRIES();
// Thread sweep on the wide NT3-like geometry plus the default width on the
// narrow one.
// Wall time, not main-thread CPU time: the parsing runs on pool workers.
BENCHMARK(BM_ReadParallel)
    ->Args({24, 10000, 1})->Args({24, 10000, 2})->Args({24, 10000, 4})
    ->Args({24, 10000, 0})->Args({2400, 100, 0})
    ->Unit(benchmark::kMillisecond)->MinTime(0.4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
