// Reproduces Table 3: data-loading time by method — pandas.read_csv
// defaults vs chunked low_memory=False (and the Dask middle ground).
//
// This is a REAL measurement: synthetic CSVs with each benchmark's on-disk
// geometry (column count preserved, file size scaled by --scale) are parsed
// by the actual reader implementations. The paper's key shape must hold:
// large speedups for the wide files (NT3/P1B1/P1B2), almost none for the
// narrow P1B3.
//
// Beyond the paper, the threaded reader (read_csv_parallel) is measured in
// the same table; --threads pins the candle::parallel pool width (0 keeps
// the CANDLE_NUM_THREADS / hardware default). Two further columns measure
// the binary-cache follow-on: a warm mmap cache load of the full frame, and
// rank 0's sharded load at world size 4 — whose touched bytes are ~1/4 of
// the payload (the per-rank I/O cut the cache enables at scale).
//
//   bench_table3_dataloading_summit [--scale 0.03] [--dask] [--threads N]
#include <filesystem>

#include "common/parallel.h"
#include "harness.h"
#include "io/binary_cache.h"
#include "io/synthetic.h"

namespace {

struct FileSpec {
  const char* benchmark;
  const char* split;
  std::size_t full_bytes;
  std::size_t cols;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace candle;
  Cli cli;
  cli.flag("scale", "file size scale vs the paper (1.0 = full size)", "0.03")
      .bool_flag("dask", "also measure the dask-style reader")
      .flag("threads", "pool width for the parallel reader (0 = default)",
            "0")
      .flag("workdir", "scratch directory", "/tmp");
  cli.parse(argc, argv);
  if (cli.help_requested()) return 0;
  const double scale = cli.get_double("scale");
  const bool with_dask = cli.get_bool("dask");
  const auto threads = static_cast<std::size_t>(cli.get_int("threads"));
  if (threads != 0) parallel::set_num_threads(threads);

  // Geometry from Table 1: bytes and column counts; row counts follow from
  // the ~9.2 bytes/cell CSV density (a documented substitution — the
  // paper's own row/column/byte numbers are not mutually consistent for
  // P1B3, so file size + column count are preserved).
  const std::vector<FileSpec> files{
      {"NT3", "Training", 597u << 20, 60483},
      {"NT3", "Testing", 150u << 20, 60483},
      {"P1B1", "Training", 771u << 20, 60484},
      {"P1B1", "Testing", 258u << 20, 60484},
      {"P1B2", "Training", 162u << 20, 28204},
      {"P1B2", "Testing", 55u << 20, 28204},
      {"P1B3", "Training", 318u << 20, 1000},
      {"P1B3", "Testing", 103u << 20, 1000},
  };

  std::printf("Table 3: data loading by method [REAL measurement, file "
              "sizes scaled by %.3f]\n\n", scale);
  std::vector<std::string> headers{"Benchmark", "File", "size",
                                   "original (s)", "chunked 16MB (s)",
                                   "speedup"};
  if (with_dask) headers.push_back("dask (s)");
  headers.push_back(strprintf("parallel x%zu (s)", parallel::num_threads()));
  headers.push_back("thread speedup");
  headers.push_back("cache (s)");
  headers.push_back("shard 1/4 (s)");
  headers.push_back("shard bytes/rank");
  Table t(headers);

  const std::string dir = cli.get("workdir") + "/candle_table3";
  std::filesystem::create_directories(dir);

  constexpr double kBytesPerCell = 9.2;  // "%.6g," density
  for (const auto& spec : files) {
    const double target_bytes = static_cast<double>(spec.full_bytes) * scale;
    const std::size_t rows = std::max<std::size_t>(
        4, static_cast<std::size_t>(
               target_bytes / (kBytesPerCell * static_cast<double>(spec.cols))));
    const std::string path = dir + "/" + spec.benchmark + "_" + spec.split +
                             ".csv";
    io::write_synthetic_csv(path, {rows, spec.cols, false},
                            static_cast<std::uint64_t>(rows));

    io::CsvReadStats orig, chunk, dask;
    (void)io::read_csv_original(path, &orig);
    (void)io::read_csv_chunked(path, &chunk);
    std::vector<std::string> cells{
        spec.benchmark, spec.split,
        format_bytes(static_cast<double>(orig.bytes)),
        strprintf("%.2f", orig.seconds), strprintf("%.2f", chunk.seconds),
        strprintf("%.2fx", orig.seconds / chunk.seconds)};
    if (with_dask) {
      (void)io::read_csv_dask(path, &dask);
      cells.push_back(strprintf("%.2f", dask.seconds));
    }
    io::CsvReadStats par;
    (void)io::read_csv_parallel(path, &par);
    cells.push_back(strprintf("%.2f", par.seconds));
    cells.push_back(strprintf("%.2fx", chunk.seconds / par.seconds));
    // Binary cache: the first cached read parses + publishes the cache
    // (cold, not tabulated — its parse is the chunked column); then a warm
    // full load and rank 0's 1-of-4 sharded load, both from the mmap image.
    io::CsvReadStats cold, warm, shard;
    (void)io::read_csv_cached(path, io::LoaderKind::kChunked, &cold);
    (void)io::read_csv_cached(path, io::LoaderKind::kChunked, &warm);
    (void)io::read_csv_cached(path, io::LoaderKind::kChunked, &shard,
                              /*rank=*/0, /*world=*/4);
    cells.push_back(strprintf("%.3f", warm.seconds));
    cells.push_back(strprintf("%.3f", shard.seconds));
    cells.push_back(format_bytes(static_cast<double>(shard.bytes)));
    t.add_row(std::move(cells));
    std::filesystem::remove(path);
    std::filesystem::remove(io::cache_path_for(path));
  }
  t.print();
  std::filesystem::remove_all(dir);

  std::printf(
      "\nPaper (full-size files on Summit): NT3 81.72 -> 14.30 s (5.7x), "
      "P1B1 235.68 -> 30.99 s (7.6x),\nP1B2 40.98 -> 11.03 s (3.7x), "
      "P1B3 5.41 -> 5.34 s (1.0x). The wide-vs-narrow shape must match.\n");
  return 0;
}
