// Tests for the input pipeline PR: the mmap'ed binary frame cache
// (io/mapped_frame + the v2 fingerprinted cache format), per-rank sharded
// cache loads, the parallel non-allocating gather/take overloads, the
// double-buffered BatchPipeline with its bit-exact prefetch contract in
// Model::fit, the simulator's hidden-input credit, and the runner's
// cached/sharded/prefetched end-to-end path.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "candle/models.h"
#include "candle/runner.h"
#include "comm/communicator.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "hvd/broadcast.h"
#include "hvd/context.h"
#include "hvd/distributed_optimizer.h"
#include "hvd/fusion.h"
#include "io/binary_cache.h"
#include "io/csv_reader.h"
#include "io/mapped_frame.h"
#include "io/synthetic.h"
#include "nn/batch_pipeline.h"
#include "nn/callbacks.h"
#include "nn/dataset.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "sim/calibration.h"
#include "sim/machine.h"
#include "sim/run_sim.h"
#include "trace/timeline.h"

namespace candle {
namespace {

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("candle_pipeline_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  void write_file(const std::string& name, const std::string& content) {
    std::ofstream out(path(name), std::ios::binary);
    out << content;
  }

  std::filesystem::path dir_;
};

using MappedFrameTest = TempDir;
using CacheFingerprintTest = TempDir;
using ShardedReadTest = TempDir;
using RunnerPipelineTest = TempDir;

/// Restores the ambient pool width when a test scope ends.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t n)
      : saved_(parallel::num_threads()) {
    parallel::set_num_threads(n);
  }
  ~ThreadCountGuard() { parallel::set_num_threads(saved_); }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  std::size_t saved_;
};

void expect_frames_equal(const io::DataFrame& a, const io::DataFrame& b) {
  ASSERT_EQ(a.rows, b.rows);
  ASSERT_EQ(a.cols, b.cols);
  ASSERT_EQ(a.data.size(), b.data.size());
  ASSERT_EQ(0, std::memcmp(a.data.data(), b.data.data(),
                           a.data.size() * sizeof(float)));
}

void expect_tensors_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(0,
            std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)));
}

// ---------------------------------------------------------------------------
// MappedFrame: zero-copy reads of the v2 cache
// ---------------------------------------------------------------------------

TEST_F(MappedFrameTest, MatchesHeapLoadAndIsAligned) {
  io::write_synthetic_csv(path("m.csv"), {33, 9, false}, 11);
  const io::DataFrame heap = io::read_csv_cached(path("m.csv"));  // parsed
  expect_frames_equal(io::read_csv_cached(path("m.csv")), heap);  // mapped
  const std::string cache = io::cache_path_for(path("m.csv"));

  const io::MappedFrame mapped(cache);
  ASSERT_EQ(mapped.rows(), heap.rows);
  ASSERT_EQ(mapped.cols(), heap.cols);
  EXPECT_EQ(mapped.payload_bytes(), heap.data.size() * sizeof(float));
  // The 64-byte payload offset makes the mapped payload as aligned as a
  // Tensor allocation (mmap returns page-aligned memory).
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(mapped.payload()) % 64, 0u);
  for (std::size_t r = 0; r < mapped.rows(); ++r) {
    const std::span<const float> row = mapped.row(r);
    ASSERT_EQ(row.size(), mapped.cols());
    ASSERT_EQ(0, std::memcmp(row.data(), heap.data.data() + r * heap.cols,
                             heap.cols * sizeof(float)))
        << "row " << r;
  }
  expect_frames_equal(mapped.to_frame(), heap);
  EXPECT_THROW((void)mapped.row(mapped.rows()), InvalidArgument);
}

TEST_F(MappedFrameTest, CorruptionAndTruncationThrow) {
  EXPECT_THROW(io::MappedFrame(path("missing.bin")), IoError);

  // Shorter than one header.
  write_file("short.bin", "CFR2 garbage");
  EXPECT_THROW(io::MappedFrame(path("short.bin")), IoError);

  // Old v1 magic, plausible length.
  std::string v1(256, '\0');
  v1.replace(0, 4, "CFR1");
  write_file("v1.bin", v1);
  EXPECT_THROW(io::MappedFrame(path("v1.bin")), IoError);

  // A valid cache truncated mid-payload: the mapped reader rejects it up
  // front, so a cached read, sharded or not, treats it as a miss: it
  // re-parses the CSV and republishes a whole image.
  io::write_synthetic_csv(path("t.csv"), {20, 6, false}, 1);
  (void)io::read_csv_cached(path("t.csv"));
  const std::string cache = io::cache_path_for(path("t.csv"));
  const auto full = std::filesystem::file_size(cache);
  std::filesystem::resize_file(cache, full - 5);
  EXPECT_THROW((void)io::MappedFrame{cache}, IoError);
  io::CsvReadStats rebuilt;
  const io::DataFrame shard = io::read_csv_cached(
      path("t.csv"), io::LoaderKind::kChunked, &rebuilt, 1, 2);
  EXPECT_GT(rebuilt.chunks, 0u);
  EXPECT_EQ(shard.rows, 10u);
  EXPECT_EQ(std::filesystem::file_size(cache), full);
  EXPECT_EQ(io::MappedFrame{cache}.rows(), 20u);

  // Trailing bytes after the payload.
  io::write_synthetic_csv(path("u.csv"), {20, 6, false}, 2);
  (void)io::read_csv_cached(path("u.csv"));
  const std::string padded = io::cache_path_for(path("u.csv"));
  std::ofstream(padded, std::ios::binary | std::ios::app) << "tail";
  EXPECT_THROW((void)io::MappedFrame{padded}, IoError);

  // A hostile 64-byte header: rows = 2^62 and cols = 1 make the payload
  // size rows * cols * 4 wrap to 0, which matches the empty payload.
  io::FrameCacheHeader h{};
  std::memcpy(h.magic, io::kFrameCacheMagic, sizeof(h.magic));
  h.payload_offset = io::kFrameCachePayloadOffset;
  h.rows = std::uint64_t{1} << 62;
  h.cols = 1;
  std::string hostile(io::kFrameCachePayloadOffset, '\0');
  std::memcpy(hostile.data(), &h, sizeof(h));
  write_file("hostile.bin", hostile);
  EXPECT_THROW(io::MappedFrame(path("hostile.bin")), IoError);
}

TEST_F(MappedFrameTest, LoadFrameRowsCopiesSubsetsAndCountsTouchedBytes) {
  // 25 rows: rank 1 of 3 owns rows 1, 4, ..., 22 (8 rows, no tail row);
  // rank 0 owns 0, 3, ..., 24 (9 rows, with the tail row 24).
  io::write_synthetic_csv(path("r.csv"), {25, 8, false}, 3);
  const io::DataFrame full = io::read_csv_cached(path("r.csv"));
  const std::string cache = io::cache_path_for(path("r.csv"));
  const io::MappedFrame mapped(cache);

  for (std::size_t rank : {0u, 1u}) {
    SCOPED_TRACE("rank " + std::to_string(rank));
    std::vector<std::size_t> rows;
    for (std::size_t r = rank; r < full.rows; r += 3) rows.push_back(r);

    // The row copy out of the mapped payload, and the warm cached read
    // built on it, both hold exactly the owned rows.
    const io::DataFrame copied = io::copy_shard(
        mapped.payload(), mapped.rows(), mapped.cols(), rank, 3);
    io::CsvReadStats stats;
    const io::DataFrame picked = io::read_csv_cached(
        path("r.csv"), io::LoaderKind::kChunked, &stats, rank, 3);
    expect_frames_equal(picked, copied);
    ASSERT_EQ(picked.rows, rows.size());
    ASSERT_EQ(picked.cols, full.cols);
    for (std::size_t i = 0; i < rows.size(); ++i)
      ASSERT_EQ(0, std::memcmp(picked.data.data() + i * picked.cols,
                               full.data.data() + rows[i] * full.cols,
                               full.cols * sizeof(float)))
          << "picked row " << i;

    EXPECT_EQ(stats.rows, rows.size());
    EXPECT_EQ(stats.bytes, io::kFrameCachePayloadOffset +
                               rows.size() * full.cols * sizeof(float));
    EXPECT_LT(stats.bytes, std::filesystem::file_size(cache));
    EXPECT_EQ(stats.chunks, 0u);  // no parsing happened
  }

  EXPECT_THROW((void)mapped.row(25), InvalidArgument);
  EXPECT_THROW((void)io::copy_shard(mapped.payload(), mapped.rows(),
                                    mapped.cols(), 3, 3),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Cache v2: content fingerprint + old-format rejection
// ---------------------------------------------------------------------------

TEST_F(CacheFingerprintTest, OldMagicV1CacheIsMissAndRebuilt) {
  io::write_synthetic_csv(path("v.csv"), {10, 4, false}, 2);
  const std::string cache = io::cache_path_for(path("v.csv"));
  std::string v1(256, '\0');
  v1.replace(0, 4, "CFR1");
  write_file("v.csv.bin", v1);
  EXPECT_THROW((void)io::MappedFrame{cache}, IoError);

  io::CsvReadStats miss;
  const io::DataFrame df =
      io::read_csv_cached(path("v.csv"), io::LoaderKind::kChunked, &miss);
  EXPECT_GT(miss.chunks, 0u);  // the v1 image did not count as a hit
  EXPECT_EQ(df.rows, 10u);
  EXPECT_NO_THROW((void)io::MappedFrame{cache});  // rebuilt as v2

  io::CsvReadStats hit;
  (void)io::read_csv_cached(path("v.csv"), io::LoaderKind::kChunked, &hit);
  EXPECT_EQ(hit.chunks, 0u);
}

TEST_F(CacheFingerprintTest, SameSizeContentChangeInvalidatesCache) {
  write_file("c.csv", "1,2\n3,4\n");
  io::CsvReadStats s0;
  (void)io::read_csv_cached(path("c.csv"), io::LoaderKind::kChunked, &s0);
  EXPECT_GT(s0.chunks, 0u);

  // Rewrite with identical byte length and restore the mtime: only the
  // content hash can catch this change.
  const auto mtime = std::filesystem::last_write_time(path("c.csv"));
  write_file("c.csv", "5,6\n7,8\n");
  std::filesystem::last_write_time(path("c.csv"), mtime);

  io::CsvReadStats s1;
  const io::DataFrame df =
      io::read_csv_cached(path("c.csv"), io::LoaderKind::kChunked, &s1);
  EXPECT_GT(s1.chunks, 0u) << "stale cache served despite content change";
  EXPECT_FLOAT_EQ(df.at(0, 0), 5.0f);
}

TEST_F(CacheFingerprintTest, RewritingIdenticalContentStaysWarm) {
  io::write_synthetic_csv(path("w.csv"), {12, 5, false}, 4);
  (void)io::read_csv_cached(path("w.csv"));
  // The benchmark harness regenerates its CSVs every run; identical bytes
  // with a new mtime must still hit.
  io::write_synthetic_csv(path("w.csv"), {12, 5, false}, 4);
  io::CsvReadStats stats;
  (void)io::read_csv_cached(path("w.csv"), io::LoaderKind::kChunked, &stats);
  EXPECT_EQ(stats.chunks, 0u);
}

TEST_F(CacheFingerprintTest, FingerprintMissingFileThrows) {
  EXPECT_THROW((void)io::fingerprint_source(path("missing.csv")), IoError);
}

// ---------------------------------------------------------------------------
// Sharded cached reads: rank r of P touches ~1/P of the payload
// ---------------------------------------------------------------------------

TEST_F(ShardedReadTest, ShardsEqualGatherOfFullFrameColdAndWarm) {
  // 42 rows: no tail at world 1 and 2, two tail rows (ranks 0 and 1) at 4.
  io::write_synthetic_csv(path("s.csv"), {42, 7, false}, 9);
  const io::DataFrame full = io::read_csv_chunked(path("s.csv"));
  const std::string cache = io::cache_path_for(path("s.csv"));

  for (std::size_t world : {1u, 2u, 4u}) {
    SCOPED_TRACE("world=" + std::to_string(world));
    for (int pass = 0; pass < 2; ++pass) {  // pass 0 cold, pass 1 warm
      if (pass == 0) std::filesystem::remove(cache);
      for (std::size_t rank = 0; rank < world; ++rank) {
        // Rows rank, rank + world, ...: the equal shard plus the tail row.
        const std::size_t owned = (full.rows - rank + world - 1) / world;
        io::CsvReadStats stats;
        const io::DataFrame mine = io::read_csv_cached(
            path("s.csv"), io::LoaderKind::kChunked, &stats, rank, world);
        ASSERT_EQ(mine.rows, owned);
        ASSERT_EQ(mine.cols, full.cols);
        for (std::size_t i = 0; i < owned; ++i)
          ASSERT_EQ(0,
                    std::memcmp(mine.data.data() + i * mine.cols,
                                full.data.data() +
                                    (i * world + rank) * full.cols,
                                full.cols * sizeof(float)))
              << "pass " << pass << " rank " << rank << " row " << i;
        EXPECT_EQ(stats.rows, owned);
        EXPECT_EQ(stats.file_rows, full.rows);
        if (pass == 1) {
          // Warm: no parsing, and the bytes touched are the header plus
          // the rank's rows only: ~1/world of the image.
          EXPECT_EQ(stats.chunks, 0u);
          EXPECT_EQ(stats.bytes, io::kFrameCachePayloadOffset +
                                     owned * full.cols * sizeof(float));
          if (world > 1) {
            EXPECT_LT(stats.bytes, std::filesystem::file_size(cache));
          }
        }
      }
    }
  }

  EXPECT_THROW((void)io::read_csv_cached(path("s.csv"), io::LoaderKind::kChunked,
                                         nullptr, 2, 2),
               InvalidArgument);
  EXPECT_THROW((void)io::read_csv_cached(path("s.csv"), io::LoaderKind::kChunked,
                                         nullptr, 0, 0),
               InvalidArgument);
  EXPECT_THROW((void)io::read_csv_cached(path("s.csv"), io::LoaderKind::kChunked,
                                         nullptr, 0, 43),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Non-allocating gather/take overloads (parallel, bit-identical)
// ---------------------------------------------------------------------------

TEST(GatherDest, MatchesReferenceAcrossThreadCounts) {
  Rng rng(4);
  Tensor t2({37, 19});
  for (float& v : t2.values()) v = static_cast<float>(rng.normal());
  Tensor t3({21, 5, 3});
  for (float& v : t3.values()) v = static_cast<float>(rng.normal());

  std::vector<std::size_t> idx{0, 36, 5, 5, 17, 2, 36, 11};
  // Reference computed with a plain scalar loop, independent of the
  // implementation under test.
  Tensor ref2({idx.size(), 19});
  for (std::size_t i = 0; i < idx.size(); ++i)
    for (std::size_t j = 0; j < 19; ++j)
      ref2[i * 19 + j] = t2[idx[i] * 19 + j];
  Tensor ref3({9, 5, 3});
  for (std::size_t i = 0; i < 9; ++i)
    for (std::size_t j = 0; j < 15; ++j)
      ref3[i * 15 + j] = t3[(i + 4) * 15 + j];

  for (std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadCountGuard guard(threads);
    Tensor out2({idx.size(), 19});
    nn::gather_rows(t2, idx, out2);
    expect_tensors_equal(out2, ref2);
    expect_tensors_equal(nn::gather_rows(t2, idx), ref2);

    Tensor out3({9, 5, 3});
    nn::take_rows(t3, 4, 9, out3);
    expect_tensors_equal(out3, ref3);
    expect_tensors_equal(nn::take_rows(t3, 4, 9), ref3);
  }
}

TEST(GatherDest, ShapeAndBoundsViolationsThrow) {
  const Tensor t({10, 4});
  Tensor wrong({3, 5});
  const std::vector<std::size_t> idx{1, 2, 3};
  EXPECT_THROW(nn::gather_rows(t, idx, wrong), InvalidArgument);
  EXPECT_THROW(nn::take_rows(t, 0, 3, wrong), InvalidArgument);
  Tensor out({3, 4});
  const std::vector<std::size_t> oob{1, 10, 3};
  EXPECT_THROW(nn::gather_rows(t, oob, out), InvalidArgument);
  EXPECT_THROW(nn::take_rows(t, 8, 3, out), InvalidArgument);
}

// ---------------------------------------------------------------------------
// BatchPipeline mechanics
// ---------------------------------------------------------------------------

nn::Dataset make_toy_data(std::size_t n, std::size_t features,
                          std::size_t classes, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x({n, features});
  for (float& v : x.values()) v = static_cast<float>(rng.normal());
  std::vector<std::size_t> labels(n);
  for (auto& l : labels) l = rng.uniform_index(classes);
  return nn::Dataset{std::move(x), nn::one_hot(labels, classes)};
}

TEST(BatchPipelineTest, BatchesPerEpochBoundaries) {
  using nn::BatchPipeline;
  EXPECT_EQ(BatchPipeline::batches_per_epoch(10, 4, false), 3u);
  EXPECT_EQ(BatchPipeline::batches_per_epoch(10, 4, true), 2u);
  EXPECT_EQ(BatchPipeline::batches_per_epoch(8, 4, false), 2u);
  EXPECT_EQ(BatchPipeline::batches_per_epoch(8, 4, true), 2u);
  EXPECT_EQ(BatchPipeline::batches_per_epoch(3, 4, false), 1u);
  EXPECT_EQ(BatchPipeline::batches_per_epoch(3, 4, true), 0u);
  EXPECT_EQ(BatchPipeline::batches_per_epoch(1, 1, false), 1u);
  EXPECT_THROW((void)BatchPipeline::batches_per_epoch(8, 0, false),
               InvalidArgument);
}

TEST(BatchPipelineTest, SequentialEpochMatchesTakeRowsAndReusesSlots) {
  const nn::Dataset data = make_toy_data(12, 6, 3, 21);
  nn::PipelineOptions options;
  options.batch_size = 4;
  nn::BatchPipeline pipeline(data, options);

  std::set<const float*> slot_storage;
  for (int epoch = 0; epoch < 3; ++epoch) {
    pipeline.start_epoch({});
    std::size_t start = 0;
    std::size_t batches = 0;
    while (const nn::StagedBatch* batch = pipeline.acquire()) {
      expect_tensors_equal(batch->x, nn::take_rows(data.x, start, 4));
      expect_tensors_equal(batch->y, nn::take_rows(data.y, start, 4));
      slot_storage.insert(batch->x.data());
      start += 4;
      ++batches;
    }
    EXPECT_EQ(batches, 3u);
  }
  // Double buffering with zero steady-state allocations: every full-size
  // batch across all epochs lives in one of exactly two reusable slots.
  EXPECT_EQ(slot_storage.size(), 2u);
}

TEST(BatchPipelineTest, ShuffledEpochMatchesGatherRows) {
  const nn::Dataset data = make_toy_data(17, 5, 2, 8);
  nn::PipelineOptions options;
  options.batch_size = 5;
  nn::BatchPipeline pipeline(data, options);

  Rng rng(99);
  std::vector<std::size_t> order = nn::shuffled_index(17, rng);
  pipeline.start_epoch(order);
  std::size_t start = 0;
  while (const nn::StagedBatch* batch = pipeline.acquire()) {
    const std::size_t count = std::min<std::size_t>(5, 17 - start);
    const std::vector<std::size_t> idx(order.begin() + start,
                                       order.begin() + start + count);
    expect_tensors_equal(batch->x, nn::gather_rows(data.x, idx));
    expect_tensors_equal(batch->y, nn::gather_rows(data.y, idx));
    start += count;
  }
  EXPECT_EQ(start, 17u);
}

TEST(BatchPipelineTest, ProtocolViolationsThrow) {
  const nn::Dataset data = make_toy_data(12, 4, 2, 3);
  nn::PipelineOptions options;
  options.batch_size = 4;
  nn::BatchPipeline pipeline(data, options);

  EXPECT_THROW((void)pipeline.acquire(), InvalidArgument);
  pipeline.start_epoch({});
  ASSERT_NE(pipeline.acquire(), nullptr);
  // Restarting mid-epoch would corrupt the slot hand-off.
  EXPECT_THROW(pipeline.start_epoch({}), InvalidArgument);
  while (pipeline.acquire() != nullptr) {
  }
  pipeline.start_epoch({});  // fully drained: fine
  while (pipeline.acquire() != nullptr) {
  }

  nn::Dataset empty;
  EXPECT_THROW(nn::BatchPipeline(empty, options), InvalidArgument);
  std::vector<std::size_t> bad_order{1, 2, 3};
  EXPECT_THROW(pipeline.start_epoch(bad_order), InvalidArgument);
}

TEST(BatchPipelineTest, TimelineRecordsOneProduceAndStallPerBatch) {
  const nn::Dataset data = make_toy_data(20, 4, 2, 6);
  trace::Timeline timeline;
  Stopwatch clock;
  nn::PipelineOptions options;
  options.batch_size = 8;
  options.timeline = &timeline;
  options.clock = &clock;
  options.rank = 3;
  nn::BatchPipeline pipeline(data, options);
  for (int epoch = 0; epoch < 2; ++epoch) {
    pipeline.start_epoch({});
    while (pipeline.acquire() != nullptr) {
    }
  }
  // 3 batches/epoch x 2 epochs, all on the requested lane.
  EXPECT_EQ(timeline.count_events(trace::kPipelineProduce, 3), 6u);
  EXPECT_EQ(timeline.count_events(trace::kPipelineStall, 3), 6u);
  EXPECT_EQ(timeline.count_events(trace::kPipelineProduce, 0), 0u);
}

TEST(BatchPipelineStress, DestroyMidEpochJoinsCleanly) {
  // TSan-targeted: abandon epochs at every consumption depth, with the
  // producer possibly staging, parked, or blocked on a full buffer. The
  // destructor must shut the producer down and join without a hand-off
  // partner.
  const nn::Dataset data = make_toy_data(64, 8, 2, 5);
  Rng rng(31);
  for (int i = 0; i < 24; ++i) {
    nn::PipelineOptions options;
    options.batch_size = 8;
    nn::BatchPipeline pipeline(data, options);
    pipeline.start_epoch(nn::shuffled_index(64, rng));
    for (int k = 0; k < i % 8; ++k) ASSERT_NE(pipeline.acquire(), nullptr);
    // Destructor runs here, mid-epoch.
  }
}

// ---------------------------------------------------------------------------
// Bit-exact prefetched vs synchronous fit (the correctness bar)
// ---------------------------------------------------------------------------

struct FitOutcome {
  std::vector<std::vector<float>> weights;  // per-rank flattened params
  std::vector<float> losses;                // rank-0 per-epoch losses
  std::size_t epochs_run = 0;
};

FitOutcome run_benchmark_fit(BenchmarkId id, std::size_t ranks, bool prefetch,
                             std::size_t epochs = 2,
                             bool early_stop = false) {
  const ScaledGeometry geometry = scaled_geometry(id, 0.002);
  const BenchmarkData data = make_benchmark_data(id, geometry, /*seed=*/11);
  const std::size_t n = std::min<std::size_t>(64, data.train.size());
  const nn::Dataset train{nn::take_rows(data.train.x, 0, n),
                          nn::take_rows(data.train.y, 0, n)};
  FitOutcome out;
  out.weights.resize(ranks);
  comm::World::run(ranks, [&](comm::Communicator& c) {
    hvd::Context ctx(c);
    nn::Model model = build_model(id, geometry);
    hvd::FusionOptions fusion;
    fusion.threshold_bytes = 4 * 1024;
    auto opt = std::make_unique<hvd::DistributedOptimizer>(
        nn::make_optimizer(benchmark_optimizer(id), 0.01), ctx, fusion);
    model.compile({geometry.features}, std::move(opt),
                  nn::make_loss(benchmark_loss(id)),
                  /*seed=*/5 + c.rank());  // rank-distinct init

    hvd::BroadcastGlobalVariablesHook broadcast(ctx, 0);
    nn::EarlyStopping stopping(/*patience=*/0, /*min_delta=*/1e9);
    std::vector<nn::Callback*> callbacks{&broadcast};
    if (early_stop) callbacks.push_back(&stopping);

    nn::FitOptions fit;
    fit.epochs = epochs;
    fit.batch_size = 16;
    fit.shuffle = true;  // exercises the fit_rng_ draw-order contract
    fit.classification = benchmark_is_classification(id);
    fit.prefetch = prefetch;
    const nn::History history = model.fit(train, fit, callbacks);

    std::vector<float> flat;
    for (Tensor* p : model.parameters())
      flat.insert(flat.end(), p->data(), p->data() + p->numel());
    out.weights[c.rank()] = std::move(flat);
    if (c.rank() == 0) {
      for (const auto& e : history.epochs) out.losses.push_back(e.loss);
      out.epochs_run = history.epochs.size();
    }
  });
  return out;
}

void expect_bit_identical(const FitOutcome& a, const FitOutcome& b) {
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (std::size_t r = 0; r < a.weights.size(); ++r) {
    ASSERT_EQ(a.weights[r].size(), b.weights[r].size());
    ASSERT_EQ(0, std::memcmp(a.weights[r].data(), b.weights[r].data(),
                             a.weights[r].size() * sizeof(float)))
        << "rank " << r << ": prefetched weights differ from synchronous";
  }
  ASSERT_EQ(a.losses.size(), b.losses.size());
  for (std::size_t e = 0; e < a.losses.size(); ++e)
    ASSERT_EQ(a.losses[e], b.losses[e]) << "epoch " << e;
}

TEST(PrefetchEquivalence, BitExactOnMiniBenchmarksAcrossRanksAndThreads) {
  for (BenchmarkId id : {BenchmarkId::kNT3, BenchmarkId::kP1B1}) {
    for (std::size_t ranks : {1u, 2u, 4u}) {
      for (std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE(std::string(benchmark_name(id)) + " ranks=" +
                     std::to_string(ranks) + " threads=" +
                     std::to_string(threads));
        ThreadCountGuard guard(threads);
        const FitOutcome sync = run_benchmark_fit(id, ranks, false);
        const FitOutcome pre = run_benchmark_fit(id, ranks, true);
        expect_bit_identical(sync, pre);
      }
    }
  }
}

TEST(PrefetchEquivalence, EarlyStopStaysBitExact) {
  // EarlyStopping ends fit() between epochs; the shuffle order must keep
  // being drawn from fit_rng_ on the compute thread so the producer can
  // never desynchronize the RNG stream around the stop decision.
  const FitOutcome sync = run_benchmark_fit(BenchmarkId::kP1B1, 2, false,
                                            /*epochs=*/6,
                                            /*early_stop=*/true);
  const FitOutcome pre = run_benchmark_fit(BenchmarkId::kP1B1, 2, true,
                                           /*epochs=*/6,
                                           /*early_stop=*/true);
  EXPECT_LT(sync.epochs_run, 6u);  // the stop actually triggered
  EXPECT_EQ(sync.epochs_run, pre.epochs_run);
  expect_bit_identical(sync, pre);
}

TEST(PrefetchEquivalence, ValidationSplitAndDropRemainderMatch) {
  // Single-process: validation split + dropped tail + synthetic input
  // latency all flow through both paths identically.
  std::vector<float> reference;
  for (const bool prefetch : {false, true}) {
    const nn::Dataset data = make_toy_data(50, 12, 3, 77);
    nn::Model model;
    model.add<nn::Dense>(16, nn::Act::kRelu);
    model.add<nn::Dense>(3, nn::Act::kSoftmax);
    model.compile({12}, nn::make_optimizer("sgd", 0.05),
                  nn::make_loss("categorical_crossentropy"), /*seed=*/9);
    nn::FitOptions fit;
    fit.epochs = 3;
    fit.batch_size = 16;
    fit.validation_fraction = 0.25;
    fit.drop_remainder = true;
    fit.prefetch = prefetch;
    fit.sim_input_latency_s = 1e-4;
    const nn::History history = model.fit(data, fit);
    std::vector<float> flat;
    for (Tensor* p : model.parameters())
      flat.insert(flat.end(), p->data(), p->data() + p->numel());
    for (const auto& e : history.epochs) {
      flat.push_back(e.loss);
      flat.push_back(e.val_loss);
      flat.push_back(static_cast<float>(e.batch_steps));
    }
    if (!prefetch) {
      reference = flat;
    } else {
      ASSERT_EQ(reference.size(), flat.size());
      ASSERT_EQ(0, std::memcmp(reference.data(), flat.data(),
                               flat.size() * sizeof(float)));
    }
  }
}

TEST(PrefetchEquivalence, FitWiresTimelineEventsPerStep) {
  const nn::Dataset data = make_toy_data(50, 8, 2, 13);
  nn::Model model;
  model.add<nn::Dense>(8, nn::Act::kRelu);
  model.add<nn::Dense>(2, nn::Act::kSoftmax);
  model.compile({8}, nn::make_optimizer("sgd", 0.01),
                nn::make_loss("categorical_crossentropy"), /*seed=*/4);
  trace::Timeline timeline;
  Stopwatch clock;
  nn::FitOptions fit;
  fit.epochs = 3;
  fit.batch_size = 16;
  fit.prefetch = true;
  fit.timeline = &timeline;
  fit.timeline_clock = &clock;
  fit.timeline_rank = 1;
  const nn::History history = model.fit(data, fit);
  std::size_t steps = 0;
  for (const auto& e : history.epochs) steps += e.batch_steps;
  EXPECT_EQ(steps, 12u);  // 4 batches x 3 epochs
  EXPECT_EQ(timeline.count_events(trace::kPipelineProduce, 1), steps);
  EXPECT_EQ(timeline.count_events(trace::kPipelineStall, 1), steps);
}

// ---------------------------------------------------------------------------
// Simulator: hidden-input credit mirrors the comm-overlap credit
// ---------------------------------------------------------------------------

TEST(SimInputPipeline, CreditsHiddenInputAgainstStepTime) {
  const sim::RunSimulator simulator(sim::Machine::summit(),
                                    sim::BenchmarkProfile::nt3());
  sim::RunPlan stall;
  stall.ranks = 48;
  stall.epochs_per_rank = 2;
  stall.input_stage_frac = 0.3;
  sim::RunPlan piped = stall;
  piped.pipeline_input = true;
  const sim::SimResult a = simulator.simulate(stall);
  const sim::SimResult b = simulator.simulate(piped);

  EXPECT_GT(a.phases.train_input, 0.0);
  EXPECT_DOUBLE_EQ(a.phases.train_input_hidden, 0.0);
  // Staging cost below one step of compute hides entirely.
  EXPECT_DOUBLE_EQ(b.phases.train_input, 0.0);
  // Hidden + exposed == the un-pipelined staging time; compute unchanged.
  EXPECT_NEAR(b.phases.train_input + b.phases.train_input_hidden,
              a.phases.train_input, 1e-9);
  EXPECT_DOUBLE_EQ(a.phases.train_compute, b.phases.train_compute);
  EXPECT_LT(b.phases.total(), a.phases.total());
  EXPECT_LT(b.time_per_epoch, a.time_per_epoch);

  // The credit is capped at one full step of compute: staging slower than
  // the model stays exposed for the remainder.
  sim::RunPlan slow = piped;
  slow.input_stage_frac = 1.5;
  const sim::SimResult c = simulator.simulate(slow);
  const double steps = static_cast<double>(c.steps_per_epoch) *
                       static_cast<double>(slow.epochs_per_rank);
  const double step_c = simulator.step_compute_seconds(
      simulator.profile().default_batch);
  EXPECT_NEAR(c.phases.train_input_hidden, steps * step_c, 1e-9);
  EXPECT_NEAR(c.phases.train_input, steps * 0.5 * step_c, 1e-9);
}

TEST(SimInputPipeline, DefaultFracKeepsExistingPlansBitIdentical) {
  const sim::RunSimulator simulator(sim::Machine::summit(),
                                    sim::BenchmarkProfile::nt3());
  sim::RunPlan base;
  base.ranks = 24;
  base.epochs_per_rank = 2;
  base.overlap_comm = true;
  sim::RunPlan with_pipeline = base;
  with_pipeline.pipeline_input = true;  // no staging cost -> no-op
  const sim::SimResult a = simulator.simulate(base);
  const sim::SimResult b = simulator.simulate(with_pipeline);
  EXPECT_DOUBLE_EQ(a.phases.total(), b.phases.total());
  EXPECT_DOUBLE_EQ(a.phases.train_input, 0.0);
  EXPECT_DOUBLE_EQ(b.phases.train_input, 0.0);
  EXPECT_DOUBLE_EQ(b.phases.train_input_hidden, 0.0);
  EXPECT_DOUBLE_EQ(a.time_per_epoch, b.time_per_epoch);
  EXPECT_DOUBLE_EQ(a.avg_power_w, b.avg_power_w);
  EXPECT_DOUBLE_EQ(a.energy_per_rank_j, b.energy_per_rank_j);
}

TEST(SimInputPipeline, TimelineShowsStallExposedAndProduceHidden) {
  const sim::RunSimulator simulator(sim::Machine::summit(),
                                    sim::BenchmarkProfile::nt3());
  sim::RunPlan plan;
  plan.ranks = 4;
  plan.epochs_per_rank = 2;
  plan.input_stage_frac = 0.4;
  plan.make_timeline = true;
  const sim::SimResult stalled = simulator.simulate(plan);
  ASSERT_NE(stalled.timeline, nullptr);
  EXPECT_EQ(stalled.timeline->count_events(trace::kPipelineStall, 0), 2u);
  EXPECT_EQ(stalled.timeline->count_events(trace::kPipelineProduce, 0), 0u);

  plan.pipeline_input = true;
  const sim::SimResult piped = simulator.simulate(plan);
  ASSERT_NE(piped.timeline, nullptr);
  EXPECT_EQ(piped.timeline->count_events(trace::kPipelineStall, 0), 0u);
  EXPECT_EQ(piped.timeline->count_events(trace::kPipelineProduce, 0), 2u);
  EXPECT_LT(piped.timeline->span_end(), stalled.timeline->span_end());
}

// ---------------------------------------------------------------------------
// Runner end to end: cached + sharded + prefetched == baseline
// ---------------------------------------------------------------------------

TEST_F(RunnerPipelineTest, CachedShardedPrefetchedRunMatchesBaseline) {
  RealRunConfig base;
  base.benchmark = BenchmarkId::kNT3;
  base.ranks = 2;
  base.total_epochs = 4;
  base.level = sim::ParallelLevel::kBatchStep;
  base.scale = 0.002;
  base.workdir = dir_.string();

  RealRunConfig piped = base;
  piped.cached_loads = true;
  piped.prefetch = true;

  const RealRunResult a = run_real(base);
  const RealRunResult b = run_real(piped);  // cold: parses + builds cache
  const RealRunResult c = run_real(piped);  // warm: mapped sharded read

  for (const RealRunResult* r : {&b, &c}) {
    EXPECT_EQ(a.final_loss, r->final_loss);
    EXPECT_EQ(a.final_accuracy, r->final_accuracy);
    EXPECT_EQ(a.test_accuracy, r->test_accuracy);
    ASSERT_EQ(a.history.epochs.size(), r->history.epochs.size());
    for (std::size_t e = 0; e < a.history.epochs.size(); ++e)
      EXPECT_EQ(a.history.epochs[e].loss, r->history.epochs[e].loss)
          << "epoch " << e;
  }
  // Cold run parsed; warm run read only its shard of the mapped cache.
  EXPECT_GT(b.load_stats.chunks, 0u);
  EXPECT_EQ(c.load_stats.chunks, 0u);
  EXPECT_LT(c.load_stats.bytes, a.load_stats.bytes);
  EXPECT_EQ(c.load_stats.rows, b.load_stats.rows);
}

}  // namespace
}  // namespace candle
