// Tests for the inference serving layer (serve/): micro-batching
// scheduler, multi-model server, checkpoint-to-serving round trip, and
// the deterministic traffic load generator. The bit-identity tests pin
// the serving determinism contract — a served row equals Model::predict
// on that row regardless of which batch the scheduler assembled it into.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "candle/models.h"
#include "common/error.h"
#include "common/rng.h"
#include "nn/dataset.h"
#include "nn/model.h"
#include "nn/serialize.h"
#include "serve/loadgen.h"
#include "serve/micro_batcher.h"
#include "serve/server.h"

namespace candle::serve {
namespace {

using nn::Model;

constexpr std::size_t kIn = 12;
constexpr std::size_t kOut = 4;

/// Small MLP classifier used by most serving tests.
Model make_mlp(std::uint64_t seed) {
  Model m;
  m.add<nn::Dense>(16, nn::Act::kRelu);
  m.add<nn::Dense>(kOut, nn::Act::kSoftmax);
  m.compile({kIn}, nn::make_optimizer("sgd", 0.01),
            nn::make_loss("categorical_crossentropy"), seed);
  return m;
}

/// Same architecture, inference-only compile (identical weights per seed).
Model make_mlp_inference(std::uint64_t seed) {
  Model m;
  m.add<nn::Dense>(16, nn::Act::kRelu);
  m.add<nn::Dense>(kOut, nn::Act::kSoftmax);
  m.compile_for_inference({kIn}, seed);
  return m;
}

/// Deterministic request pool of `n` rows.
Tensor make_rows(std::size_t n, std::size_t width, std::uint64_t seed) {
  Tensor rows({n, width});
  Rng rng(seed);
  for (std::size_t i = 0; i < rows.numel(); ++i)
    rows[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return rows;
}

std::span<const float> row_span(const Tensor& pool, std::size_t row) {
  const std::size_t width = pool.numel() / pool.dim(0);
  return {pool.data() + row * width, width};
}

/// Reference output for one pool row via a single-row predict.
Tensor predict_row(Model& model, const Tensor& pool, std::size_t row) {
  Shape shape = pool.shape();
  shape[0] = 1;
  Tensor x(shape);
  const auto src = row_span(pool, row);
  std::copy(src.begin(), src.end(), x.data());
  return model.predict(x);
}

/// Exact (bit-identical) float comparison.
void expect_exact(std::span<const float> a, std::span<const float> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(CompileForInference, WeightsMatchTrainingCompileBitExact) {
  Model trained = make_mlp(7);
  Model served = make_mlp_inference(7);
  EXPECT_TRUE(served.inference_only());
  EXPECT_FALSE(trained.inference_only());
  const auto pt = trained.parameters();
  const auto ps = served.parameters();
  ASSERT_EQ(pt.size(), ps.size());
  for (std::size_t i = 0; i < pt.size(); ++i)
    expect_exact(pt[i]->values(), ps[i]->values());
}

TEST(CompileForInference, ReleasesGradientBuffers) {
  Model served = make_mlp_inference(7);
  for (Tensor* g : served.gradients()) EXPECT_EQ(g->numel(), 0u);
}

TEST(CompileForInference, PredictMatchesTrainingCompile) {
  Model trained = make_mlp(3);
  Model served = make_mlp_inference(3);
  const Tensor pool = make_rows(6, kIn, 21);
  for (std::size_t r = 0; r < pool.dim(0); ++r) {
    const Tensor a = predict_row(trained, pool, r);
    const Tensor b = predict_row(served, pool, r);
    expect_exact(a.values(), b.values());
  }
}

TEST(CompileForInference, TrainingEntryPointsThrow) {
  Model served = make_mlp_inference(7);
  const Tensor x = make_rows(4, kIn, 1);
  Tensor y({4, kOut});
  EXPECT_THROW(served.train_on_batch(x, y), InvalidArgument);
  EXPECT_THROW((void)served.evaluate(x, y), InvalidArgument);
  EXPECT_THROW(served.fit({x, y}, {.epochs = 1}), InvalidArgument);
  EXPECT_THROW(served.set_grad_ready_hook([](std::size_t, std::size_t) {}),
               InvalidArgument);
  EXPECT_NO_THROW(served.set_grad_ready_hook({}));
}

TEST(MicroBatcher, SingleRowMatchesPredictBitExact) {
  Model reference = make_mlp(5);
  Model served = make_mlp_inference(5);
  MicroBatcher batcher(served, {.max_batch = 4, .batch_deadline_s = 0.001});
  EXPECT_EQ(batcher.row_numel(), kIn);
  const Tensor pool = make_rows(3, kIn, 9);
  const Response r = batcher.submit(row_span(pool, 1)).get();
  const Tensor expected = predict_row(reference, pool, 1);
  ASSERT_EQ(r.y.shape(), Shape({kOut}));
  expect_exact(r.y.values(), expected.values());
  EXPECT_GE(r.batch_rows, 1u);
}

TEST(MicroBatcher, FullBatchClosesBySize) {
  Model served = make_mlp_inference(2);
  // Deadline far beyond the test horizon: only size can close the batch.
  MicroBatcher batcher(served, {.max_batch = 4, .batch_deadline_s = 60.0});
  const Tensor pool = make_rows(4, kIn, 13);
  std::vector<std::future<Response>> futures(4);
  std::vector<std::thread> clients;
  clients.reserve(4);
  for (std::size_t c = 0; c < 4; ++c)
    clients.emplace_back([&, c] { futures[c] = batcher.submit(row_span(pool, c)); });
  for (auto& t : clients) t.join();
  for (auto& f : futures) {
    const Response r = f.get();
    EXPECT_EQ(r.batch_rows, 4u);
    EXPECT_FALSE(r.deadline_closed);
  }
  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.rows, 4u);
  EXPECT_EQ(stats.full_batches, 1u);
  EXPECT_EQ(stats.greedy_batches, 0u);
  EXPECT_EQ(stats.deadline_batches, 0u);
  EXPECT_EQ(stats.max_batch_rows, 4u);
}

// The default policy is greedy: a lone request runs as soon as it is
// staged, in a 1-row batch that no timer closed.
TEST(MicroBatcher, DefaultOptionsAreGreedy) {
  EXPECT_EQ(BatcherOptions{}.batch_deadline_s, 0.0);
  Model reference = make_mlp(5);
  Model served = make_mlp_inference(5);
  MicroBatcher batcher(served, {});
  const Tensor pool = make_rows(1, kIn, 11);
  const Response r = batcher.submit(row_span(pool, 0)).get();
  expect_exact(r.y.values(), predict_row(reference, pool, 0).values());
  EXPECT_EQ(r.batch_rows, 1u);
  EXPECT_FALSE(r.deadline_closed);
  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.greedy_batches, 1u);
  EXPECT_EQ(stats.full_batches, 0u);
  EXPECT_EQ(stats.deadline_batches, 0u);
}

TEST(MicroBatcher, DeadlineClosesUnderfullBatch) {
  Model served = make_mlp_inference(2);
  MicroBatcher batcher(served, {.max_batch = 64, .batch_deadline_s = 0.05});
  const Tensor pool = make_rows(2, kIn, 17);
  auto f0 = batcher.submit(row_span(pool, 0));
  auto f1 = batcher.submit(row_span(pool, 1));
  const Response r0 = f0.get();
  const Response r1 = f1.get();
  EXPECT_TRUE(r0.deadline_closed);
  EXPECT_TRUE(r1.deadline_closed);
  EXPECT_LE(r0.batch_rows, 2u);
  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.rows, 2u);
  EXPECT_EQ(stats.full_batches, 0u);
  EXPECT_EQ(stats.greedy_batches, 0u);
  EXPECT_GE(stats.deadline_batches, 1u);
  EXPECT_EQ(stats.deadline_batches, stats.batches);
}

TEST(MicroBatcher, GreedyModeZeroDeadline) {
  Model served = make_mlp_inference(4);
  MicroBatcher batcher(served, {.max_batch = 8, .batch_deadline_s = 0.0});
  const Tensor pool = make_rows(8, kIn, 19);
  constexpr std::size_t kThreads = 4, kPerThread = 5;
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t)
    clients.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i)
        (void)batcher.submit(row_span(pool, (t + i) % pool.dim(0))).get();
    });
  for (auto& t : clients) t.join();
  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.rows, kThreads * kPerThread);
  EXPECT_GE(stats.batches, 1u);
  // Every batch closed full or greedily: no timer runs at deadline 0.
  EXPECT_EQ(stats.full_batches + stats.greedy_batches, stats.batches);
  EXPECT_EQ(stats.deadline_batches, 0u);
}

TEST(MicroBatcher, DrainOnShutdownFulfilsPending) {
  Model served = make_mlp_inference(6);
  MicroBatcher batcher(served, {.max_batch = 64, .batch_deadline_s = 60.0});
  const Tensor pool = make_rows(3, kIn, 23);
  std::vector<std::future<Response>> futures;
  futures.reserve(3);
  for (std::size_t r = 0; r < 3; ++r)
    futures.push_back(batcher.submit(row_span(pool, r)));
  batcher.shutdown();
  for (auto& f : futures) {
    const Response r = f.get();
    EXPECT_EQ(r.batch_rows, 3u);
    EXPECT_FALSE(r.deadline_closed);  // drained, not timed out
  }
  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.rows, 3u);
  EXPECT_EQ(stats.drained_batches, 1u);
  EXPECT_THROW((void)batcher.submit(row_span(pool, 0)), Error);
  batcher.shutdown();  // idempotent
}

TEST(MicroBatcher, RejectsMismatchedRowWidth) {
  Model served = make_mlp_inference(2);
  MicroBatcher batcher(served, {.max_batch = 4, .batch_deadline_s = 0.01});
  const std::vector<float> wrong(kIn + 1, 0.0f);
  EXPECT_THROW((void)batcher.submit(wrong), InvalidArgument);
}

TEST(MicroBatcher, RejectsBadOptionsAndUncompiledModel) {
  Model served = make_mlp_inference(2);
  EXPECT_THROW(MicroBatcher(served, {.max_batch = 0}), InvalidArgument);
  EXPECT_THROW(MicroBatcher(served, {.batch_deadline_s = -1.0}),
               InvalidArgument);
  Model raw;
  raw.add<nn::Dense>(4, nn::Act::kRelu);
  EXPECT_THROW(MicroBatcher(raw, {}), InvalidArgument);
}

// The determinism contract under real concurrency — also the TSan stress
// test: 8 clients hammer one batcher; every served row must be
// bit-identical to a single-row predict on the reference model. Runs
// under a deadline timer and under the default (greedy) options.
void check_concurrent_clients(const BatcherOptions& options) {
  Model reference = make_mlp(8);
  Model served = make_mlp_inference(8);
  const Tensor pool = make_rows(64, kIn, 29);
  // Precompute the per-row references (single-row batches).
  std::vector<Tensor> expected;
  expected.reserve(pool.dim(0));
  for (std::size_t r = 0; r < pool.dim(0); ++r)
    expected.push_back(predict_row(reference, pool, r));

  MicroBatcher batcher(served, options);
  constexpr std::size_t kThreads = 8, kPerThread = 32;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t)
    clients.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t row = (t * 31 + i * 7) % pool.dim(0);
        const Response r = batcher.submit(row_span(pool, row)).get();
        const auto want = expected[row].values();
        const auto got = r.y.values();
        if (got.size() != want.size()) {
          ++mismatches[t];
          continue;
        }
        for (std::size_t j = 0; j < want.size(); ++j)
          if (got[j] != want[j]) ++mismatches[t];
      }
    });
  for (auto& t : clients) t.join();
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  EXPECT_EQ(stats.rows, kThreads * kPerThread);
  EXPECT_LE(stats.max_batch_rows, options.max_batch);
}

TEST(MicroBatcher, ConcurrentClientsBitIdenticalToPredict) {
  check_concurrent_clients({.max_batch = 8, .batch_deadline_s = 0.001});
  check_concurrent_clients({});
}

TEST(InferenceServer, MultiModelRoutingAndValidation) {
  InferenceServer server;
  server.add_model("mlp-a", make_mlp_inference(1),
                   {.max_batch = 4, .batch_deadline_s = 0.001});
  server.add_model("mlp-b", make_mlp_inference(2),
                   {.max_batch = 4, .batch_deadline_s = 0.001});
  EXPECT_EQ(server.model_count(), 2u);
  EXPECT_TRUE(server.has_model("mlp-a"));
  EXPECT_FALSE(server.has_model("mlp-c"));
  EXPECT_EQ(server.model_names(),
            (std::vector<std::string>{"mlp-a", "mlp-b"}));
  EXPECT_THROW(server.add_model("mlp-a", make_mlp_inference(3)),
               InvalidArgument);

  Model ref_a = make_mlp(1);
  Model ref_b = make_mlp(2);
  const Tensor pool = make_rows(4, kIn, 31);
  for (std::size_t r = 0; r < pool.dim(0); ++r) {
    const Response ra = server.submit("mlp-a", row_span(pool, r)).get();
    const Response rb = server.submit("mlp-b", row_span(pool, r)).get();
    expect_exact(ra.y.values(), predict_row(ref_a, pool, r).values());
    expect_exact(rb.y.values(), predict_row(ref_b, pool, r).values());
  }
  EXPECT_THROW((void)server.submit("mlp-c", row_span(pool, 0)),
               InvalidArgument);
  EXPECT_EQ(server.stats("mlp-a").rows, 4u);
  server.shutdown();
}

/// Serialize -> compile_for_inference -> load -> serve must be
/// bit-identical to the in-memory model the checkpoint came from.
void check_checkpoint_round_trip(BenchmarkId id) {
  const ScaledGeometry geometry = scaled_geometry(id, 0.002);
  const BenchmarkData data = make_benchmark_data(id, geometry, 11);

  Model trained = build_model(id, geometry);
  compile_benchmark_model(id, trained, geometry, 0.001, 7);
  // Move off the init point so the round trip covers trained weights.
  const std::size_t rows = std::min<std::size_t>(geometry.batch,
                                                 data.train.x.dim(0));
  Shape xs = data.train.x.shape();
  Shape ys = data.train.y.shape();
  xs[0] = ys[0] = rows;
  Tensor xb(xs), yb(ys);
  nn::take_rows(data.train.x, 0, rows, xb);
  nn::take_rows(data.train.y, 0, rows, yb);
  (void)trained.train_on_batch(xb, yb);

  const auto dir = std::filesystem::temp_directory_path() /
                   ("candle_serve_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path =
      (dir / (std::string(benchmark_name(id)) + ".ckpt")).string();
  nn::save_weights(trained, path);

  InferenceServer server;
  server.add_model_from_checkpoint(
      benchmark_name(id), build_model(id, geometry), {geometry.features},
      path, {.max_batch = 4, .batch_deadline_s = 0.01});
  for (std::size_t r = 0; r < 8 && r < data.test.x.dim(0); ++r) {
    const Response got =
        server.submit(benchmark_name(id), row_span(data.test.x, r)).get();
    const Tensor want = predict_row(trained, data.test.x, r);
    expect_exact(got.y.values(), want.values());
  }
  server.shutdown();
  std::filesystem::remove_all(dir);
}

TEST(InferenceServer, CheckpointRoundTripNT3) {
  check_checkpoint_round_trip(BenchmarkId::kNT3);
}

TEST(InferenceServer, CheckpointRoundTripP1B1) {
  check_checkpoint_round_trip(BenchmarkId::kP1B1);
}

TEST(InferenceServer, CheckpointPathValidation) {
  InferenceServer server;
  EXPECT_THROW(server.add_model_from_checkpoint(
                   "m", make_mlp_inference(1), {kIn}, "/no/such/file.ckpt"),
               Error);
}

TEST(Loadgen, ScheduleIsDeterministicAndOrdered) {
  const Tensor pool = make_rows(16, kIn, 37);
  const std::vector<TrafficSource> sources = {
      {"a", &pool, 1.0}, {"b", &pool, 3.0}};
  LoadgenOptions options;
  options.requests = 400;
  options.offered_rps = 1000.0;
  options.arrival = ArrivalKind::kPoisson;
  options.seed = 123;
  const auto s1 = make_schedule(options, sources);
  const auto s2 = make_schedule(options, sources);
  ASSERT_EQ(s1.size(), 400u);
  std::size_t source_counts[2] = {0, 0};
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].at_s, s2[i].at_s);
    EXPECT_EQ(s1[i].source, s2[i].source);
    EXPECT_EQ(s1[i].row, s2[i].row);
    if (i > 0) {
      EXPECT_GE(s1[i].at_s, s1[i - 1].at_s);
    }
    EXPECT_LT(s1[i].row, pool.dim(0));
    ASSERT_LT(s1[i].source, 2u);
    ++source_counts[s1[i].source];
  }
  // Weight 3 source must dominate the mix.
  EXPECT_GT(source_counts[1], source_counts[0]);
}

TEST(Loadgen, UniformScheduleHasExactGaps) {
  const Tensor pool = make_rows(4, kIn, 41);
  LoadgenOptions options;
  options.requests = 10;
  options.offered_rps = 100.0;
  options.arrival = ArrivalKind::kUniform;
  const auto s = make_schedule(options, {{"m", &pool, 1.0}});
  for (std::size_t i = 1; i < s.size(); ++i)
    EXPECT_NEAR(s[i].at_s - s[i - 1].at_s, 0.01, 1e-12);
}

TEST(Loadgen, BurstScheduleConcentratesArrivals) {
  const Tensor pool = make_rows(4, kIn, 43);
  LoadgenOptions options;
  options.requests = 2000;
  options.offered_rps = 5000.0;
  options.arrival = ArrivalKind::kBurst;
  options.burst_factor = 2.0;
  options.burst_fraction = 0.25;
  options.burst_period_s = 0.05;
  const auto s = make_schedule(options, {{"m", &pool, 1.0}});
  std::size_t in_burst = 0, off_burst = 0;
  for (const ScheduledRequest& req : s) {
    const double phase = req.at_s - std::floor(req.at_s / 0.05) * 0.05;
    (phase < 0.25 * 0.05 ? in_burst : off_burst) += 1;
  }
  // Arrival *density* in the burst window must exceed the off-window
  // density (window widths are 1:3, so compare rates, not counts).
  EXPECT_GT(static_cast<double>(in_burst) / 0.25,
            static_cast<double>(off_burst) / 0.75);
}

TEST(Loadgen, ScheduleValidation) {
  const Tensor pool = make_rows(4, kIn, 47);
  LoadgenOptions options;
  EXPECT_THROW((void)make_schedule(options, {}), InvalidArgument);
  options.requests = 0;
  EXPECT_THROW((void)make_schedule(options, {{"m", &pool, 1.0}}),
               InvalidArgument);
  options.requests = 4;
  EXPECT_THROW((void)make_schedule(options, {{"m", &pool, -1.0}}),
               InvalidArgument);
  EXPECT_THROW((void)make_schedule(options, {{"m", nullptr, 1.0}}),
               InvalidArgument);
}

TEST(Loadgen, ClosedLoopCompletesAllRequests) {
  InferenceServer server;
  server.add_model("mlp-a", make_mlp_inference(1),
                   {.max_batch = 8, .batch_deadline_s = 0.001});
  server.add_model("mlp-b", make_mlp_inference(2),
                   {.max_batch = 8, .batch_deadline_s = 0.001});
  const Tensor pool = make_rows(16, kIn, 53);
  const std::vector<TrafficSource> sources = {
      {"mlp-a", &pool, 1.0}, {"mlp-b", &pool, 1.0}};
  LoadgenOptions options;
  options.mode = LoopMode::kClosed;
  options.clients = 4;
  options.requests = 64;
  options.offered_rps = 2000.0;
  const LoadgenReport report = run_loadgen(server, sources, options);
  EXPECT_EQ(report.completed, 64u);
  EXPECT_EQ(report.latencies_ms.size(), 64u);
  std::size_t per_model_total = 0;
  for (const auto& [model, count] : report.per_model)
    per_model_total += count;
  EXPECT_EQ(per_model_total, 64u);
  EXPECT_GT(report.throughput_rps, 0.0);
  EXPECT_GT(report.p50_ms, 0.0);
  EXPECT_LE(report.p50_ms, report.p90_ms);
  EXPECT_LE(report.p90_ms, report.p99_ms);
  EXPECT_LE(report.p99_ms, report.max_ms);
  EXPECT_EQ(server.stats("mlp-a").rows + server.stats("mlp-b").rows, 64u);
  server.shutdown();
}

TEST(Loadgen, OpenLoopHonoursArrivalSchedule) {
  InferenceServer server;
  server.add_model("mlp", make_mlp_inference(5),
                   {.max_batch = 8, .batch_deadline_s = 0.002});
  const Tensor pool = make_rows(16, kIn, 59);
  const std::vector<TrafficSource> sources = {{"mlp", &pool, 1.0}};
  LoadgenOptions options;
  options.mode = LoopMode::kOpen;
  options.clients = 4;
  options.requests = 48;
  options.offered_rps = 2000.0;
  options.arrival = ArrivalKind::kPoisson;
  const auto schedule = make_schedule(options, sources);
  const LoadgenReport report = run_loadgen(server, sources, options);
  EXPECT_EQ(report.completed, 48u);
  // Open loop cannot finish before the last scheduled arrival.
  EXPECT_GE(report.wall_s, schedule.back().at_s);
  for (double ms : report.latencies_ms) EXPECT_GT(ms, 0.0);
  server.shutdown();
}

TEST(Loadgen, RunValidation) {
  InferenceServer server;
  server.add_model("mlp", make_mlp_inference(1),
                   {.max_batch = 4, .batch_deadline_s = 0.001});
  const Tensor pool = make_rows(4, kIn, 61);
  const Tensor narrow = make_rows(4, kIn - 1, 61);
  LoadgenOptions options;
  options.requests = 4;
  options.clients = 0;
  EXPECT_THROW((void)run_loadgen(server, {{"mlp", &pool, 1.0}}, options),
               InvalidArgument);
  options.clients = 2;
  EXPECT_THROW((void)run_loadgen(server, {{"nope", &pool, 1.0}}, options),
               InvalidArgument);
  EXPECT_THROW((void)run_loadgen(server, {{"mlp", &narrow, 1.0}}, options),
               InvalidArgument);
  server.shutdown();
}

}  // namespace
}  // namespace candle::serve
