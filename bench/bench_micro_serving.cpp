// Micro-benchmarks (google-benchmark) of the inference serving layer: a
// closed-loop client fleet drives one served model through the
// micro-batching scheduler across the {max_batch, batch-deadline,
// offered-load} grid. Deadline 0 is the default greedy policy; the
// positive deadlines are the opt-in timer it is judged against. The grid
// shows micro-batching (max_batch 16) beating the batch-size-1 baseline
// on throughput at equal offered load, and what a timer costs: a deadline
// stretched past the arrival gap buys batch occupancy with latency.
// BM_ServingPredict times the served forward itself (Model::predict) on
// the e2ebench NT3 and P1B2 models. Feeds the committed BENCH_serving.json:
//   CANDLE_NUM_THREADS=4 build/bench/bench_micro_serving
//     --benchmark_filter=Serving
//     --benchmark_out=BENCH_serving.json --benchmark_out_format=json
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <cstdint>
#include <vector>

#include "harness.h"

#include "candle/models.h"
#include "common/rng.h"
#include "nn/layers.h"
#include "nn/model.h"
#include "serve/loadgen.h"
#include "serve/server.h"

namespace {

using namespace candle;

// Wide enough that a batched forward amortizes real GEMM work, small
// enough that one loadgen run stays in milliseconds.
constexpr std::size_t kFeatures = 256;
constexpr std::size_t kHidden = 512;
constexpr std::size_t kClasses = 10;
constexpr std::size_t kRequests = 256;

nn::Model make_served_model() {
  nn::Model model;
  model.add<nn::Dense>(kHidden, nn::Act::kRelu);
  model.add<nn::Dense>(kClasses, nn::Act::kSoftmax);
  model.compile_for_inference({kFeatures}, /*seed=*/3);
  return model;
}

Tensor make_request_pool(std::size_t rows = 64,
                         std::size_t features = kFeatures) {
  Tensor pool({rows, features});
  Rng rng(17);
  for (std::size_t i = 0; i < pool.numel(); ++i)
    pool[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return pool;
}

/// User plus system CPU seconds of the whole process so far.
double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// One closed-loop loadgen sweep per iteration. range(0) is max_batch
/// (1 = the request-per-forward baseline), range(1) the batch deadline in
/// microseconds (0 = greedy, the default), range(2) the client count (the
/// offered load of a closed loop). Wall time, not CPU time: the work runs
/// on dispatcher + client threads. cpu_ms_per_request is the process's
/// CPU time (every thread, pool workers included) per served request.
void BM_ServingSweep(benchmark::State& state) {
  const auto max_batch = static_cast<std::size_t>(state.range(0));
  const double deadline_s = static_cast<double>(state.range(1)) * 1e-6;
  const auto clients = static_cast<std::size_t>(state.range(2));

  serve::InferenceServer server;
  server.add_model("mlp", make_served_model(),
                   {.max_batch = max_batch, .batch_deadline_s = deadline_s});
  const Tensor pool = make_request_pool();
  const std::vector<serve::TrafficSource> sources = {{"mlp", &pool, 1.0}};
  serve::LoadgenOptions options;
  options.mode = serve::LoopMode::kClosed;
  options.clients = clients;
  options.requests = kRequests;
  options.offered_rps = 4000.0;  // mix pacing only (closed loop)
  options.seed = 29;

  std::vector<double> latencies_ms;
  std::size_t completed = 0;
  double wall_s = 0.0;
  const double cpu0_s = process_cpu_s();
  for (auto _ : state) {
    const serve::LoadgenReport report =
        serve::run_loadgen(server, sources, options);
    completed += report.completed;
    wall_s += report.wall_s;
    latencies_ms.insert(latencies_ms.end(), report.latencies_ms.begin(),
                        report.latencies_ms.end());
  }

  const double cpu_s = process_cpu_s() - cpu0_s;

  state.SetItemsProcessed(static_cast<int64_t>(completed));
  state.counters["cpu_ms_per_request"] = benchmark::Counter(
      completed > 0 ? 1e3 * cpu_s / static_cast<double>(completed) : 0.0);
  state.counters["throughput_rps"] = benchmark::Counter(
      wall_s > 0.0 ? static_cast<double>(completed) / wall_s : 0.0);
  state.counters["p50_ms"] = benchmark::Counter(bench::p50(latencies_ms));
  state.counters["p99_ms"] = benchmark::Counter(bench::p99(latencies_ms));
  state.counters["mean_batch_rows"] =
      benchmark::Counter(server.stats("mlp").mean_batch_rows());
}

// {max_batch, deadline_us, clients}: 2 batch policies x {greedy, 3
// deadlines} x 2 offered loads (closed-loop client count). The max_batch-1
// rows are the control: every batch closes full at one row, so the
// deadline cannot act there and their spread is run-to-run noise.
BENCHMARK(BM_ServingSweep)
    ->Args({1, 0, 4})->Args({1, 0, 16})
    ->Args({1, 200, 4})->Args({1, 200, 16})
    ->Args({1, 1000, 4})->Args({1, 1000, 16})
    ->Args({1, 4000, 4})->Args({1, 4000, 16})
    ->Args({16, 0, 4})->Args({16, 0, 16})
    ->Args({16, 200, 4})->Args({16, 200, 16})
    ->Args({16, 1000, 4})->Args({16, 1000, 16})
    ->Args({16, 4000, 4})->Args({16, 4000, 16})
    ->Unit(benchmark::kMillisecond)->MinTime(0.2)->UseRealTime();

/// The served forward alone: Model::predict on range(1) rows of the
/// inference-compiled benchmark model range(0) (0 = NT3 at scale 0.002,
/// 1 = P1B2 at scale 0.02 — the e2ebench nt3-overlap-4r and
/// serve-p1b2-open geometries). 1 row is a lone request, 5 the mean
/// batch of a 2 ms deadline at 2000 requests/s, 32 the default max_batch.
void BM_ServingPredict(benchmark::State& state) {
  const BenchmarkId id =
      state.range(0) == 0 ? BenchmarkId::kNT3 : BenchmarkId::kP1B2;
  const ScaledGeometry geometry =
      scaled_geometry(id, id == BenchmarkId::kNT3 ? 0.002 : 0.02);
  const auto rows = static_cast<std::size_t>(state.range(1));
  nn::Model model = build_model(id, geometry);
  model.compile_for_inference({geometry.features}, /*seed=*/3);
  const Tensor x = make_request_pool(rows, geometry.features);
  for (auto _ : state) benchmark::DoNotOptimize(model.predict(x));
  state.SetItemsProcessed(state.iterations() * state.range(1));
  state.SetLabel(benchmark_name(id));
}

BENCHMARK(BM_ServingPredict)
    ->ArgsProduct({{0, 1}, {1, 5, 32}})
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
