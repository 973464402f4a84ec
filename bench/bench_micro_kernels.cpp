// Micro-benchmarks of the tensor kernels that carry the NN substrate's
// training cost, reported as wall time AND GFLOP/s so results are
// comparable across shapes and across PRs.
//
// Two families:
//   * paper-shaped problems — the P1B1 60,483-wide input Dense GEMM and
//     the NT3 first Conv1D layer — each measured for both the blocked
//     kernel (gemm / direct conv) and the preserved naive reference, so
//     the speedup trajectory is recorded;
//   * a small "Smoke" set that CI runs per commit (non-gating) and
//     uploads as BENCH_kernels.json.
//
// Regenerate the committed BENCH_kernels.json with:
//   build/bench/bench_micro_kernels
//     --benchmark_out=BENCH_kernels.json --benchmark_out_format=json
//
// The *Threads benchmarks sweep the candle::parallel pool width (arg = 1,
// 2, 4 threads; 0 = the CANDLE_NUM_THREADS / hardware default) and feed
// the committed BENCH_parallel.json:
//   CANDLE_NUM_THREADS=4 build/bench/bench_micro_kernels
//     --benchmark_filter='Threads' --benchmark_out=BENCH_parallel.json
//     --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "harness.h"
#include "tensor/conv.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace {

using namespace candle;
using bench::conv1d_flop_count;
using bench::gemm_flop_count;

/// Pool width for the duration of one benchmark run: `arg` threads, or the
/// process-startup default when arg == 0. Restored on destruction so later
/// benchmarks (registration order) see the default width again.
class BenchThreads {
 public:
  explicit BenchThreads(std::int64_t arg) {
    parallel::set_num_threads(arg == 0 ? default_width()
                                       : static_cast<std::size_t>(arg));
  }
  ~BenchThreads() { parallel::set_num_threads(default_width()); }
  BenchThreads(const BenchThreads&) = delete;
  BenchThreads& operator=(const BenchThreads&) = delete;

 private:
  static std::size_t default_width() {
    // Captured before any sweep mutates the pool.
    static const std::size_t width = parallel::num_threads();
    return width;
  }
};

/// Registers the 1/2/4/default sweep on a *Threads benchmark. Wall time
/// (UseRealTime) is the honest metric when work runs on pool workers: the
/// main thread blocks while they compute, so its CPU time would overstate
/// the speedup on oversubscribed hosts.
#define THREAD_SWEEP() \
  ArgName("threads")->Arg(1)->Arg(2)->Arg(4)->Arg(0)->UseRealTime()

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (float& v : t.values()) v = static_cast<float>(rng.normal(0, 1));
  return t;
}

// Attaches a GFLOP/s rate counter; google-benchmark divides the total by
// elapsed wall time, so the JSON and console both carry GFLOP/s.
void set_gflops(benchmark::State& state, double flops_per_iter) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops_per_iter / 1e9, benchmark::Counter::kIsIterationInvariantRate);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(flops_per_iter));
}

// ---------------------------------------------------------------------------
// Square GEMM sweep (blocked vs. the seed naive kernel).
// ---------------------------------------------------------------------------

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor a = random_tensor({n, n}, 1);
  const Tensor b = random_tensor({n, n}, 2);
  Tensor c({n, n});
  for (auto _ : state) {
    gemm(false, false, a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, gemm_flop_count(n, n, n));
}

void BM_GemmNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor a = random_tensor({n, n}, 1);
  const Tensor b = random_tensor({n, n}, 2);
  for (auto _ : state)
    benchmark::DoNotOptimize(gemm_naive(false, false, a, b));
  set_gflops(state, gemm_flop_count(n, n, n));
}

void BM_GemmTn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor a = random_tensor({n, n}, 1);
  const Tensor b = random_tensor({n, n}, 2);
  Tensor c({n, n});
  for (auto _ : state) {
    gemm(true, false, a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, gemm_flop_count(n, n, n));
}

void BM_GemmNt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor a = random_tensor({n, n}, 1);
  const Tensor b = random_tensor({n, n}, 2);
  Tensor c({n, n});
  for (auto _ : state) {
    gemm(false, true, a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, gemm_flop_count(n, n, n));
}

// ---------------------------------------------------------------------------
// Paper-shaped problems.
// ---------------------------------------------------------------------------

// P1B1's first Dense layer: (batch, 60483) x (60483, 2000) + bias, ReLU —
// the widest GEMM in the Pilot1 suite (§2.1.2).
constexpr std::size_t kP1B1Batch = 32;
constexpr std::size_t kP1B1In = 60483;
constexpr std::size_t kP1B1Units = 2000;

void BM_DenseP1B1(benchmark::State& state) {
  const Tensor x = random_tensor({kP1B1Batch, kP1B1In}, 3);
  const Tensor w = random_tensor({kP1B1In, kP1B1Units}, 4);
  const Tensor bias = random_tensor({kP1B1Units}, 5);
  Tensor y({kP1B1Batch, kP1B1Units});
  Epilogue ep;
  ep.bias = bias.data();
  ep.op = EpilogueOp::kRelu;
  for (auto _ : state) {
    gemm(false, false, x, w, y, ep);
    benchmark::DoNotOptimize(y.data());
  }
  set_gflops(state, gemm_flop_count(kP1B1Batch, kP1B1Units, kP1B1In));
}

void BM_DenseP1B1Naive(benchmark::State& state) {
  const Tensor x = random_tensor({kP1B1Batch, kP1B1In}, 3);
  const Tensor w = random_tensor({kP1B1In, kP1B1Units}, 4);
  const Tensor bias = random_tensor({kP1B1Units}, 5);
  for (auto _ : state) {
    Tensor y = gemm_naive(false, false, x, w);
    add_bias_rows(y, bias);
    relu_inplace(y);
    benchmark::DoNotOptimize(y.data());
  }
  set_gflops(state, gemm_flop_count(kP1B1Batch, kP1B1Units, kP1B1In));
}

// Pool-width sweep on the P1B1 Dense GEMM — the headline shape for the
// intra-node speedup target (BENCH_parallel.json).
void BM_DenseP1B1Threads(benchmark::State& state) {
  const BenchThreads threads(state.range(0));
  const Tensor x = random_tensor({kP1B1Batch, kP1B1In}, 3);
  const Tensor w = random_tensor({kP1B1In, kP1B1Units}, 4);
  const Tensor bias = random_tensor({kP1B1Units}, 5);
  Tensor y({kP1B1Batch, kP1B1Units});
  Epilogue ep;
  ep.bias = bias.data();
  ep.op = EpilogueOp::kRelu;
  for (auto _ : state) {
    gemm(false, false, x, w, y, ep);
    benchmark::DoNotOptimize(y.data());
  }
  set_gflops(state, gemm_flop_count(kP1B1Batch, kP1B1Units, kP1B1In));
}

// NT3's first Conv1D layer: 128 filters, kernel 20, stride 1 over the
// 60,483-long expression vector with one input channel (§2.1.1).
constexpr std::size_t kNT3Batch = 4;
constexpr std::size_t kNT3Len = 60483;
constexpr std::size_t kNT3Cin = 1;
constexpr std::size_t kNT3Kernel = 20;
constexpr std::size_t kNT3Filters = 128;

void BM_Conv1dNT3(benchmark::State& state) {
  const Tensor x = random_tensor({kNT3Batch, kNT3Len, kNT3Cin}, 6);
  const Tensor w = random_tensor({kNT3Kernel, kNT3Cin, kNT3Filters}, 7);
  const Tensor b = random_tensor({kNT3Filters}, 8);
  Conv1dWorkspace ws;
  Tensor y;
  for (auto _ : state) {
    // In-out form, as the Conv1D layer calls it: workspace and activation
    // buffers are reused across steps.
    conv1d_forward(x, w, b, 1, y, &ws, EpilogueOp::kRelu);
    benchmark::DoNotOptimize(y.data());
  }
  const std::size_t lout = conv1d_out_length(kNT3Len, kNT3Kernel, 1);
  set_gflops(state, conv1d_flop_count(kNT3Batch, lout, kNT3Filters,
                                      kNT3Kernel, kNT3Cin));
}

void BM_Conv1dNT3Naive(benchmark::State& state) {
  const Tensor x = random_tensor({kNT3Batch, kNT3Len, kNT3Cin}, 6);
  const Tensor w = random_tensor({kNT3Kernel, kNT3Cin, kNT3Filters}, 7);
  const Tensor b = random_tensor({kNT3Filters}, 8);
  for (auto _ : state) {
    Tensor y = conv1d_forward_naive(x, w, b, 1);
    relu_inplace(y);
    benchmark::DoNotOptimize(y.data());
  }
  const std::size_t lout = conv1d_out_length(kNT3Len, kNT3Kernel, 1);
  set_gflops(state, conv1d_flop_count(kNT3Batch, lout, kNT3Filters,
                                      kNT3Kernel, kNT3Cin));
}

// Pool-width sweep on the NT3 Conv1D forward (row tiles run on the pool).
void BM_Conv1dNT3Threads(benchmark::State& state) {
  const BenchThreads threads(state.range(0));
  const Tensor x = random_tensor({kNT3Batch, kNT3Len, kNT3Cin}, 6);
  const Tensor w = random_tensor({kNT3Kernel, kNT3Cin, kNT3Filters}, 7);
  const Tensor b = random_tensor({kNT3Filters}, 8);
  Conv1dWorkspace ws;
  Tensor y;
  for (auto _ : state) {
    conv1d_forward(x, w, b, 1, y, &ws, EpilogueOp::kRelu);
    benchmark::DoNotOptimize(y.data());
  }
  const std::size_t lout = conv1d_out_length(kNT3Len, kNT3Kernel, 1);
  set_gflops(state, conv1d_flop_count(kNT3Batch, lout, kNT3Filters,
                                      kNT3Kernel, kNT3Cin));
}

void BM_Conv1dNT3Backward(benchmark::State& state) {
  const Tensor x = random_tensor({kNT3Batch, kNT3Len, kNT3Cin}, 6);
  const Tensor w = random_tensor({kNT3Kernel, kNT3Cin, kNT3Filters}, 7);
  const Tensor b = random_tensor({kNT3Filters}, 8);
  const Tensor y = conv1d_forward(x, w, b, 1);
  const Tensor dy(y.shape(), 1.0f);
  Tensor dx(x.shape()), dw(w.shape()), db(b.shape());
  Conv1dWorkspace ws;
  for (auto _ : state) {
    conv1d_backward(x, w, dy, 1, dx, dw, db, &ws);
    benchmark::DoNotOptimize(dw.data());
  }
  const std::size_t lout = conv1d_out_length(kNT3Len, kNT3Kernel, 1);
  // Backward runs two products of the forward shape (dW and dX).
  set_gflops(state, 2.0 * conv1d_flop_count(kNT3Batch, lout, kNT3Filters,
                                            kNT3Kernel, kNT3Cin));
}

// The two Conv1D layers of e2ebench's NT3 model at its batch of 20:
// layer 0 is (L 121, Cin 1, K 9), layer 1 is (L 28, Cin 16, K 5), both with
// 16 filters and ReLU. Arg 1 selects the backward (dW, dX and db, with dY
// masked by the ReLU output, as the Conv1D layer runs it). One pool
// thread, as each rank of nt3-overlap-4r trains.
void BM_Conv1dNT3E2E(benchmark::State& state) {
  const BenchThreads threads(1);
  struct Layer {
    std::size_t L, cin, K;
  };
  constexpr Layer kLayers[] = {{121, 1, 9}, {28, 16, 5}};
  constexpr std::size_t kBatch = 20, kFilters = 16;
  const Layer& l = kLayers[state.range(0)];
  const Tensor x = random_tensor({kBatch, l.L, l.cin}, 16);
  const Tensor w = random_tensor({l.K, l.cin, kFilters}, 17);
  const Tensor b = random_tensor({kFilters}, 18);
  Conv1dWorkspace ws;
  Tensor y;
  conv1d_forward(x, w, b, 1, y, &ws, EpilogueOp::kRelu);
  const Tensor dy = random_tensor(y.shape(), 19);
  Tensor dx(x.shape()), dw(w.shape()), db(b.shape());
  const bool backward = state.range(1) != 0;
  for (auto _ : state) {
    if (backward) {
      conv1d_backward(x, w, dy, 1, dx, dw, db, &ws, &y);
      benchmark::DoNotOptimize(dx.data());
    } else {
      conv1d_forward(x, w, b, 1, y, &ws, EpilogueOp::kRelu);
      benchmark::DoNotOptimize(y.data());
    }
  }
  const double flops = conv1d_flop_count(
      kBatch, conv1d_out_length(l.L, l.K, 1), kFilters, l.K, l.cin);
  set_gflops(state, backward ? 2.0 * flops : flops);
}

// ---------------------------------------------------------------------------
// Smoke set: small shapes CI can run per commit (see ci.yml perf-smoke).
// ---------------------------------------------------------------------------

void BM_SmokeGemm(benchmark::State& state) {
  const std::size_t n = 256;
  const Tensor a = random_tensor({n, n}, 9);
  const Tensor b = random_tensor({n, n}, 10);
  Tensor c({n, n});
  for (auto _ : state) {
    gemm(false, false, a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, gemm_flop_count(n, n, n));
}

void BM_SmokeGemmNaive(benchmark::State& state) {
  const std::size_t n = 256;
  const Tensor a = random_tensor({n, n}, 9);
  const Tensor b = random_tensor({n, n}, 10);
  for (auto _ : state)
    benchmark::DoNotOptimize(gemm_naive(false, false, a, b));
  set_gflops(state, gemm_flop_count(n, n, n));
}

void BM_SmokeConv1d(benchmark::State& state) {
  const Tensor x = random_tensor({2, 4096, 8}, 11);
  const Tensor w = random_tensor({9, 8, 16}, 12);
  const Tensor b = random_tensor({16}, 13);
  Conv1dWorkspace ws;
  for (auto _ : state)
    benchmark::DoNotOptimize(conv1d_forward(x, w, b, 1, &ws));
  set_gflops(state,
             conv1d_flop_count(2, conv1d_out_length(4096, 9, 1), 16, 9, 8));
}

void BM_SmokeConv1dNaive(benchmark::State& state) {
  const Tensor x = random_tensor({2, 4096, 8}, 11);
  const Tensor w = random_tensor({9, 8, 16}, 12);
  const Tensor b = random_tensor({16}, 13);
  for (auto _ : state)
    benchmark::DoNotOptimize(conv1d_forward_naive(x, w, b, 1));
  set_gflops(state,
             conv1d_flop_count(2, conv1d_out_length(4096, 9, 1), 16, 9, 8));
}

// ---------------------------------------------------------------------------
// Non-GEMM kernels (unchanged paths, kept for trend tracking).
// ---------------------------------------------------------------------------

// Pool-width sweep on a square GEMM big enough to fill several MC blocks.
void BM_GemmThreads(benchmark::State& state) {
  const BenchThreads threads(state.range(0));
  const std::size_t n = 512;
  const Tensor a = random_tensor({n, n}, 1);
  const Tensor b = random_tensor({n, n}, 2);
  Tensor c({n, n});
  for (auto _ : state) {
    gemm(false, false, a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, gemm_flop_count(n, n, n));
}

void BM_MaxPool(benchmark::State& state) {
  const auto length = static_cast<std::size_t>(state.range(0));
  const Tensor x = random_tensor({8, length, 16}, 14);
  std::vector<std::size_t> argmax;
  for (auto _ : state)
    benchmark::DoNotOptimize(maxpool1d_forward(x, 4, 4, argmax));
}

void BM_SoftmaxRows(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor x = random_tensor({64, n}, 15);
  for (auto _ : state) benchmark::DoNotOptimize(softmax_rows(x));
}

// Every row whose kernel runs on the candle::parallel pool reports wall
// time (UseRealTime): the main thread waits while the workers compute, so
// its CPU time would overstate the rate. The rows that never touch the
// pool (GemmNaive, SmokeGemmNaive, SmokeConv1dNaive, MaxPool) keep CPU
// time.
BENCHMARK(BM_Gemm)
    ->Arg(64)->Arg(128)->Arg(256)->Arg(512)->MinTime(0.4)->UseRealTime();
BENCHMARK(BM_GemmNaive)->Arg(256)->Arg(512)->MinTime(0.4);
BENCHMARK(BM_GemmTn)->Arg(256)->MinTime(0.4)->UseRealTime();
BENCHMARK(BM_GemmNt)->Arg(256)->MinTime(0.4)->UseRealTime();
BENCHMARK(BM_DenseP1B1)
    ->MinTime(1.0)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_DenseP1B1Naive)
    ->MinTime(1.0)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_DenseP1B1Threads)
    ->THREAD_SWEEP()->MinTime(1.0)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Conv1dNT3)
    ->MinTime(1.0)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Conv1dNT3Naive)
    ->MinTime(1.0)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Conv1dNT3Threads)
    ->THREAD_SWEEP()->MinTime(1.0)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Conv1dNT3Backward)
    ->MinTime(1.0)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Conv1dNT3E2E)
    ->ArgNames({"layer", "bwd"})
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->MinTime(0.4)
    ->UseRealTime();
BENCHMARK(BM_GemmThreads)->THREAD_SWEEP()->MinTime(0.4);
BENCHMARK(BM_SmokeGemm)->MinTime(0.2)->UseRealTime();
BENCHMARK(BM_SmokeGemmNaive)->MinTime(0.2);
BENCHMARK(BM_SmokeConv1d)
    ->MinTime(0.2)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_SmokeConv1dNaive)->MinTime(0.2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MaxPool)->Arg(4096)->MinTime(0.4);
BENCHMARK(BM_SoftmaxRows)->Arg(1024)->MinTime(0.4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
