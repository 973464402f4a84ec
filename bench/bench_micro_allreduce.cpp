// Micro-benchmarks of the communication substrate: ring vs naive vs
// hierarchical allreduce, broadcast, the tensor-fusion ablation (fused vs
// per-tensor), the backward-overlap ablation (overlapped vs synchronous
// gradient exchange), and the collective algorithm x wire-dtype sweep under
// the emulated interconnect (BENCH_collectives.json).
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <thread>

#include "comm/communicator.h"
#include "hvd/bucket_scheduler.h"
#include "hvd/context.h"
#include "hvd/fusion.h"

namespace {

using namespace candle;

void BM_AllreduceRing(benchmark::State& state) {
  const auto ranks = static_cast<std::size_t>(state.range(0));
  const auto elems = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    comm::World::run(ranks, [&](comm::Communicator& c) {
      std::vector<float> data(elems, static_cast<float>(c.rank()));
      for (int i = 0; i < 8; ++i) c.allreduce_sum(data);
    });
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 8 *
                          static_cast<int64_t>(elems * sizeof(float)));
}

void BM_AllreduceNaive(benchmark::State& state) {
  const auto ranks = static_cast<std::size_t>(state.range(0));
  const auto elems = static_cast<std::size_t>(state.range(1));
  comm::WorldOptions opt;
  opt.allreduce_algo = comm::AllreduceAlgo::kNaive;
  for (auto _ : state) {
    comm::World::run(
        ranks,
        [&](comm::Communicator& c) {
          std::vector<float> data(elems, static_cast<float>(c.rank()));
          for (int i = 0; i < 8; ++i) c.allreduce_sum(data);
        },
        opt);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 8 *
                          static_cast<int64_t>(elems * sizeof(float)));
}

void BM_AllreduceHierarchical(benchmark::State& state) {
  const auto ranks = static_cast<std::size_t>(state.range(0));
  const auto elems = static_cast<std::size_t>(state.range(1));
  comm::WorldOptions opt;
  opt.allreduce_algo = comm::AllreduceAlgo::kHierarchical;
  // Two ranks per modeled node, so every configuration from 4 ranks on
  // exercises the inter-node leader ring, not just the intra-node phases.
  opt.ranks_per_node = 2;
  for (auto _ : state) {
    comm::World::run(
        ranks,
        [&](comm::Communicator& c) {
          std::vector<float> data(elems, static_cast<float>(c.rank()));
          for (int i = 0; i < 8; ++i) c.allreduce_sum(data);
        },
        opt);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 8 *
                          static_cast<int64_t>(elems * sizeof(float)));
}

void BM_Broadcast(benchmark::State& state) {
  const auto ranks = static_cast<std::size_t>(state.range(0));
  const auto elems = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    comm::World::run(ranks, [&](comm::Communicator& c) {
      std::vector<float> data(elems, 1.0f);
      for (int i = 0; i < 8; ++i) c.broadcast(data, 0);
    });
  }
}

// Fusion ablation: 64 small gradient tensors, fused vs one-collective-each.
void BM_FusedAllreduce(benchmark::State& state) {
  const bool fused = state.range(0) != 0;
  for (auto _ : state) {
    comm::World::run(4, [&](comm::Communicator& c) {
      hvd::Context ctx(c);
      std::vector<Tensor> tensors;
      for (int i = 0; i < 64; ++i) tensors.emplace_back(Shape{256}, 1.0f);
      std::vector<Tensor*> ptrs;
      for (auto& t : tensors) ptrs.push_back(&t);
      hvd::FusionOptions opt;
      opt.threshold_bytes = fused ? 64ull << 20 : 0;
      hvd::allreduce_average_fused(ctx, ptrs, opt);
    });
  }
  state.SetLabel(fused ? "fused" : "per-tensor");
}

// All the work runs on rank threads, so these time the wall clock: the
// main thread's CPU time would size iterations and bytes/s off an idle
// thread.
BENCHMARK(BM_AllreduceRing)
    ->Args({2, 1 << 16})->Args({4, 1 << 16})->Args({8, 1 << 16})
    ->UseRealTime()->Unit(benchmark::kMillisecond)->MinTime(0.4);
BENCHMARK(BM_AllreduceNaive)
    ->Args({2, 1 << 16})->Args({4, 1 << 16})->Args({8, 1 << 16})
    ->UseRealTime()->Unit(benchmark::kMillisecond)->MinTime(0.4);
BENCHMARK(BM_AllreduceHierarchical)
    ->Args({2, 1 << 16})->Args({4, 1 << 16})->Args({8, 1 << 16})
    ->UseRealTime()->Unit(benchmark::kMillisecond)->MinTime(0.4);
BENCHMARK(BM_Broadcast)
    ->Args({4, 1 << 16})->Args({8, 1 << 16})
    ->UseRealTime()->Unit(benchmark::kMillisecond)->MinTime(0.4);
BENCHMARK(BM_FusedAllreduce)->Arg(0)->Arg(1)
    ->UseRealTime()->Unit(benchmark::kMillisecond)->MinTime(0.4);

// Overlap ablation: one synthetic training step — a backward pass of 16
// layers with 1 MB of gradients and a fixed compute cost each — with the
// gradient exchange either swept synchronously after backward or reduced
// bucket by bucket on the comm thread while the remaining layers still
// compute (BucketScheduler). The simulated network (latency + bandwidth
// sleeps around every bucket collective, identical on both paths) stands in
// for a real interconnect, so the hidden communication is measurable on a
// shared-memory host. Sweeps bucket size: small buckets drain early and
// overlap well; one 64 MB bucket only completes with the last layer and
// hides nothing.
void BM_OverlapStep(benchmark::State& state) {
  const auto ranks = static_cast<std::size_t>(state.range(0));
  const auto bucket_mb = static_cast<std::size_t>(state.range(1));
  const bool overlap = state.range(2) != 0;
  constexpr std::size_t kLayers = 16;
  constexpr std::size_t kElemsPerLayer = (1ull << 20) / sizeof(float);
  constexpr std::size_t kStepsPerIter = 4;  // amortize world spawn/join
  // Per-layer backward cost: a sleep, so the comm thread can genuinely run
  // during the window even on a single hardware core (as a GPU's DMA engine
  // would during backward kernels).
  constexpr auto kComputePerLayer = std::chrono::milliseconds(1);

  hvd::FusionOptions opt;
  opt.threshold_bytes = bucket_mb << 20;
  opt.overlap = overlap;
  opt.sim_net_latency_s = 300e-6;
  opt.sim_net_bytes_per_s = 2.0e9;
  for (auto _ : state) {
    comm::World::run(ranks, [&](comm::Communicator& c) {
      hvd::Context ctx(c);
      std::vector<Tensor> grads;
      for (std::size_t t = 0; t < kLayers; ++t)
        grads.emplace_back(Shape{kElemsPerLayer}, 1.0f);
      std::vector<Tensor*> ptrs;
      for (auto& g : grads) ptrs.push_back(&g);
      hvd::FusionBuffer buffer;
      if (overlap) {
        hvd::BucketScheduler scheduler(ctx, opt, buffer);
        scheduler.bind(ptrs);
        for (std::size_t step = 0; step < kStepsPerIter; ++step) {
          for (std::size_t t = kLayers; t-- > 0;) {
            std::this_thread::sleep_for(kComputePerLayer);  // layer backward
            scheduler.mark_ready(t, 1);
          }
          const hvd::FusionStats stats = scheduler.drain();
          benchmark::DoNotOptimize(&stats);
        }
      } else {
        for (std::size_t step = 0; step < kStepsPerIter; ++step) {
          for (std::size_t t = kLayers; t-- > 0;)
            std::this_thread::sleep_for(kComputePerLayer);  // layer backward
          hvd::allreduce_average_fused(ctx, ptrs, opt, &buffer);
        }
      }
    });
  }
  state.SetLabel(overlap ? "overlap" : "sync");
  state.counters["steps"] =
      benchmark::Counter(static_cast<double>(kStepsPerIter),
                         benchmark::Counter::kIsIterationInvariant);
}

BENCHMARK(BM_OverlapStep)
    ->ArgNames({"ranks", "bucket_mb", "overlap"})
    ->Args({2, 1, 0})->Args({2, 1, 1})
    ->Args({2, 8, 0})->Args({2, 8, 1})
    ->Args({2, 64, 0})->Args({2, 64, 1})
    ->Args({4, 1, 0})->Args({4, 1, 1})
    ->Args({4, 8, 0})->Args({4, 8, 1})
    ->Args({4, 64, 0})->Args({4, 64, 1})
    ->Args({8, 1, 0})->Args({8, 1, 1})
    ->Args({8, 8, 0})->Args({8, 8, 1})
    ->Args({8, 64, 0})->Args({8, 64, 1})
    ->UseRealTime()->Unit(benchmark::kMillisecond)->MinTime(0.4);

// Collective sweep: ranks x fusion bucket size x algorithm x wire dtype x
// emulated wire bandwidth, one fused 16 MB gradient exchange per step. The
// sim_net byte term is algorithm- and dtype-aware, so a compressed dtype
// genuinely shrinks the emulated transfer (fp16/bf16 halve it, int8
// quarters it plus the per-chunk scale metadata) and the hierarchical
// algorithm pays only its inter-node share (ranks_per_node = 2 here). The
// bandwidth axis spans the crossover: on the fast wire (8 GB/s,
// NVLink-class) the codec's conversion cost outweighs the few ms of
// transfer it saves and fp32 stays ahead; on the slow wire (100 MB/s, a
// congested fat-tree share) shrinking the bytes buys far more than the
// conversions cost, fp16/bf16 win over fp32, and int8's 4x cut beats both
// 16-bit dtypes despite its steeper quantizer. The extended RunSimulator
// model predicts the same ordering flips (EXPERIMENTS.md). Committed as
// BENCH_collectives.json.
void BM_CollectiveSweep(benchmark::State& state) {
  const auto ranks = static_cast<std::size_t>(state.range(0));
  const auto bucket_mb = static_cast<std::size_t>(state.range(1));
  const auto algo = static_cast<comm::AllreduceAlgo>(state.range(2));
  const auto dtype = static_cast<comm::WireDtype>(state.range(3));
  const auto net_mbps = static_cast<std::size_t>(state.range(4));
  constexpr std::size_t kLayers = 16;
  constexpr std::size_t kElemsPerLayer = (1ull << 20) / sizeof(float);

  comm::WorldOptions world;
  world.allreduce_algo = algo;
  world.ranks_per_node = 2;
  hvd::FusionOptions opt;
  opt.threshold_bytes = bucket_mb << 20;
  opt.wire_dtype = dtype;
  opt.sim_net_latency_s = 300e-6;
  opt.sim_net_bytes_per_s = static_cast<double>(net_mbps) * 1.0e6;
  for (auto _ : state) {
    comm::World::run(
        ranks,
        [&](comm::Communicator& c) {
          hvd::Context ctx(c);
          std::vector<Tensor> grads;
          for (std::size_t t = 0; t < kLayers; ++t)
            grads.emplace_back(Shape{kElemsPerLayer}, 1.0f);
          std::vector<Tensor*> ptrs;
          for (auto& g : grads) ptrs.push_back(&g);
          hvd::FusionBuffer buffer;
          hvd::allreduce_average_fused(ctx, ptrs, opt, &buffer);
        },
        world);
  }
  state.SetLabel(std::string(comm::allreduce_algo_name(algo)) + "/" +
                 comm::wire_dtype_name(dtype));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kLayers * kElemsPerLayer *
                                               sizeof(float)));
}

BENCHMARK(BM_CollectiveSweep)
    ->ArgNames({"ranks", "bucket_mb", "algo", "dtype", "net_mbps"})
    ->ArgsProduct({{4, 8}, {4, 16}, {0, 1, 2}, {0, 1, 2, 3}, {100, 8000}})
    ->UseRealTime()->Unit(benchmark::kMillisecond)->MinTime(0.2);

// Hierarchical local-wire ablation: the intra-node member exchanges of the
// hierarchical algorithm compressed independently of the inter-node leader
// ring (WorldOptions::local_wire_dtype). The emulated wire only charges the
// inter-node share, so the local axis isolates the NVLink-tier codec cost:
// int8 local legs pay quantization on every member exchange for bytes the
// emulated network never bills, quantifying what a bandwidth-starved
// intra-node fabric would have to save to justify it.
void BM_HierarchicalLocalWire(benchmark::State& state) {
  const auto wire = static_cast<comm::WireDtype>(state.range(0));
  const auto local_wire = static_cast<comm::WireDtype>(state.range(1));
  constexpr std::size_t kRanks = 8;
  constexpr std::size_t kLayers = 16;
  constexpr std::size_t kElemsPerLayer = (1ull << 20) / sizeof(float);

  comm::WorldOptions world;
  world.allreduce_algo = comm::AllreduceAlgo::kHierarchical;
  world.ranks_per_node = 4;
  world.local_wire_dtype = local_wire;
  hvd::FusionOptions opt;
  opt.threshold_bytes = 16ull << 20;
  opt.wire_dtype = wire;
  opt.sim_net_latency_s = 300e-6;
  opt.sim_net_bytes_per_s = 100.0e6;
  for (auto _ : state) {
    comm::World::run(
        kRanks,
        [&](comm::Communicator& c) {
          hvd::Context ctx(c);
          std::vector<Tensor> grads;
          for (std::size_t t = 0; t < kLayers; ++t)
            grads.emplace_back(Shape{kElemsPerLayer}, 1.0f);
          std::vector<Tensor*> ptrs;
          for (auto& g : grads) ptrs.push_back(&g);
          hvd::FusionBuffer buffer;
          hvd::allreduce_average_fused(ctx, ptrs, opt, &buffer);
        },
        world);
  }
  state.SetLabel(std::string("wire=") + comm::wire_dtype_name(wire) +
                 "/local=" + comm::wire_dtype_name(local_wire));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kLayers * kElemsPerLayer *
                                               sizeof(float)));
}

BENCHMARK(BM_HierarchicalLocalWire)
    ->ArgNames({"dtype", "local_dtype"})
    ->ArgsProduct({{0, 3}, {0, 3}})
    ->UseRealTime()->Unit(benchmark::kMillisecond)->MinTime(0.2);

}  // namespace

BENCHMARK_MAIN();
