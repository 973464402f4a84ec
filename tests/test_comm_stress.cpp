// Rendezvous stress tests, designed to run under the TSan preset
// (cmake --preset tsan): many rank threads, repeated iterations, interleaved
// collectives, and the fused gradient exchange — the access patterns where a
// race in the registration metadata, the ring segments, or the shared
// timeline state would surface as a TSan report or a wrong sum.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "comm/communicator.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "hvd/context.h"
#include "hvd/distributed_optimizer.h"
#include "nn/optimizer.h"
#include "tensor/tensor.h"
#include "trace/timeline.h"

namespace candle::comm {
namespace {

// TSan multiplies runtime ~5-15x; keep rounds modest so the suite stays
// fast everywhere while still interleaving enough phases to expose races.
constexpr int kRounds = 12;

// Interleaves every collective in one loop so consecutive operations reuse
// the rendezvous slots: a registration from round i leaking into round i+1
// (missing barrier, stale pointer) corrupts a checked sum.
void mixed_collective_rounds(std::size_t ranks, AllreduceAlgo algo) {
  WorldOptions opt;
  opt.allreduce_algo = algo;
  opt.ranks_per_node = 4;
  World::run(
      ranks,
      [&](Communicator& c) {
        const float fr = static_cast<float>(c.rank());
        for (int round = 0; round < kRounds; ++round) {
          const float base = static_cast<float>(round);

          // Allreduce with a round-dependent payload size (re-registers a
          // different buffer every round).
          std::vector<float> grad(17 + 13 * (round % 3), fr + base);
          c.allreduce_sum(grad);
          const float rank_sum =
              static_cast<float>(ranks * (ranks - 1)) / 2.0f;
          for (float v : grad)
            ASSERT_FLOAT_EQ(v, rank_sum + base * static_cast<float>(ranks));

          // Broadcast from a rotating root.
          const std::size_t root = static_cast<std::size_t>(round) % ranks;
          std::vector<float> weights(
              9, c.rank() == root ? base * 2.0f : -1.0f);
          c.broadcast(weights, root);
          for (float v : weights) ASSERT_FLOAT_EQ(v, base * 2.0f);

          // Reduce onto a different rotating root.
          const std::size_t rroot =
              static_cast<std::size_t>(round + 1) % ranks;
          std::vector<float> push(5, 1.0f);
          c.reduce_sum_to(push, rroot);
          if (c.rank() == rroot) {
            for (float v : push)
              ASSERT_FLOAT_EQ(v, static_cast<float>(ranks));
          }

          // Allgather + explicit barrier to close the round.
          const std::vector<float> mine{fr, base};
          std::vector<float> all;
          c.allgather(mine, all);
          ASSERT_EQ(all.size(), ranks * 2);
          for (std::size_t r = 0; r < ranks; ++r)
            ASSERT_FLOAT_EQ(all[r * 2], static_cast<float>(r));
          c.barrier();
        }
      },
      opt);
}

TEST(CommStress, RingMixedCollectives) {
  mixed_collective_rounds(8, AllreduceAlgo::kRing);
}

TEST(CommStress, NaiveMixedCollectives) {
  mixed_collective_rounds(6, AllreduceAlgo::kNaive);
}

TEST(CommStress, HierarchicalMixedCollectivesPartialNode) {
  // 10 ranks at 4 ranks/node: two full nodes plus a partial straggler node.
  mixed_collective_rounds(10, AllreduceAlgo::kHierarchical);
}

TEST(CommStress, ManyRanksSmallPayload) {
  // More ranks than payload elements: ring segments degenerate to empty
  // ranges for most ranks — the classic off-by-one breeding ground.
  World::run(16, [](Communicator& c) {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<float> d(3, 1.0f);
      c.allreduce_sum(d);
      for (float v : d) ASSERT_FLOAT_EQ(v, 16.0f);
    }
  });
}

TEST(CommStress, FusedGradientExchangeWithSharedTimeline) {
  // The full Horovod-layer path: every rank drives a DistributedOptimizer
  // whose negotiate/allreduce phases log into one shared Timeline while
  // the collectives run — the exact concurrent write pattern the
  // annotated mutex serializes.
  const std::size_t ranks = 8;
  trace::Timeline timeline;
  Stopwatch clock;
  World::run(ranks, [&](Communicator& c) {
    hvd::Context ctx(c, &timeline, &clock);
    hvd::FusionOptions fusion;
    fusion.threshold_bytes = 256;  // tiny buffer => many fused groups
    hvd::DistributedOptimizer opt(
        std::make_unique<nn::Sgd>(0.1), ctx, fusion);

    Tensor w1({24}, 1.0f), w2({40}, 2.0f), w3({8}, 3.0f);
    Tensor g1({24}), g2({40}), g3({8});
    for (int step = 0; step < kRounds; ++step) {
      for (std::size_t i = 0; i < g1.numel(); ++i)
        g1[i] = static_cast<float>(c.rank());
      g2.zero();
      for (std::size_t i = 0; i < g3.numel(); ++i)
        g3[i] = static_cast<float>(step);
      opt.apply({&w1, &w2, &w3}, {&g1, &g2, &g3});

      // Averaged gradients are rank-independent, so weights stay in
      // lockstep; any divergence means a fused segment got mixed up.
      const double r = c.allreduce_scalar(static_cast<double>(w1[0]));
      ASSERT_NEAR(r, static_cast<double>(w1[0]) * ranks, 1e-5);
    }
  });
  // Every rank logged one negotiate event per step plus one NCCL event per
  // fusion bucket (24+40 floats fill the 64-float buffer, 8 spill into a
  // second bucket).
  EXPECT_EQ(timeline.size(), ranks * kRounds * 3);
  EXPECT_EQ(timeline.count_events(trace::kNcclAllreduce, 0),
            static_cast<std::size_t>(kRounds) * 2);
  for (std::size_t r = 0; r < ranks; ++r)
    EXPECT_EQ(timeline.count_events(trace::kNegotiateAllreduce, r),
              static_cast<std::size_t>(kRounds))
        << "rank " << r;
}

TEST(CommStress, RepeatedWorldsReuseCleanly) {
  // Worlds are created and torn down back to back; a thread from world i
  // touching freed rendezvous state would be an ASan/TSan report here.
  for (int iter = 0; iter < 6; ++iter) {
    std::vector<CommStats> stats = World::run(5, [&](Communicator& c) {
      std::vector<float> d(11, static_cast<float>(c.rank() + iter));
      c.allreduce_average(d);
      const float expected =
          static_cast<float>(5 - 1) / 2.0f + static_cast<float>(iter);
      for (float v : d) ASSERT_NEAR(v, expected, 1e-5f);
    });
    for (const auto& s : stats) EXPECT_EQ(s.allreduce_calls, 1u);
  }
}

}  // namespace
}  // namespace candle::comm
