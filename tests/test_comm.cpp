// Tests for src/comm: the in-process multi-rank runtime and collectives.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <ostream>
#include <string>

#include "comm/communicator.h"
#include "common/error.h"
#include "common/rng.h"

namespace candle::comm {
namespace {

// ---------------------------------------------------------------------------
// World basics
// ---------------------------------------------------------------------------

TEST(World, RejectsZeroRanks) {
  EXPECT_THROW(World w(0), InvalidArgument);
}

TEST(World, RunsEveryRankExactlyOnce) {
  std::atomic<int> count{0};
  std::vector<std::atomic<int>> seen(4);
  World::run(4, [&](Communicator& c) {
    ++count;
    seen[c.rank()]++;
    EXPECT_EQ(c.size(), 4u);
  });
  EXPECT_EQ(count.load(), 4);
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(World, LocalRankAndNodeFollowSummitLayout) {
  WorldOptions opt;
  opt.ranks_per_node = 6;  // Summit: 6 GPUs per node
  World::run(
      13,
      [&](Communicator& c) {
        EXPECT_EQ(c.local_rank(), c.rank() % 6);
        EXPECT_EQ(c.node(), c.rank() / 6);
      },
      opt);
}

TEST(World, BodyExceptionIsRethrown) {
  EXPECT_THROW(World::run(3,
                          [](Communicator& c) {
                            if (c.rank() == 1)
                              throw InvalidArgument("rank 1 fails");
                            c.barrier();  // survivors must not deadlock
                          }),
               InvalidArgument);
}

TEST(World, BarrierSynchronizes) {
  // After the barrier every rank must observe all pre-barrier increments.
  std::atomic<int> before{0};
  World::run(8, [&](Communicator& c) {
    ++before;
    c.barrier();
    EXPECT_EQ(before.load(), 8);
  });
}

// ---------------------------------------------------------------------------
// Allreduce
// ---------------------------------------------------------------------------

void check_allreduce_sum(std::size_t ranks, std::size_t n,
                         AllreduceAlgo algo) {
  WorldOptions opt;
  opt.allreduce_algo = algo;
  World::run(
      ranks,
      [&](Communicator& c) {
        // data[i] = rank + i, so the sum is ranks*i + ranks(ranks-1)/2.
        std::vector<float> data(n);
        for (std::size_t i = 0; i < n; ++i)
          data[i] = static_cast<float>(c.rank() + i);
        c.allreduce_sum(data);
        const float rank_sum =
            static_cast<float>(ranks * (ranks - 1)) / 2.0f;
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_FLOAT_EQ(data[i],
                          static_cast<float>(ranks * i) + rank_sum)
              << "ranks=" << ranks << " n=" << n << " i=" << i;
      },
      opt);
}

TEST(Allreduce, RingMatchesExpectedSums) {
  for (std::size_t ranks : {1u, 2u, 3u, 4u, 6u, 8u, 13u})
    for (std::size_t n : {1u, 5u, 64u, 1000u})
      check_allreduce_sum(ranks, n, AllreduceAlgo::kRing);
}

TEST(Allreduce, NaiveMatchesExpectedSums) {
  for (std::size_t ranks : {2u, 5u, 7u})
    for (std::size_t n : {1u, 17u, 256u})
      check_allreduce_sum(ranks, n, AllreduceAlgo::kNaive);
}

TEST(Allreduce, RingHandlesFewerElementsThanRanks) {
  check_allreduce_sum(8, 3, AllreduceAlgo::kRing);
  check_allreduce_sum(6, 1, AllreduceAlgo::kRing);
}

TEST(Allreduce, HierarchicalMatchesExpectedSums) {
  // Rank counts covering: single node, exact multi-node, partial last node.
  for (std::size_t ranks : {1u, 4u, 6u, 12u, 13u, 18u})
    for (std::size_t n : {1u, 7u, 256u})
      check_allreduce_sum(ranks, n, AllreduceAlgo::kHierarchical);
}

TEST(Allreduce, HierarchicalAgreesWithRingOnRandomData) {
  const std::size_t ranks = 13;  // partial last node with 6 ranks/node
  std::vector<std::vector<float>> ring_out(ranks), hier_out(ranks);
  for (AllreduceAlgo algo :
       {AllreduceAlgo::kRing, AllreduceAlgo::kHierarchical}) {
    auto& out = algo == AllreduceAlgo::kRing ? ring_out : hier_out;
    WorldOptions opt;
    opt.allreduce_algo = algo;
    opt.ranks_per_node = 6;
    World::run(
        ranks,
        [&](Communicator& c) {
          Rng rng(300 + c.rank());
          std::vector<float> data(143);
          for (float& v : data) v = static_cast<float>(rng.normal(0, 1));
          c.allreduce_average(data);
          out[c.rank()] = data;
        },
        opt);
  }
  for (std::size_t r = 0; r < ranks; ++r)
    for (std::size_t i = 0; i < 143; ++i)
      ASSERT_NEAR(ring_out[r][i], hier_out[r][i], 1e-4f)
          << "r=" << r << " i=" << i;
}

TEST(Allreduce, HierarchicalLeadersCarryInterNodeTraffic) {
  // Node leaders (local_rank 0) move strictly more bytes than members.
  WorldOptions opt;
  opt.allreduce_algo = AllreduceAlgo::kHierarchical;
  opt.ranks_per_node = 3;
  const auto stats = World::run(
      9,
      [](Communicator& c) {
        std::vector<float> data(300, 1.0f);
        c.allreduce_sum(data);
      },
      opt);
  for (std::size_t r = 0; r < 9; ++r) {
    if (r % 3 == 0) {
      EXPECT_GT(stats[r].bytes_sent, stats[r + 1].bytes_sent) << r;
    } else {
      // Members only copy the final buffer from their leader.
      EXPECT_EQ(stats[r].bytes_sent, 300 * sizeof(float)) << r;
    }
  }
}

TEST(Allreduce, AverageDividesBySize) {
  World::run(4, [](Communicator& c) {
    std::vector<float> data{static_cast<float>(c.rank()) * 4.0f};
    c.allreduce_average(data);
    EXPECT_FLOAT_EQ(data[0], 6.0f);  // (0+4+8+12)/4
  });
}

TEST(Allreduce, RingAgreesWithNaiveOnRandomData) {
  for (std::size_t ranks : {3u, 5u, 6u}) {
    std::vector<std::vector<float>> ring_out(ranks), naive_out(ranks);
    for (AllreduceAlgo algo : {AllreduceAlgo::kRing, AllreduceAlgo::kNaive}) {
      auto& out = algo == AllreduceAlgo::kRing ? ring_out : naive_out;
      WorldOptions opt;
      opt.allreduce_algo = algo;
      World::run(
          ranks,
          [&](Communicator& c) {
            Rng rng(100 + c.rank());
            std::vector<float> data(97);
            for (float& v : data)
              v = static_cast<float>(rng.normal(0.0, 1.0));
            c.allreduce_sum(data);
            out[c.rank()] = data;
          },
          opt);
    }
    for (std::size_t r = 0; r < ranks; ++r)
      for (std::size_t i = 0; i < 97; ++i)
        ASSERT_NEAR(ring_out[r][i], naive_out[r][i], 1e-4f)
            << "ranks=" << ranks << " r=" << r << " i=" << i;
  }
}

TEST(Allreduce, AllRanksEndIdentical) {
  const std::size_t ranks = 6;
  std::vector<std::vector<float>> results(ranks);
  World::run(ranks, [&](Communicator& c) {
    Rng rng(7 + c.rank() * 13);
    std::vector<float> data(50);
    for (float& v : data) v = static_cast<float>(rng.uniform(-1, 1));
    c.allreduce_average(data);
    results[c.rank()] = data;
  });
  for (std::size_t r = 1; r < ranks; ++r)
    for (std::size_t i = 0; i < 50; ++i)
      ASSERT_FLOAT_EQ(results[0][i], results[r][i]);
}

TEST(Allreduce, MismatchedCountsThrow) {
  EXPECT_THROW(World::run(2,
                          [](Communicator& c) {
                            std::vector<float> data(c.rank() + 1);
                            c.allreduce_sum(data);
                          }),
               CommError);
}

TEST(Allreduce, RingByteAccountingMatchesTheory) {
  // Ring moves 2(P-1)/P * N elements per rank.
  const std::size_t ranks = 4, n = 400;
  const auto stats = World::run(ranks, [&](Communicator& c) {
    std::vector<float> data(n, 1.0f);
    c.allreduce_sum(data);
  });
  for (const auto& s : stats) {
    EXPECT_EQ(s.allreduce_calls, 1u);
    EXPECT_EQ(s.bytes_sent,
              2 * (ranks - 1) * (n / ranks) * sizeof(float));
  }
}

// ---------------------------------------------------------------------------
// Broadcast
// ---------------------------------------------------------------------------

TEST(Broadcast, CopiesRootDataToAllRanks) {
  for (std::size_t ranks : {2u, 3u, 6u, 9u}) {
    World::run(ranks, [&](Communicator& c) {
      std::vector<float> data(32);
      if (c.rank() == 0)
        for (std::size_t i = 0; i < data.size(); ++i)
          data[i] = static_cast<float>(i) * 1.5f;
      c.broadcast(data, 0);
      for (std::size_t i = 0; i < data.size(); ++i)
        ASSERT_FLOAT_EQ(data[i], static_cast<float>(i) * 1.5f)
            << "ranks=" << ranks;
    });
  }
}

TEST(Broadcast, NonZeroRoot) {
  World::run(5, [](Communicator& c) {
    std::vector<float> data{c.rank() == 3 ? 42.0f : 0.0f};
    c.broadcast(data, 3);
    EXPECT_FLOAT_EQ(data[0], 42.0f);
  });
}

TEST(Broadcast, RootOutOfRangeThrows) {
  EXPECT_THROW(World::run(2,
                          [](Communicator& c) {
                            std::vector<float> data(1);
                            c.broadcast(data, 5);
                          }),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Reduce-to-root
// ---------------------------------------------------------------------------

TEST(ReduceTo, RootGetsSumOthersUnchanged) {
  World::run(5, [](Communicator& c) {
    std::vector<float> data(8, static_cast<float>(c.rank() + 1));
    c.reduce_sum_to(data, 2);
    if (c.rank() == 2) {
      for (float v : data) ASSERT_FLOAT_EQ(v, 15.0f);  // 1+2+3+4+5
    } else {
      for (float v : data)
        ASSERT_FLOAT_EQ(v, static_cast<float>(c.rank() + 1));
    }
  });
}

TEST(ReduceTo, RootOutOfRangeThrows) {
  EXPECT_THROW(World::run(2,
                          [](Communicator& c) {
                            std::vector<float> d(1);
                            c.reduce_sum_to(d, 7);
                          }),
               InvalidArgument);
}

TEST(ReduceTo, CountsInStats) {
  const auto stats = World::run(3, [](Communicator& c) {
    std::vector<float> d(4, 1.0f);
    c.reduce_sum_to(d, 0);
  });
  for (const auto& s : stats) EXPECT_EQ(s.reduce_calls, 1u);
  // Only the root moves bytes (it reads the two peers).
  EXPECT_EQ(stats[0].bytes_sent, 2 * 4 * sizeof(float));
  EXPECT_EQ(stats[1].bytes_sent, 0u);
}

// ---------------------------------------------------------------------------
// Allgather / scalar reduce
// ---------------------------------------------------------------------------

TEST(Allgather, GathersInRankOrder) {
  World::run(4, [](Communicator& c) {
    const std::vector<float> mine{static_cast<float>(c.rank()) * 10.0f,
                                  static_cast<float>(c.rank()) * 10.0f + 1};
    std::vector<float> all;
    c.allgather(mine, all);
    ASSERT_EQ(all.size(), 8u);
    for (std::size_t r = 0; r < 4; ++r) {
      EXPECT_FLOAT_EQ(all[r * 2], static_cast<float>(r) * 10.0f);
      EXPECT_FLOAT_EQ(all[r * 2 + 1], static_cast<float>(r) * 10.0f + 1);
    }
  });
}

TEST(AllreduceScalar, SumsDoubles) {
  World::run(6, [](Communicator& c) {
    const double sum = c.allreduce_scalar(1.5);
    EXPECT_NEAR(sum, 9.0, 1e-6);
  });
}

TEST(CommStats, CountsCollectiveCalls) {
  const auto stats = World::run(3, [](Communicator& c) {
    std::vector<float> d(8, 1.0f);
    c.allreduce_sum(d);
    c.allreduce_average(d);
    c.broadcast(d, 0);
    std::vector<float> all;
    c.allgather(d, all);
    c.barrier();
  });
  for (const auto& s : stats) {
    EXPECT_EQ(s.allreduce_calls, 2u);
    EXPECT_EQ(s.broadcast_calls, 1u);
    EXPECT_EQ(s.allgather_calls, 1u);
    EXPECT_EQ(s.barrier_calls, 1u);
  }
}

// ---------------------------------------------------------------------------
// Compressed collectives (fp16/bf16 wire, fp32 master accumulation)
// ---------------------------------------------------------------------------

void check_compressed_sum(std::size_t ranks, std::size_t n,
                          AllreduceAlgo algo, WireDtype dtype) {
  // Small integers and their sums are exactly representable in fp16 and
  // bf16, so the compressed reduction must still be exact.
  WorldOptions opt;
  opt.allreduce_algo = algo;
  opt.ranks_per_node = 3;
  opt.wire_dtype = dtype;
  World::run(
      ranks,
      [&](Communicator& c) {
        std::vector<float> data(n);
        for (std::size_t i = 0; i < n; ++i)
          data[i] = static_cast<float>(c.rank() + i % 5);
        c.allreduce_sum(data);
        const float rank_sum =
            static_cast<float>(ranks * (ranks - 1)) / 2.0f;
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_FLOAT_EQ(data[i], static_cast<float>(ranks * (i % 5)) +
                                       rank_sum)
              << allreduce_algo_name(algo) << "/" << wire_dtype_name(dtype)
              << " ranks=" << ranks << " n=" << n << " i=" << i;
      },
      opt);
}

TEST(CompressedAllreduce, ExactOnSmallIntegersAcrossAlgosAndRankCounts) {
  for (AllreduceAlgo algo : {AllreduceAlgo::kRing, AllreduceAlgo::kNaive,
                             AllreduceAlgo::kHierarchical})
    for (WireDtype dtype : {WireDtype::kFp16, WireDtype::kBf16})
      for (std::size_t ranks : {1u, 2u, 3u, 4u, 7u})
        for (std::size_t n : {1u, 5u, 64u, 1000u})
          check_compressed_sum(ranks, n, algo, dtype);
}

TEST(CompressedAllreduce, AllRanksBitIdenticalAndDeterministic) {
  // Rank-invariance: every rank must end with bit-identical fp32 results
  // (the synchronous SGD contract), and a re-run must reproduce them.
  const std::size_t ranks = 5, n = 137;
  for (AllreduceAlgo algo : {AllreduceAlgo::kRing, AllreduceAlgo::kNaive,
                             AllreduceAlgo::kHierarchical}) {
    for (WireDtype dtype :
         {WireDtype::kFp16, WireDtype::kBf16, WireDtype::kInt8}) {
      WorldOptions opt;
      opt.allreduce_algo = algo;
      opt.ranks_per_node = 2;
      opt.wire_dtype = dtype;
      std::vector<std::vector<float>> first(ranks), second(ranks);
      for (auto* out : {&first, &second}) {
        World::run(
            ranks,
            [&](Communicator& c) {
              Rng rng(900 + c.rank());
              std::vector<float> data(n);
              for (float& v : data)
                v = static_cast<float>(rng.normal(0.0, 1.0));
              c.allreduce_average(data);
              (*out)[c.rank()] = data;
            },
            opt);
      }
      for (std::size_t r = 0; r < ranks; ++r) {
        ASSERT_EQ(0, std::memcmp(first[0].data(), first[r].data(),
                                 n * sizeof(float)))
            << allreduce_algo_name(algo) << "/" << wire_dtype_name(dtype)
            << " rank " << r;
        ASSERT_EQ(0, std::memcmp(first[r].data(), second[r].data(),
                                 n * sizeof(float)))
            << allreduce_algo_name(algo) << "/" << wire_dtype_name(dtype)
            << " rerun, rank " << r;
      }
    }
  }
}

TEST(CompressedAllreduce, TracksExactAverageWithinCodecErrorBound) {
  // Random data: the compressed average must stay within the documented
  // per-hop relative error times the (P+1) quantizations a ring reduction
  // can accumulate.
  const std::size_t ranks = 6, n = 211;
  std::vector<float> exact(n);
  std::vector<std::vector<float>> got(ranks);
  World::run(ranks, [&](Communicator& c) {
    Rng rng(77 + c.rank());
    std::vector<float> data(n);
    for (float& v : data)
      v = static_cast<float>(rng.uniform(0.5, 2.0));  // same-sign, O(1)
    c.allreduce_average(data);
    if (c.rank() == 0) exact = data;
  });
  for (WireDtype dtype : {WireDtype::kFp16, WireDtype::kBf16}) {
    WorldOptions opt;
    opt.wire_dtype = dtype;
    World::run(
        ranks,
        [&](Communicator& c) {
          Rng rng(77 + c.rank());
          std::vector<float> data(n);
          for (float& v : data)
            v = static_cast<float>(rng.uniform(0.5, 2.0));
          c.allreduce_average(data);
          got[c.rank()] = data;
        },
        opt);
    const float rel =
        dtype == WireDtype::kFp16 ? 0x1p-11f : 0x1p-8f;
    const float bound = static_cast<float>(ranks + 1) * rel * 2.0f;
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_NEAR(got[0][i], exact[i], bound * std::fabs(exact[i]))
          << wire_dtype_name(dtype) << " i=" << i;
  }
}

TEST(CompressedAllreduce, WireByteCountersPerAlgoAndDtype) {
  // Ring moves 2(P-1) segments of n/P elements per rank; with a 16-bit
  // wire each costs 2 bytes. The counters are indexed [algo][dtype].
  const std::size_t ranks = 4, n = 400;
  WorldOptions opt;
  opt.wire_dtype = WireDtype::kFp16;
  const auto stats = World::run(
      ranks,
      [&](Communicator& c) {
        std::vector<float> data(n, 1.0f);
        c.allreduce_sum(data);
      },
      opt);
  const std::size_t expected = 2 * (ranks - 1) * (n / ranks) * 2;
  for (const auto& s : stats) {
    EXPECT_EQ(s.allreduce_wire_bytes[allreduce_algo_index(
                  AllreduceAlgo::kRing)][wire_dtype_index(WireDtype::kFp16)],
              expected);
    EXPECT_EQ(s.wire_bytes(WireDtype::kFp16), expected);
    EXPECT_EQ(s.wire_bytes(WireDtype::kFp32), 0u);
    EXPECT_EQ(s.wire_bytes(WireDtype::kBf16), 0u);
    // The per-algo/dtype rows partition the allreduce traffic.
    EXPECT_EQ(s.bytes_sent, expected);
  }
}

TEST(CompressedAllreduce, ScalarMetricsStayFp32UnderCompressedDefault) {
  // allreduce_scalar (losses, accuracies) must never quantize, even when
  // the world default wire dtype is compressed.
  WorldOptions opt;
  opt.wire_dtype = WireDtype::kBf16;
  const auto stats = World::run(
      3,
      [](Communicator& c) {
        const double sum = c.allreduce_scalar(1.0 / 3.0);
        EXPECT_NEAR(sum, 1.0, 1e-6);
      },
      opt);
  for (const auto& s : stats) {
    EXPECT_EQ(s.wire_bytes(WireDtype::kBf16), 0u);
    EXPECT_GT(s.wire_bytes(WireDtype::kFp32), 0u);
  }
}

TEST(CompressedAllreduce, PerCallDtypeOverridesWorldDefault) {
  WorldOptions opt;
  opt.wire_dtype = WireDtype::kFp32;
  const auto stats = World::run(
      2,
      [](Communicator& c) {
        std::vector<float> data(100, static_cast<float>(c.rank()));
        c.allreduce_sum(data, WireDtype::kFp16);
        for (float v : data) ASSERT_FLOAT_EQ(v, 1.0f);
      },
      opt);
  for (const auto& s : stats) EXPECT_GT(s.wire_bytes(WireDtype::kFp16), 0u);
}

TEST(CompressedAllreduce, SingleRankIgnoresCompression) {
  // One rank moves no bytes: the value must stay bit-exact (no quantize).
  WorldOptions opt;
  opt.wire_dtype = WireDtype::kFp16;
  World::run(
      1,
      [](Communicator& c) {
        std::vector<float> data{1.0001220703125f};  // 1 + 2^-13: not fp16
        c.allreduce_sum(data);
        EXPECT_EQ(data[0], 1.0001220703125f);
      },
      opt);
}

TEST(CompressedAllreduce, MismatchedDtypesThrow) {
  EXPECT_THROW(World::run(2,
                          [](Communicator& c) {
                            std::vector<float> data(8, 1.0f);
                            c.allreduce_sum(data, c.rank() == 0
                                                      ? WireDtype::kFp16
                                                      : WireDtype::kBf16);
                          }),
               CommError);
  EXPECT_THROW(World::run(2,
                          [](Communicator& c) {
                            std::vector<float> data(8, 1.0f);
                            c.allreduce_sum(data, c.rank() == 0
                                                      ? WireDtype::kInt8
                                                      : WireDtype::kFp16);
                          }),
               CommError);
}

// ---------------------------------------------------------------------------
// Int8 collectives: block-scaled wire with per-chunk fp32 scales
// ---------------------------------------------------------------------------

/// Signed-grid test pattern: w[i] in {0, +127, -127}. Rank r holds
/// (r+1) * w[i], so every partial sum any algorithm forms is S * w[i] for
/// some positive integer S — each quantization chunk's values are exactly
/// {0, +/-absmax}, which the symmetric int8 grid represents exactly at ANY
/// chunk boundary (absmax = 127 S, quant = 0 or +/-127, dequant step = S).
/// The whole reduction is therefore exact end to end regardless of segment
/// offsets, hop order, or hierarchical node layout.
float int8_grid_weight(std::size_t i) {
  switch (i % 3) {
    case 0: return 0.0f;
    case 1: return 127.0f;
    default: return -127.0f;
  }
}

TEST(Int8Allreduce, ExactOnSignedGridAcrossAlgosAndRankCounts) {
  for (AllreduceAlgo algo : {AllreduceAlgo::kRing, AllreduceAlgo::kNaive,
                             AllreduceAlgo::kHierarchical}) {
    for (std::size_t ranks : {1u, 2u, 3u, 4u, 7u}) {
      for (std::size_t n : {1u, 5u, 64u, 523u, 1000u}) {
        WorldOptions opt;
        opt.allreduce_algo = algo;
        opt.ranks_per_node = 3;
        opt.wire_dtype = WireDtype::kInt8;
        World::run(
            ranks,
            [&](Communicator& c) {
              std::vector<float> data(n);
              for (std::size_t i = 0; i < n; ++i)
                data[i] = static_cast<float>(c.rank() + 1) *
                          int8_grid_weight(i);
              c.allreduce_sum(data);
              const float s =
                  static_cast<float>(ranks * (ranks + 1)) / 2.0f;
              for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(data[i], s * int8_grid_weight(i))
                    << allreduce_algo_name(algo) << " ranks=" << ranks
                    << " n=" << n << " i=" << i;
            },
            opt);
      }
    }
  }
}

TEST(Int8Allreduce, TracksExactAverageWithinChunkErrorBound) {
  // Random same-sign data: each of the (P+1) quantizations a ring
  // reduction can apply to an element adds at most chunk_absmax / 254,
  // and every partial sum is bounded by P * max|data|.
  const std::size_t ranks = 6, n = 700;
  std::vector<float> exact(n);
  std::vector<std::vector<float>> got(ranks);
  World::run(ranks, [&](Communicator& c) {
    Rng rng(78 + c.rank());
    std::vector<float> data(n);
    for (float& v : data) v = static_cast<float>(rng.uniform(0.5, 2.0));
    c.allreduce_average(data);
    if (c.rank() == 0) exact = data;
  });
  WorldOptions opt;
  opt.wire_dtype = WireDtype::kInt8;
  World::run(
      ranks,
      [&](Communicator& c) {
        Rng rng(78 + c.rank());
        std::vector<float> data(n);
        for (float& v : data) v = static_cast<float>(rng.uniform(0.5, 2.0));
        c.allreduce_average(data);
        got[c.rank()] = data;
      },
      opt);
  const float bound = static_cast<float>(ranks + 1) *
                      (static_cast<float>(ranks) * 2.0f / 254.0f) /
                      static_cast<float>(ranks);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_NEAR(got[0][i], exact[i], bound) << "i=" << i;
}

TEST(Int8Allreduce, WireByteCountersIncludeScaleMetadata) {
  // Ring moves 2(P-1) segments of n/P elements per rank; at int8 each
  // segment costs its payload bytes plus one fp32 scale per 256-element
  // chunk (wire_range_bytes).
  const std::size_t ranks = 4, n = 4096;
  WorldOptions opt;
  opt.wire_dtype = WireDtype::kInt8;
  const auto stats = World::run(
      ranks,
      [&](Communicator& c) {
        std::vector<float> data(n, 1.0f);
        c.allreduce_sum(data);
      },
      opt);
  const std::size_t expected =
      2 * (ranks - 1) * wire_range_bytes(WireDtype::kInt8, n / ranks);
  for (const auto& s : stats) {
    EXPECT_EQ(s.allreduce_wire_bytes[allreduce_algo_index(
                  AllreduceAlgo::kRing)][wire_dtype_index(WireDtype::kInt8)],
              expected);
    EXPECT_EQ(s.wire_bytes(WireDtype::kInt8), expected);
    EXPECT_EQ(s.wire_bytes(WireDtype::kFp32), 0u);
    EXPECT_EQ(s.bytes_sent, expected);
  }
}

TEST(Int8Allreduce, SingleRankIgnoresCompression) {
  WorldOptions opt;
  opt.wire_dtype = WireDtype::kInt8;
  World::run(
      1,
      [](Communicator& c) {
        std::vector<float> data{0.3333333f};  // far off any int8 grid
        c.allreduce_sum(data);
        EXPECT_EQ(data[0], 0.3333333f);
      },
      opt);
}

TEST(ReduceScatter, Int8ExactOnSignedGrid) {
  for (std::size_t ranks : {2u, 3u, 5u}) {
    WorldOptions opt;
    opt.wire_dtype = WireDtype::kInt8;
    World::run(
        ranks,
        [&](Communicator& c) {
          const std::size_t n = 700;
          std::vector<float> data(n);
          for (std::size_t i = 0; i < n; ++i)
            data[i] =
                static_cast<float>(c.rank() + 1) * int8_grid_weight(i);
          c.reduce_scatter(data);
          const float s = static_cast<float>(ranks * (ranks + 1)) / 2.0f;
          const std::size_t b = c.rank() * n / ranks;
          const std::size_t e = (c.rank() + 1) * n / ranks;
          for (std::size_t i = b; i < e; ++i)
            ASSERT_EQ(data[i], s * int8_grid_weight(i))
                << "ranks=" << ranks << " i=" << i;
          // Compose with the allgather: every rank ends with the full sum.
          c.allgather(std::span<float>(data));
          for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(data[i], s * int8_grid_weight(i))
                << "ranks=" << ranks << " i=" << i;
        },
        opt);
  }
}

// ---------------------------------------------------------------------------
// Hierarchical local-wire compression (WorldOptions::local_wire_dtype)
// ---------------------------------------------------------------------------

TEST(HierarchicalLocalWire, ExactOnSignedGridAcrossCombos) {
  // All four (inter, intra) dtype combinations on a layout with a
  // member-less tail node (5 ranks, 2 per node -> nodes {0,1},{2,3},{4}).
  for (WireDtype wire : {WireDtype::kFp32, WireDtype::kInt8}) {
    for (WireDtype local : {WireDtype::kFp32, WireDtype::kFp16,
                            WireDtype::kInt8}) {
      WorldOptions opt;
      opt.allreduce_algo = AllreduceAlgo::kHierarchical;
      opt.ranks_per_node = 2;
      opt.wire_dtype = wire;
      opt.local_wire_dtype = local;
      const std::size_t ranks = 5, n = 523;
      World::run(
          ranks,
          [&](Communicator& c) {
            std::vector<float> data(n);
            for (std::size_t i = 0; i < n; ++i)
              data[i] =
                  static_cast<float>(c.rank() + 1) * int8_grid_weight(i);
            c.allreduce_sum(data);
            const float s = static_cast<float>(ranks * (ranks + 1)) / 2.0f;
            for (std::size_t i = 0; i < n; ++i)
              ASSERT_EQ(data[i], s * int8_grid_weight(i))
                  << wire_dtype_name(wire) << "/" << wire_dtype_name(local)
                  << " i=" << i;
          },
          opt);
    }
  }
}

TEST(HierarchicalLocalWire, AllRanksBitIdenticalIncludingSingletonNode) {
  // Random data: the rank-4 singleton node has no members, but its leader
  // must round-trip through the local codec exactly like every other rank
  // — otherwise it would keep exact values the rest of the world lost.
  const std::size_t ranks = 5, n = 391;
  for (WireDtype wire : {WireDtype::kFp32, WireDtype::kInt8}) {
    WorldOptions opt;
    opt.allreduce_algo = AllreduceAlgo::kHierarchical;
    opt.ranks_per_node = 2;
    opt.wire_dtype = wire;
    opt.local_wire_dtype = WireDtype::kInt8;
    std::vector<std::vector<float>> first(ranks), second(ranks);
    for (auto* out : {&first, &second}) {
      World::run(
          ranks,
          [&](Communicator& c) {
            Rng rng(910 + c.rank());
            std::vector<float> data(n);
            for (float& v : data)
              v = static_cast<float>(rng.normal(0.0, 1.0));
            c.allreduce_average(data);
            (*out)[c.rank()] = data;
          },
          opt);
    }
    for (std::size_t r = 0; r < ranks; ++r) {
      ASSERT_EQ(0, std::memcmp(first[0].data(), first[r].data(),
                               n * sizeof(float)))
          << wire_dtype_name(wire) << " rank " << r;
      ASSERT_EQ(0, std::memcmp(first[r].data(), second[r].data(),
                               n * sizeof(float)))
          << wire_dtype_name(wire) << " rerun, rank " << r;
    }
  }
}

TEST(HierarchicalLocalWire, LocalLegBytesChargedAtLocalDtype) {
  // 4 ranks, 2 per node, fp32 leader ring, int8 local legs: each leader
  // charges one int8 image inbound in phase 1, each member one outbound
  // decode in phase 3, and leaders move the fp32 leader ring (2 hops of
  // n/2 elements). All of it lands in the call's [kHierarchical][fp32]
  // row — the local dtype is a property of the legs, not the call.
  const std::size_t ranks = 4, n = 512;
  WorldOptions opt;
  opt.allreduce_algo = AllreduceAlgo::kHierarchical;
  opt.ranks_per_node = 2;
  opt.local_wire_dtype = WireDtype::kInt8;
  const auto stats = World::run(
      ranks,
      [&](Communicator& c) {
        std::vector<float> data(n, 1.0f);
        c.allreduce_sum(data);
      },
      opt);
  const std::size_t image = wire_range_bytes(WireDtype::kInt8, n);
  const std::size_t leader_ring = 2 * (n / 2) * sizeof(float);
  for (std::size_t r = 0; r < ranks; ++r) {
    const std::size_t expected =
        r % 2 == 0 ? image + leader_ring : image;
    EXPECT_EQ(stats[r].bytes_sent, expected) << "rank " << r;
    EXPECT_EQ(stats[r].allreduce_wire_bytes[allreduce_algo_index(
                  AllreduceAlgo::kHierarchical)]
                                           [wire_dtype_index(
                                               WireDtype::kFp32)],
              expected)
        << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// Standalone reduce_scatter / in-place allgather (tensor-parallel primitives)
// ---------------------------------------------------------------------------

/// Ring segment boundary used by the standalone collectives (gran = 1).
std::size_t seg_off(std::size_t g, std::size_t n, std::size_t p) {
  return g * n / p;
}

TEST(ReduceScatter, RankOwnsItsSummedSegment) {
  // data[i] = (rank+1)*(i+1): the cross-rank sum is (i+1)*P(P+1)/2, exact
  // in fp32 for these small integers under any association.
  for (std::size_t ranks : {1u, 2u, 3u, 4u, 7u}) {
    for (std::size_t n : {1u, 8u, 65u, 400u}) {
      World::run(ranks, [&](Communicator& c) {
        std::vector<float> data(n);
        for (std::size_t i = 0; i < n; ++i)
          data[i] = static_cast<float>((c.rank() + 1) * (i + 1));
        c.reduce_scatter(data);
        const float psum =
            static_cast<float>(ranks * (ranks + 1)) / 2.0f;
        const std::size_t b = seg_off(c.rank(), n, ranks);
        const std::size_t e = seg_off(c.rank() + 1, n, ranks);
        for (std::size_t i = b; i < e; ++i)
          ASSERT_FLOAT_EQ(data[i], static_cast<float>(i + 1) * psum)
              << "ranks=" << ranks << " n=" << n << " i=" << i;
      });
    }
  }
}

TEST(AllgatherInplace, DistributesEachOwnedSegment) {
  for (std::size_t ranks : {1u, 2u, 3u, 4u, 7u}) {
    for (std::size_t n : {1u, 8u, 65u, 400u}) {
      World::run(ranks, [&](Communicator& c) {
        // Only the owned segment holds real data; the rest is a poison
        // value the collective must overwrite (for segments that exist).
        std::vector<float> data(n, -1000.0f);
        const std::size_t b = seg_off(c.rank(), n, ranks);
        const std::size_t e = seg_off(c.rank() + 1, n, ranks);
        for (std::size_t i = b; i < e; ++i)
          data[i] = static_cast<float>(100 * c.rank() + i);
        c.allgather(std::span<float>(data));
        for (std::size_t g = 0; g < ranks; ++g) {
          const std::size_t gb = seg_off(g, n, ranks);
          const std::size_t ge = seg_off(g + 1, n, ranks);
          for (std::size_t i = gb; i < ge; ++i)
            ASSERT_FLOAT_EQ(data[i], static_cast<float>(100 * g + i))
                << "ranks=" << ranks << " n=" << n << " i=" << i;
        }
      });
    }
  }
}

TEST(ReduceScatter, ComposedWithAllgatherMatchesAllreduceExactly) {
  // reduce_scatter + in-place allgather IS the ring allreduce, so on
  // small integers (exact in fp32) the composition must reproduce
  // allreduce_sum bit for bit.
  const std::size_t ranks = 4, n = 103;
  World::run(ranks, [&](Communicator& c) {
    std::vector<float> data(n), reference(n);
    for (std::size_t i = 0; i < n; ++i)
      reference[i] = data[i] = static_cast<float>(c.rank() + i % 9);
    c.allreduce_sum(reference);
    c.reduce_scatter(std::span<float>(data));
    c.allgather(std::span<float>(data));
    ASSERT_EQ(0, std::memcmp(data.data(), reference.data(),
                             n * sizeof(float)));
  });
}

TEST(ReduceScatter, ByteCountersMatchRingFormula) {
  // The standalone ring phases each move (P-1) * n/P elements per rank —
  // exactly half an allreduce.
  const std::size_t ranks = 4, n = 400;
  const auto stats = World::run(ranks, [&](Communicator& c) {
    std::vector<float> data(n, 1.0f);
    c.reduce_scatter(data);
    c.allgather(std::span<float>(data));
  });
  const std::size_t expected = (ranks - 1) * (n / ranks) * sizeof(float);
  for (const auto& s : stats) {
    EXPECT_EQ(s.reduce_scatter_calls, 1u);
    EXPECT_EQ(s.allgather_calls, 1u);
    EXPECT_EQ(s.reduce_scatter_wire_bytes[wire_dtype_index(WireDtype::kFp32)],
              expected);
    EXPECT_EQ(s.allgather_wire_bytes[wire_dtype_index(WireDtype::kFp32)],
              expected);
    EXPECT_EQ(s.bytes_sent, 2 * expected);
  }
}

TEST(ReduceScatter, CompressedByteCountersUseWireWidth) {
  const std::size_t ranks = 4, n = 400;
  WorldOptions opt;
  opt.wire_dtype = WireDtype::kFp16;
  const auto stats = World::run(
      ranks,
      [&](Communicator& c) {
        std::vector<float> data(n, 1.0f);
        c.reduce_scatter(data);
        c.allgather(std::span<float>(data));
      },
      opt);
  const std::size_t expected = (ranks - 1) * (n / ranks) * 2;
  for (const auto& s : stats) {
    EXPECT_EQ(s.reduce_scatter_wire_bytes[wire_dtype_index(WireDtype::kFp16)],
              expected);
    EXPECT_EQ(s.allgather_wire_bytes[wire_dtype_index(WireDtype::kFp16)],
              expected);
    EXPECT_EQ(s.bytes_sent, 2 * expected);
  }
}

TEST(ReduceScatter, CompressedExactOnSmallIntegers) {
  for (WireDtype dtype : {WireDtype::kFp16, WireDtype::kBf16}) {
    for (std::size_t ranks : {2u, 3u, 5u}) {
      WorldOptions opt;
      opt.wire_dtype = dtype;
      World::run(
          ranks,
          [&](Communicator& c) {
            const std::size_t n = 64;
            std::vector<float> data(n);
            for (std::size_t i = 0; i < n; ++i)
              data[i] = static_cast<float>(c.rank() + i % 5);
            c.reduce_scatter(data);
            const float rank_sum =
                static_cast<float>(ranks * (ranks - 1)) / 2.0f;
            const std::size_t b = seg_off(c.rank(), n, ranks);
            const std::size_t e = seg_off(c.rank() + 1, n, ranks);
            for (std::size_t i = b; i < e; ++i)
              ASSERT_FLOAT_EQ(data[i],
                              static_cast<float>(ranks * (i % 5)) + rank_sum)
                  << wire_dtype_name(dtype) << " ranks=" << ranks;
          },
          opt);
    }
  }
}

TEST(AllgatherInplace, CompressedEndsBitIdenticalAcrossRanks) {
  // With a compressed wire the owner round-trips its own segment through
  // the codec, so every rank — owner included — must end bit-identical.
  const std::size_t ranks = 5, n = 137;
  for (WireDtype dtype :
       {WireDtype::kFp16, WireDtype::kBf16, WireDtype::kInt8}) {
    WorldOptions opt;
    opt.wire_dtype = dtype;
    std::vector<std::vector<float>> out(ranks);
    World::run(
        ranks,
        [&](Communicator& c) {
          Rng rng(31 + c.rank());
          std::vector<float> data(n, 0.0f);
          const std::size_t b = seg_off(c.rank(), n, ranks);
          const std::size_t e = seg_off(c.rank() + 1, n, ranks);
          for (std::size_t i = b; i < e; ++i)
            data[i] = static_cast<float>(rng.normal(0.0, 1.0));
          c.allgather(std::span<float>(data));
          out[c.rank()] = data;
        },
        opt);
    for (std::size_t r = 1; r < ranks; ++r)
      ASSERT_EQ(0, std::memcmp(out[0].data(), out[r].data(),
                               n * sizeof(float)))
          << wire_dtype_name(dtype) << " rank " << r;
  }
}

TEST(AllgatherInplace, GranularityGathersColumnBlocks) {
  // granularity = rows gathers per-rank column blocks of a row-major
  // (rows, cols) matrix laid out block-contiguously — the layer-forward
  // use case, including uneven blocks (cols = 6 over 4 ranks -> 1,2,1,2).
  const std::size_t ranks = 4, rows = 3, cols = 6, n = rows * cols;
  World::run(ranks, [&](Communicator& c) {
    std::vector<float> data(n, -1.0f);
    const std::size_t b = rows * seg_off(c.rank(), cols, ranks);
    const std::size_t e = rows * seg_off(c.rank() + 1, cols, ranks);
    for (std::size_t i = b; i < e; ++i)
      data[i] = static_cast<float>(10 * c.rank()) + static_cast<float>(i);
    c.allgather(std::span<float>(data), WireDtype::kFp32, rows);
    for (std::size_t g = 0; g < ranks; ++g) {
      const std::size_t gb = rows * seg_off(g, cols, ranks);
      const std::size_t ge = rows * seg_off(g + 1, cols, ranks);
      for (std::size_t i = gb; i < ge; ++i)
        ASSERT_FLOAT_EQ(data[i],
                        static_cast<float>(10 * g) + static_cast<float>(i))
            << "block " << g << " i=" << i;
    }
  });
}

TEST(ReduceScatter, GranularityMismatchThrows) {
  EXPECT_THROW(
      World::run(2,
                 [](Communicator& c) {
                   std::vector<float> data(12, 1.0f);
                   c.reduce_scatter(std::span<float>(data), WireDtype::kFp32,
                                    c.rank() == 0 ? 1 : 3);
                 }),
      CommError);
}

TEST(ReduceScatter, IndivisibleGranularityThrows) {
  EXPECT_THROW(World::run(2,
                          [](Communicator& c) {
                            std::vector<float> data(10, 1.0f);
                            c.reduce_scatter(std::span<float>(data),
                                             WireDtype::kFp32, 3);
                          }),
               InvalidArgument);
}

TEST(ReduceScatter, OpMismatchWithAllgatherThrows) {
  // Rendezvous cross-check: one rank calling reduce_scatter while another
  // calls allgather must fail loudly, not deadlock or corrupt.
  EXPECT_THROW(World::run(2,
                          [](Communicator& c) {
                            std::vector<float> data(8, 1.0f);
                            if (c.rank() == 0)
                              c.reduce_scatter(std::span<float>(data));
                            else
                              c.allgather(std::span<float>(data));
                          }),
               CommError);
}

TEST(ReduceScatter, DeterministicAcrossRuns) {
  // Same inputs -> bit-identical owned segments on a re-run (ring order is
  // fixed, not timing-dependent).
  const std::size_t ranks = 3, n = 91;
  std::vector<std::vector<float>> first(ranks), second(ranks);
  for (auto* out : {&first, &second}) {
    World::run(ranks, [&](Communicator& c) {
      Rng rng(55 + c.rank());
      std::vector<float> data(n);
      for (float& v : data) v = static_cast<float>(rng.normal(0.0, 1.0));
      c.reduce_scatter(data);
      (*out)[c.rank()] = data;
    });
  }
  for (std::size_t r = 0; r < ranks; ++r) {
    const std::size_t b = seg_off(r, n, ranks) * sizeof(float);
    const std::size_t e = seg_off(r + 1, n, ranks) * sizeof(float);
    ASSERT_EQ(0, std::memcmp(
                     reinterpret_cast<const char*>(first[r].data()) + b,
                     reinterpret_cast<const char*>(second[r].data()) + b,
                     e - b))
        << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// Cross-version golden digests
// ---------------------------------------------------------------------------
//
// Every collective's output bits and every per-rank CommStats counter,
// FNV-1a-digested over seeded normal data. The exactness tests above use
// small integers that sum exactly in any order, and the random-data
// comparisons allow a tolerance, so neither would notice a change in the
// order a segment is summed in, in where a compressed hop re-encodes, or in
// what a collective charges. These digests do: a refactor of the
// collectives must reproduce them bit for bit. They were recorded on an
// x86-64 host; the codec's scalar and AVX2 kernels are bit-identical, so
// they do not depend on the dispatch.

struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void bytes(const void* p, std::size_t len) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void floats(std::span<const float> v) { bytes(v.data(), v.size_bytes()); }
  void stats(const CommStats& s) {
    for (std::size_t v :
         {s.allreduce_calls, s.broadcast_calls, s.reduce_calls,
          s.allgather_calls, s.reduce_scatter_calls, s.barrier_calls,
          s.bytes_sent})
      u64(v);
    for (const auto& per_algo : s.allreduce_wire_bytes)
      for (std::size_t v : per_algo) u64(v);
    for (std::size_t v : s.reduce_scatter_wire_bytes) u64(v);
    for (std::size_t v : s.allgather_wire_bytes) u64(v);
  }
};

enum class GoldenOp {
  kAllreduce,              // sum + average, every wire dtype
  kReduceScatterAllgather, // reduce_scatter then in-place allgather
  kReduceTo,               // reduce_sum_to at root 0 and root P-1
  kConcatAllgather,        // allgather(span<const float>, vector&)
  kBroadcast,              // broadcast at roots P/2 and P-1
};

struct GoldenCase {
  const char* name;
  std::uint64_t digest;
  GoldenOp op;
  AllreduceAlgo algo = AllreduceAlgo::kRing;
  std::size_t ranks_per_node = 6;
  WireDtype local_wire = WireDtype::kFp32;
  std::size_t granularity = 1;
};

void PrintTo(const GoldenCase& gc, std::ostream* os) { *os << gc.name; }

constexpr WireDtype kGoldenDtypes[] = {WireDtype::kFp32, WireDtype::kFp16,
                                       WireDtype::kBf16, WireDtype::kInt8};
constexpr std::size_t kGoldenSizes[] = {0, 1, 3, 97, 256, 257, 1000};

// Seeded standard-normal data (Irwin-Hall: twelve uniforms minus six).
// Exact integer-derived arithmetic, unlike Rng::normal's log/sin/cos, so the
// inputs are the same bits with any libm.
std::vector<float> golden_data(std::size_t ranks, std::size_t n,
                               std::size_t salt, std::size_t rank) {
  Rng rng(Rng(1'000'003 * ranks + 10'007 * n + salt).fork(rank));
  std::vector<float> v(n);
  for (float& x : v) {
    double sum = -6.0;
    for (int k = 0; k < 12; ++k) sum += rng.uniform();
    x = static_cast<float>(sum);
  }
  return v;
}

// Runs one case at world size `ranks`; returns the rank-ordered digest.
std::uint64_t golden_world(const GoldenCase& gc, std::size_t ranks) {
  WorldOptions opt;
  opt.allreduce_algo = gc.algo;
  opt.ranks_per_node = gc.ranks_per_node;
  opt.local_wire_dtype = gc.local_wire;
  std::vector<std::uint64_t> per_rank(ranks);
  World::run(
      ranks,
      [&](Communicator& c) {
        Fnv1a f;
        const std::size_t r = c.rank();
        auto record = [&](std::span<const float> out) {
          f.floats(out);
          f.stats(c.stats());
        };
        for (std::size_t n : kGoldenSizes) {
          switch (gc.op) {
            case GoldenOp::kAllreduce:
              for (WireDtype d : kGoldenDtypes) {
                auto sum = golden_data(ranks, n, wire_dtype_index(d), r);
                c.allreduce_sum(sum, d);
                record(sum);
                auto avg = golden_data(ranks, n, 4 + wire_dtype_index(d), r);
                c.allreduce_average(avg, d);
                record(avg);
              }
              break;
            case GoldenOp::kReduceScatterAllgather:
              for (WireDtype d : kGoldenDtypes) {
                auto v = golden_data(ranks, n * gc.granularity,
                                     wire_dtype_index(d), r);
                c.reduce_scatter(v, d, gc.granularity);
                record(v);
                c.allgather(v, d, gc.granularity);
                record(v);
              }
              break;
            case GoldenOp::kReduceTo:
              for (std::size_t root : {std::size_t{0}, ranks - 1}) {
                auto v = golden_data(ranks, n, root, r);
                c.reduce_sum_to(v, root);
                record(v);
              }
              break;
            case GoldenOp::kConcatAllgather: {
              // n = 0 contributes nothing: a zero-length gather.
              const auto mine = golden_data(ranks, n, 0, r);
              std::vector<float> all{-1.0f};
              c.allgather(mine, all);
              record(all);
              break;
            }
            case GoldenOp::kBroadcast:
              for (std::size_t root : {ranks / 2, ranks - 1}) {
                auto v = golden_data(ranks, n, root, r);
                c.broadcast(v, root);
                record(v);
              }
              break;
          }
        }
        per_rank[r] = f.h;
      },
      opt);
  Fnv1a all;
  for (std::uint64_t h : per_rank) all.u64(h);
  return all.h;
}

class CommGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(CommGolden, OutputsAndCountersMatchRecordedDigest) {
  const GoldenCase& gc = GetParam();
  Fnv1a all;
  for (std::size_t ranks : {1u, 2u, 3u, 4u, 5u, 7u, 13u})
    all.u64(golden_world(gc, ranks));
  char got[32];
  std::snprintf(got, sizeof got, "0x%016llxull",
                static_cast<unsigned long long>(all.h));
  EXPECT_EQ(all.h, gc.digest) << gc.name << " digest is " << got;
}

INSTANTIATE_TEST_SUITE_P(
    Table, CommGolden,
    ::testing::Values(
        GoldenCase{"ring", 0xee78429172035b16ull, GoldenOp::kAllreduce,
                   AllreduceAlgo::kRing},
        GoldenCase{"naive", 0xc576d166d0d905f3ull, GoldenOp::kAllreduce,
                   AllreduceAlgo::kNaive},
        GoldenCase{"hier_rpn2", 0xb5b8afdf644d6ee8ull, GoldenOp::kAllreduce,
                   AllreduceAlgo::kHierarchical, 2},
        GoldenCase{"hier_rpn3", 0xe124633e86c1bdd1ull, GoldenOp::kAllreduce,
                   AllreduceAlgo::kHierarchical, 3},
        GoldenCase{"hier_rpn6", 0x08c097fc1b3548c2ull, GoldenOp::kAllreduce,
                   AllreduceAlgo::kHierarchical, 6},
        GoldenCase{"hier_rpn2_local_int8", 0x32d94069ac4e7332ull,
                   GoldenOp::kAllreduce, AllreduceAlgo::kHierarchical, 2,
                   WireDtype::kInt8},
        GoldenCase{"hier_rpn3_local_int8", 0x1666a3e86e441ca8ull,
                   GoldenOp::kAllreduce, AllreduceAlgo::kHierarchical, 3,
                   WireDtype::kInt8},
        GoldenCase{"hier_rpn6_local_int8", 0x4cc785d6e583f253ull,
                   GoldenOp::kAllreduce, AllreduceAlgo::kHierarchical, 6,
                   WireDtype::kInt8},
        GoldenCase{"reduce_scatter_allgather_g1", 0x5e8f359ff833af69ull,
                   GoldenOp::kReduceScatterAllgather},
        GoldenCase{"reduce_scatter_allgather_g3", 0xcd8b0518ef0a3f46ull,
                   GoldenOp::kReduceScatterAllgather, AllreduceAlgo::kRing,
                   6, WireDtype::kFp32, 3},
        GoldenCase{"reduce_sum_to", 0x7fc7365941792368ull,
                   GoldenOp::kReduceTo},
        GoldenCase{"concat_allgather", 0x95f62535b398553full,
                   GoldenOp::kConcatAllgather},
        GoldenCase{"broadcast", 0x0654c1acc235a36eull,
                   GoldenOp::kBroadcast}),
    [](const ::testing::TestParamInfo<GoldenCase>& row) {
      return std::string(row.param.name);
    });

// Parameterized stress: repeated mixed collectives stay consistent.
class CollectiveStress : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CollectiveStress, RepeatedRoundsStayCorrect) {
  const std::size_t ranks = GetParam();
  World::run(ranks, [&](Communicator& c) {
    for (int round = 0; round < 25; ++round) {
      std::vector<float> d(31, static_cast<float>(c.rank() + round));
      c.allreduce_average(d);
      const float expected =
          static_cast<float>(ranks - 1) / 2.0f + static_cast<float>(round);
      for (float v : d) ASSERT_NEAR(v, expected, 1e-4f);
      std::vector<float> b{static_cast<float>(round)};
      c.broadcast(b, round % ranks);
      ASSERT_FLOAT_EQ(b[0], static_cast<float>(round));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveStress,
                         ::testing::Values(1, 2, 4, 6, 12));

}  // namespace
}  // namespace candle::comm
