// In-process multi-rank communication runtime.
//
// This substitutes for MPI + NCCL in the paper's Horovod stack: every MPI
// rank is a thread of one process, and the collectives move real bytes
// between per-rank buffers using the same algorithms the real libraries use
// (ring allreduce as in NCCL/baidu-allreduce, the two-level intra-node /
// inter-node reduction NCCL runs on Summit, binomial-tree broadcast as in
// MPI_Bcast). Collectives are synchronized with a phase barrier; the
// algorithms are lock-free between barriers because every rank writes only
// its own buffers.
//
// Every reduction and gather is built from three primitives, each
// parameterized by a wire codec (wire_codec.h):
//  - the ring reduce-scatter hop loop and
//  - the ring allgather hop loop, over any ring (the whole world, or the
//    node leaders), segment granularity and ownership offset;
//  - the group pair: reduce onto a root, then copy from the root.
// The ring allreduce is reduce-scatter + allgather; the public
// reduce_scatter/allgather are the same loops with rank r owning segment r;
// the hierarchical allreduce is a group reduce per node, the ring over the
// node leaders, and a group copy; kNaive is its one-node case. fp32 is the
// identity codec: a rank's own fp32 buffer is its wire image, so the fp32
// collectives encode nothing and stay bit-exact.
//
// Usage:
//   comm::World::run(4, [](comm::Communicator& c) {
//     std::vector<float> grad = ...;
//     c.allreduce_average(grad);
//   });
#pragma once

#include <array>
#include <atomic>
#include <barrier>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "comm/wire_codec.h"
#include "common/thread_annotations.h"

namespace candle::comm {

/// Reduction algorithm selection.
enum class AllreduceAlgo {
  kRing,          // NCCL-style ring: 2(P-1)/P * N data volume per rank
  kNaive,         // reduce to rank 0 + copy back: the one-node hierarchical
  kHierarchical,  // two-level: intra-node reduce, inter-node ring over node
                  // leaders, intra-node broadcast (NCCL on Summit's
                  // NVLink-within/IB-between topology)
};

/// Number of allreduce algorithms (fixed-size stats arrays in CommStats).
inline constexpr std::size_t kNumAllreduceAlgos = 3;

/// Stable index of an algorithm for stats arrays / CLI tables.
[[nodiscard]] constexpr std::size_t allreduce_algo_index(AllreduceAlgo a) {
  return static_cast<std::size_t>(a);
}

/// Human-readable algorithm name ("ring" | "naive" | "hierarchical").
[[nodiscard]] const char* allreduce_algo_name(AllreduceAlgo a);

/// Parses an --allreduce-algo value; throws InvalidArgument on unknown names.
[[nodiscard]] AllreduceAlgo parse_allreduce_algo(const char* name);

/// Per-rank traffic accounting, used by tests and the fusion ablation.
struct CommStats {
  std::size_t allreduce_calls = 0;
  std::size_t broadcast_calls = 0;
  std::size_t reduce_calls = 0;
  std::size_t allgather_calls = 0;
  std::size_t reduce_scatter_calls = 0;
  std::size_t barrier_calls = 0;
  std::size_t bytes_sent = 0;  // bytes this rank moved to a peer buffer

  /// On-wire bytes this rank moved per allreduce [algo][dtype] — the
  /// observable half of compressed collectives: an fp16/bf16 reduction of
  /// the same payload shows half the bytes of its fp32 row, int8 a quarter
  /// plus the per-chunk scale metadata (wire_range_bytes). Indexed with
  /// allreduce_algo_index() / wire_dtype_index(); also counted in
  /// bytes_sent. A hierarchical call with a compressed local_wire_dtype
  /// charges its intra-node legs at the local dtype's width, accumulated
  /// under the call's [kHierarchical][wire] row.
  std::array<std::array<std::size_t, kNumWireDtypes>, kNumAllreduceAlgos>
      allreduce_wire_bytes{};

  /// On-wire bytes per standalone reduce_scatter / allgather collective,
  /// by dtype (also counted in bytes_sent). The ring formulas are exact
  /// and asserted in test_comm.cpp: with P ranks and n elements divisible
  /// by P, each rank moves (P-1) * n/P elements per call. The concat-style
  /// allgather overload is the in-place ring allgather over its
  /// contributions, so it charges (P-1) * contribution bytes here too.
  std::array<std::size_t, kNumWireDtypes> reduce_scatter_wire_bytes{};
  std::array<std::size_t, kNumWireDtypes> allgather_wire_bytes{};

  /// Sum of allreduce_wire_bytes over algorithms for one dtype.
  [[nodiscard]] std::size_t wire_bytes(WireDtype d) const {
    std::size_t total = 0;
    for (const auto& per_algo : allreduce_wire_bytes)
      total += per_algo[wire_dtype_index(d)];
    return total;
  }
};

class World;
struct WorldOptions;

/// Per-rank handle; valid only inside World::run's callback, on that thread.
class Communicator {
 public:
  [[nodiscard]] std::size_t rank() const { return rank_; }
  [[nodiscard]] std::size_t size() const;

  /// Rank within the node, given `ranks_per_node` from the WorldOptions
  /// (Summit: 6 GPUs per node -> local_rank in 0..5, as in the paper).
  [[nodiscard]] std::size_t local_rank() const;
  [[nodiscard]] std::size_t node() const;

  /// World configuration this rank runs under (algorithm, topology, default
  /// wire dtype) — lets callers model per-rank collective cost.
  [[nodiscard]] const WorldOptions& world_options() const;

  /// Blocks until all ranks arrive.
  void barrier();

  /// In-place sum-reduction across all ranks; every rank ends with the sum.
  /// Uses the world's default wire dtype (kFp32 unless configured).
  void allreduce_sum(std::span<float> data);

  /// allreduce_sum with an explicit on-wire dtype for this collective. With
  /// kFp16/kBf16 every inter-rank hop moves 16-bit words — and with kInt8
  /// block-scaled bytes plus per-chunk fp32 scales — while each rank
  /// accumulates its owned ring segment in the fp32 buffer itself (fp32
  /// master accumulation): one encode/decode pair per hop, identical op
  /// order on every rank, so the result is deterministic and rank-invariant
  /// for a fixed dtype. Compressed results carry the codec's documented
  /// error bound (see wire_codec.h) instead of bit-exactness; kFp32 is
  /// bit-identical to the overload above. All ranks must pass the same
  /// dtype — the rendezvous rejects a mismatch with CommError.
  void allreduce_sum(std::span<float> data, WireDtype wire);

  /// allreduce_sum followed by division by world size (gradient averaging).
  void allreduce_average(std::span<float> data);

  /// allreduce_average with an explicit on-wire dtype (see allreduce_sum).
  /// The averaging divide runs after the reduction, as the same fp32 op on
  /// bit-identical inputs on every rank.
  void allreduce_average(std::span<float> data, WireDtype wire);

  /// Copies root's buffer into every rank's buffer (binomial tree).
  void broadcast(std::span<float> data, std::size_t root);

  /// Sum-reduction onto `root` only (MPI_Reduce): root ends with the sum,
  /// other ranks' buffers are unchanged. Used by the parameter-server
  /// baseline's gradient push.
  void reduce_sum_to(std::span<float> data, std::size_t root);

  /// Gathers equal-size contributions from all ranks, in rank order.
  void allgather(std::span<const float> contribution,
                 std::vector<float>& gathered);

  /// In-place ring reduce-scatter (MPI_Reduce_scatter_block generalized to
  /// the ring's uneven segments): on return, rank r's segment r of the ring
  /// partition holds the element-wise sum over all ranks; the rest of the
  /// buffer holds partial sums and must be treated as scratch. Segment g
  /// covers [off(g), off(g+1)) with off(g) = granularity * (g * (n /
  /// granularity) / P) — granularity-aligned boundaries let callers gather
  /// per-rank blocks of `granularity`-strided rows (n must be divisible by
  /// granularity). Deterministic and rank-invariant: the ring schedule
  /// fixes the accumulation order per segment independent of thread timing.
  /// With a compressed wire dtype every hop moves 16-bit words and fuses
  /// decode+add into the fp32 master buffer (wire_codec.h).
  void reduce_scatter(std::span<float> data);
  void reduce_scatter(std::span<float> data, WireDtype wire,
                      std::size_t granularity = 1);

  /// In-place ring allgather, the inverse of reduce_scatter: rank r
  /// contributes its segment r (same boundary function, same granularity
  /// rules) and on return every rank holds every segment. With a
  /// compressed dtype each segment crosses the wire once in 16-bit words
  /// and the contributing rank round-trips its own segment through the
  /// codec, so all ranks end bit-identical.
  void allgather(std::span<float> data);
  void allgather(std::span<float> data, WireDtype wire,
                 std::size_t granularity = 1);

  /// Reduces a single double (sum) — convenience for scalar metrics.
  double allreduce_scalar(double value);

  [[nodiscard]] const CommStats& stats() const { return stats_; }

  /// Number of collectives this rank has issued. The rendezvous cross-checks
  /// it (together with the op name) across ranks at registration, so a rank
  /// that skips, reorders, or interleaves collectives — e.g. an overlap
  /// scheduler letting a bucket leak across a step boundary — fails fast
  /// with CommError instead of silently reducing mismatched buffers.
  [[nodiscard]] std::uint64_t collective_seq() const { return seq_; }

 private:
  friend class World;
  Communicator(World& world, std::size_t rank)
      : world_(&world), rank_(rank) {}

  World* world_;
  std::size_t rank_;
  CommStats stats_;
  /// Bumped at the start of every collective. Per-rank collectives are
  /// serialized (one issuing thread at a time — the rank thread, or its
  /// overlap comm thread while the rank thread is quiesced), so no atomics.
  std::uint64_t seq_ = 0;
  /// Persistent per-rank staging for compressed collectives: the wire
  /// image peers read — n 16-bit words for fp16/bf16, or the planar
  /// [scales | int8 payload] image for int8 (wire_codec.h), sized by
  /// wire::wire_image_scratch_elems. fp32 needs none: the buffer itself is
  /// the image. Incoming segments need no fp32 landing zone — the fused
  /// decode_add kernels accumulate straight into the master buffer in one
  /// pass. Grows only, so steady-state training does not allocate per
  /// bucket. Same serialization as seq_.
  std::vector<std::uint16_t> wire_scratch_;

  std::uint16_t* scratch(std::size_t elems) {
    if (wire_scratch_.size() < elems) wire_scratch_.resize(elems);
    return wire_scratch_.data();
  }
};

/// World configuration.
struct WorldOptions {
  std::size_t ranks_per_node = 6;  // Summit node: 6 V100s
  AllreduceAlgo allreduce_algo = AllreduceAlgo::kRing;
  /// Default on-wire dtype for allreduce_sum/allreduce_average calls that
  /// do not pass one explicitly. kFp32 keeps the bit-exact contract;
  /// allreduce_scalar always stays fp32 so scalar metrics never quantize.
  WireDtype wire_dtype = WireDtype::kFp32;
  /// On-wire dtype for the intra-node legs (phases 1 and 3) of the
  /// kHierarchical allreduce, for when `local_bw` — not the inter-node
  /// wire — is the bottleneck. kFp32 (the default) keeps the intra-node
  /// legs exact; a compressed dtype makes members publish encoded images
  /// for the leader's phase-1 reduce and decode the leader's re-encoded
  /// result in phase 3 (leaders round-trip their own image so every rank
  /// of the world still ends bit-identical). World-level configuration —
  /// never per call — so ranks can never disagree about it. Ignored by
  /// the other algorithms.
  WireDtype local_wire_dtype = WireDtype::kFp32;
};

/// Owns the shared rendezvous state for `size` rank threads.
///
/// Thread model: the collective *payload* is synchronized by the phase
/// barrier (every rank writes only its own buffer between barriers), while
/// the rendezvous *metadata* — which buffer each rank registered and with
/// how many elements — is guarded by `reg_mutex_` and only touched through
/// the annotated helpers below, so clang -Wthread-safety proves the lock
/// discipline at compile time.
class World {
 public:
  explicit World(std::size_t size, WorldOptions options = {});
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const WorldOptions& options() const { return options_; }

  /// Spawns `size` threads, each running `body` with its Communicator.
  /// Rethrows the first exception thrown by any rank (after joining all).
  /// Returns the per-rank CommStats.
  static std::vector<CommStats> run(
      std::size_t size, const std::function<void(Communicator&)>& body,
      WorldOptions options = {});

 private:
  friend class Communicator;
  struct Ring;  // one ring as a rank sees it (communicator.cpp)

  void do_barrier();

  // Collectives. Each bumps the rank's sequence number, publishes its entry
  // images, meets the others at the rendezvous, runs its primitives, and
  // ends on a barrier so no peer still reads a buffer the caller reuses.
  void allreduce(Communicator& self, std::span<float> data, bool average,
                 WireDtype wire);
  void allreduce_two_level(Communicator& self, std::span<float> data,
                           std::uint64_t seq, WireDtype wire,
                           WireDtype local_wire, std::size_t ranks_per_node);
  void do_broadcast(Communicator& self, std::span<float> data,
                    std::size_t root);
  void do_reduce_to(Communicator& self, std::span<float> data,
                    std::size_t root);
  void do_reduce_scatter(Communicator& self, std::span<float> data,
                         WireDtype wire, std::size_t granularity);
  void do_allgather_inplace(Communicator& self, std::span<float> data,
                            WireDtype wire, std::size_t granularity);

  /// The world ring: rank r reads from rank r-1 and, after the
  /// reduce-scatter, owns segment r + offset (1 for the allreduce, the
  /// NCCL schedule; 0 for the public reduce_scatter / allgather).
  /// Checks `granularity` against the buffer (errors name `op`) and sizes
  /// this rank's wire scratch; a one-rank world always uses kFp32.
  Ring world_ring(Communicator& self, std::span<float> data, WireDtype wire,
                  std::size_t offset, std::size_t granularity, const char* op);

  // The three primitives. The codec is a parameter: with kFp32 a hop adds
  // or copies the peer's fp32 buffer directly, so no fp32 path pays for a
  // scratch buffer, a copy or a barrier the compressed path needs.

  /// Ring reduce-scatter: size-1 hops, each followed by a barrier. The last
  /// hop re-encodes the owned segment only if `reencode_last` (an allgather
  /// of the images follows).
  void ring_reduce_scatter(Communicator& self, const Ring& ring,
                           bool reencode_last);
  /// Ring allgather: size-1 hops with a barrier between consecutive hops,
  /// and after the last one too if `close`. The hierarchical leader ring
  /// leaves that one to the group copy, whose root publishes before it.
  void ring_allgather(Communicator& self, const Ring& ring, bool close);
  /// Group reduce: `root` decode-adds the whole image of every other rank
  /// in [first, end), in rank order. No barrier: the caller's next one
  /// publishes the sum.
  void group_reduce(Communicator& self, std::span<float> data,
                    std::size_t first, std::size_t end, std::size_t root,
                    WireDtype wire);
  /// Group copy: `root` encodes its buffer into `mine`, and after a barrier
  /// every other rank decodes it while the root adopts it; ends on a
  /// barrier.
  void group_copy(Communicator& self, std::span<float> data,
                  std::size_t root, WireDtype wire, void* mine);

  /// Registers this rank's buffer and wire scratch for the collective about
  /// to start, tagged with its sequence number, op name, wire dtype and
  /// segment granularity; waits for every rank; then throws CommError
  /// unless all of them registered the same op at the same sequence number
  /// with the same element count, dtype and granularity. The sequence/op
  /// check is what makes per-bucket collectives from an overlap comm thread
  /// safe to reason about: any divergence in the global collective order
  /// across ranks (or a bucket interleaving across steps) is reported as an
  /// error at the rendezvous instead of corrupting a reduction; the dtype
  /// check catches ranks disagreeing about whether a bucket crosses the
  /// wire compressed, and the granularity check catches ranks disagreeing
  /// about segment boundaries (reduce_scatter/allgather).
  void rendezvous(Communicator& self, std::span<float> data,
                  std::uint64_t seq, const char* op,
                  WireDtype wire = WireDtype::kFp32,
                  std::size_t granularity = 1) CANDLE_EXCLUDES(reg_mutex_);

  /// `rank`'s wire image for the current collective: its fp32 buffer for
  /// kFp32, else `at` words into its wire scratch. May only be read in
  /// barrier phases where `rank` is not writing the same range.
  [[nodiscard]] const void* peer_image(std::size_t rank, WireDtype wire,
                                       std::size_t at) const
      CANDLE_EXCLUDES(reg_mutex_);

  std::size_t size_;
  WorldOptions options_;
  std::barrier<> barrier_;
  mutable AnnotatedMutex reg_mutex_{
      CANDLE_LOCK_LEVEL(lock_order::level::kCommRendezvous),
      "comm::World::reg_mutex_"};
  /// What one rank registered for the current collective.
  struct Registration {
    float* data = nullptr;
    std::uint16_t* scratch = nullptr;  // its wire scratch
    std::size_t count = 0;
    std::uint64_t seq = 0;
    const char* op = nullptr;
    WireDtype wire = WireDtype::kFp32;
    std::size_t granularity = 1;
  };
  std::vector<Registration> regs_ CANDLE_GUARDED_BY(reg_mutex_);
};

}  // namespace candle::comm
