#include "comm/communicator.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "common/error.h"

namespace candle::comm {

namespace {

// Range helpers: the wire codec applied to range [b, e) of an n-element
// buffer. kFp32 is the identity codec: a rank's own fp32 buffer *is* its wire
// image, so encode and adopt (the owner's round-trip) do nothing, decode is a
// copy and decode_add the plain add. These helpers are the only code that
// tells fp32 from a compressed dtype.
//
// A compressed image lives in the rank's uint16 wire scratch. For the 16-bit
// dtypes the range is simply words [b, e); for int8 the payload and scale
// planes are addressed with pre-offset pointers, so the quantization chunk
// grid is always relative to the range start and disjoint ring segments own
// disjoint scale slots (wire_codec.h). Every ring therefore encodes int8 per
// segment — never as one whole-buffer range — so encoder and decoder agree on
// the grid at every hop.

// A rank's wire image: its fp32 buffer, or `at` words into its wire scratch.
void* image_of(WireDtype wire, float* data, std::uint16_t* scratch,
               std::size_t at) {
  return wire == WireDtype::kFp32 ? static_cast<void*>(data) : scratch + at;
}

void encode_range(WireDtype wire, const float* data, void* image,
                  std::size_t n, std::size_t b, std::size_t e) {
  if (e <= b || wire == WireDtype::kFp32) return;
  auto* img = static_cast<std::uint16_t*>(image);
  if (wire == WireDtype::kInt8)
    wire::encode_int8(data + b, wire::int8_payload(img, n) + b,
                      wire::int8_scales(img) + b, e - b);
  else
    wire::encode(wire, data + b, img + b, e - b);
}

// Decodes range [b, e) of a peer's image into `data`.
void decode_range(WireDtype wire, const void* image, float* data,
                  std::size_t n, std::size_t b, std::size_t e) {
  if (e <= b) return;
  const auto* img = static_cast<const std::uint16_t*>(image);
  if (wire == WireDtype::kFp32)
    std::memcpy(data + b, static_cast<const float*>(image) + b,
                (e - b) * sizeof(float));
  else if (wire == WireDtype::kInt8)
    wire::decode_int8(wire::int8_payload(img, n) + b,
                      wire::int8_scales(img) + b, data + b, e - b);
  else
    wire::decode(wire, img + b, data + b, e - b);
}

// The owner's round-trip: `data` adopts range [b, e) of this rank's own
// image, so it holds exactly the values its peers decode and every rank ends
// bit-identical (its fp32 master may hold a more precise sum).
void adopt_range(WireDtype wire, const void* image, float* data,
                 std::size_t n, std::size_t b, std::size_t e) {
  if (wire != WireDtype::kFp32) decode_range(wire, image, data, n, b, e);
}

void decode_add_range(WireDtype wire, const void* image, float* data,
                      std::size_t n, std::size_t b, std::size_t e) {
  if (e <= b) return;
  const auto* img = static_cast<const std::uint16_t*>(image);
  if (wire == WireDtype::kFp32) {
    const auto* src = static_cast<const float*>(image);
    for (std::size_t i = b; i < e; ++i) data[i] += src[i];
  } else if (wire == WireDtype::kInt8) {
    wire::decode_add_int8(wire::int8_payload(img, n) + b,
                          wire::int8_scales(img) + b, data + b, e - b);
  } else {
    wire::decode_add(wire, img + b, data + b, e - b);
  }
}

// Propagates range [b, e) of a peer's image into ours (ring allgather hops):
// the payload plus, for int8, the range's scale slots.
void copy_range(WireDtype wire, void* dst, const void* src, std::size_t n,
                std::size_t b, std::size_t e) {
  if (e <= b) return;
  auto* d = static_cast<std::uint16_t*>(dst);
  const auto* s = static_cast<const std::uint16_t*>(src);
  if (wire == WireDtype::kInt8) {
    std::memcpy(wire::int8_payload(d, n) + b, wire::int8_payload(s, n) + b,
                e - b);
    float* dst_scales = wire::int8_scales(d);
    const float* src_scales = wire::int8_scales(s);
    for (std::size_t c = b; c < e; c += kInt8ChunkElems)
      dst_scales[c] = src_scales[c];
  } else {
    const std::size_t width = wire_width_bytes(wire);
    std::memcpy(static_cast<char*>(dst) + b * width,
                static_cast<const char*>(src) + b * width, (e - b) * width);
  }
}

}  // namespace

// One ring, as this rank sees it. Segment g of the buffer covers
// [off(g), off(g+1)), with boundaries on multiples of `gran`. Peers' ring
// images sit `at` words into their wire scratch. A rank with `active` false
// steps the ring's barriers but moves no data.
struct World::Ring {
  using Range = std::pair<std::size_t, std::size_t>;
  std::size_t size;
  std::size_t own;   // segment this rank owns after the reduce-scatter
  std::size_t pred;  // predecessor's rank
  std::size_t gran;
  bool active;
  WireDtype wire;
  std::span<float> data;
  void* mine;  // this rank's ring image
  std::size_t at;

  [[nodiscard]] std::size_t off(std::size_t g) const {
    return gran * (g * (data.size() / gran) / size);
  }
  // The segment k positions before the owned one (k <= size).
  [[nodiscard]] Range seg(std::size_t k) const {
    const std::size_t g = (own + size - k) % size;
    return {off(g), off(g + 1)};
  }
  void encode(Range r) const {
    encode_range(wire, data.data(), mine, data.size(), r.first, r.second);
  }
  void adopt(Range r) const {
    adopt_range(wire, mine, data.data(), data.size(), r.first, r.second);
  }
  // Publishes every segment, each as its own range.
  void encode_all() const {
    for (std::size_t g = 0; g < size; ++g) encode({off(g), off(g + 1)});
  }
};

const char* allreduce_algo_name(AllreduceAlgo a) {
  switch (a) {
    case AllreduceAlgo::kRing: return "ring";
    case AllreduceAlgo::kNaive: return "naive";
    case AllreduceAlgo::kHierarchical: return "hierarchical";
  }
  return "?";
}

AllreduceAlgo parse_allreduce_algo(const char* name) {
  const std::string s = name == nullptr ? "" : name;
  if (s == "ring") return AllreduceAlgo::kRing;
  if (s == "naive") return AllreduceAlgo::kNaive;
  if (s == "hierarchical") return AllreduceAlgo::kHierarchical;
  throw InvalidArgument("parse_allreduce_algo: unknown algorithm '" + s +
                        "' (expected ring | naive | hierarchical)");
}

std::size_t Communicator::size() const { return world_->size(); }

std::size_t Communicator::local_rank() const {
  return rank_ % world_->options().ranks_per_node;
}

std::size_t Communicator::node() const {
  return rank_ / world_->options().ranks_per_node;
}

const WorldOptions& Communicator::world_options() const {
  return world_->options();
}

void Communicator::barrier() {
  ++stats_.barrier_calls;
  world_->do_barrier();
}

void Communicator::allreduce_sum(std::span<float> data) {
  allreduce_sum(data, world_->options().wire_dtype);
}

void Communicator::allreduce_sum(std::span<float> data, WireDtype wire) {
  ++stats_.allreduce_calls;
  world_->allreduce(*this, data, /*average=*/false, wire);
}

void Communicator::allreduce_average(std::span<float> data) {
  allreduce_average(data, world_->options().wire_dtype);
}

void Communicator::allreduce_average(std::span<float> data, WireDtype wire) {
  ++stats_.allreduce_calls;
  world_->allreduce(*this, data, /*average=*/true, wire);
}

void Communicator::broadcast(std::span<float> data, std::size_t root) {
  require(root < size(), "broadcast: root out of range");
  ++stats_.broadcast_calls;
  world_->do_broadcast(*this, data, root);
}

void Communicator::reduce_sum_to(std::span<float> data, std::size_t root) {
  require(root < size(), "reduce_sum_to: root out of range");
  ++stats_.reduce_calls;
  world_->do_reduce_to(*this, data, root);
}

void Communicator::allgather(std::span<const float> contribution,
                             std::vector<float>& gathered) {
  // The in-place ring allgather with one contribution per segment.
  const std::size_t m = contribution.size();
  gathered.resize(size() * m);
  std::copy(contribution.begin(), contribution.end(),
            gathered.begin() + static_cast<std::ptrdiff_t>(rank_ * m));
  allgather(gathered, WireDtype::kFp32, std::max<std::size_t>(m, 1));
}

void Communicator::reduce_scatter(std::span<float> data) {
  reduce_scatter(data, world_->options().wire_dtype);
}

void Communicator::reduce_scatter(std::span<float> data, WireDtype wire,
                                  std::size_t granularity) {
  ++stats_.reduce_scatter_calls;
  world_->do_reduce_scatter(*this, data, wire, granularity);
}

void Communicator::allgather(std::span<float> data) {
  allgather(data, world_->options().wire_dtype);
}

void Communicator::allgather(std::span<float> data, WireDtype wire,
                             std::size_t granularity) {
  ++stats_.allgather_calls;
  world_->do_allgather_inplace(*this, data, wire, granularity);
}

double Communicator::allreduce_scalar(double value) {
  float v = static_cast<float>(value);
  // Always fp32 on the wire: scalar metrics (loss, accuracy) must not
  // quantize even when the world's default gradient dtype is compressed.
  allreduce_sum(std::span<float>(&v, 1), WireDtype::kFp32);
  return static_cast<double>(v);
}

World::World(std::size_t size, WorldOptions options)
    : size_(size),
      options_(options),
      barrier_(static_cast<std::ptrdiff_t>(size)),
      regs_(size) {
  require(size > 0, "World: size must be > 0");
  require(options.ranks_per_node > 0, "World: ranks_per_node must be > 0");
}

World::~World() = default;

void World::do_barrier() { barrier_.arrive_and_wait(); }

void World::rendezvous(Communicator& self, std::span<float> data,
                       std::uint64_t seq, const char* op, WireDtype wire,
                       std::size_t granularity) {
  {
    MutexLock lock(reg_mutex_);
    regs_[self.rank_] = {data.data(), self.wire_scratch_.data(), data.size(),
                         seq, op, wire, granularity};
  }
  do_barrier();
  MutexLock lock(reg_mutex_);
  for (std::size_t r = 0; r < size_; ++r) {
    const Registration& g = regs_[r];
    if (g.seq != seq || g.op == nullptr || std::strcmp(g.op, op) != 0)
      throw CommError(std::string(op) +
                      ": ranks issued different collective sequences "
                      "(rank registered " +
                      (g.op != nullptr ? g.op : "<none>") + " #" +
                      std::to_string(g.seq) + ", expected " + op + " #" +
                      std::to_string(seq) + ")");
    if (g.count != data.size())
      throw CommError(std::string(op) +
                      ": ranks passed different element counts");
    if (g.wire != wire)
      throw CommError(std::string(op) +
                      ": ranks requested different wire dtypes (rank " +
                      std::to_string(r) + " registered " +
                      wire_dtype_name(g.wire) + ", expected " +
                      wire_dtype_name(wire) + ")");
    if (g.granularity != granularity)
      throw CommError(std::string(op) +
                      ": ranks passed different segment granularities "
                      "(rank " + std::to_string(r) + " registered " +
                      std::to_string(g.granularity) + ", expected " +
                      std::to_string(granularity) + ")");
  }
}

const void* World::peer_image(std::size_t rank, WireDtype wire,
                              std::size_t at) const {
  MutexLock lock(reg_mutex_);
  return image_of(wire, regs_[rank].data, regs_[rank].scratch, at);
}

// --- The three primitives ----------------------------------------------------

void World::ring_reduce_scatter(Communicator& self, const Ring& ring,
                                bool reencode_last) {
  // Hop s accumulates the predecessor's partial of segment seg(s + 2), which
  // it produced at hop s - 1 (its entry image for s = 0), and re-encodes it
  // for the successor; the last hop lands the owned segment with the full
  // sum. Compressed hops quantize the running sum once per hop but never
  // accumulate in reduced precision: the fp32 buffer is the master.
  const void* src = peer_image(ring.pred, ring.wire, ring.at);
  for (std::size_t s = 0; s + 1 < ring.size; ++s) {
    if (ring.active) {
      const auto [b, e] = ring.seg(s + 2);
      decode_add_range(ring.wire, src, ring.data.data(), ring.data.size(), b,
                       e);
      if (s + 2 < ring.size || reencode_last) ring.encode({b, e});
      self.stats_.bytes_sent += wire_range_bytes(ring.wire, e - b);
    }
    do_barrier();
  }
}

void World::ring_allgather(Communicator& self, const Ring& ring,
                           bool close) {
  // Hop s copies the predecessor's image of segment seg(s + 1), which it
  // completed the hop before (its owned segment for s = 0), and adopts it.
  const void* src = peer_image(ring.pred, ring.wire, ring.at);
  for (std::size_t s = 0; s + 1 < ring.size; ++s) {
    if (ring.active) {
      const auto [b, e] = ring.seg(s + 1);
      copy_range(ring.wire, ring.mine, src, ring.data.size(), b, e);
      ring.adopt({b, e});
      self.stats_.bytes_sent += wire_range_bytes(ring.wire, e - b);
    }
    if (s + 2 < ring.size || close) do_barrier();
  }
}

void World::group_reduce(Communicator& self, std::span<float> data,
                         std::size_t first, std::size_t end, std::size_t root,
                         WireDtype wire) {
  if (self.rank_ != root) return;
  const std::size_t n = data.size();
  for (std::size_t m = first; m < end; ++m) {
    if (m == root) continue;
    decode_add_range(wire, peer_image(m, wire, 0), data.data(), n, 0, n);
    self.stats_.bytes_sent += wire_range_bytes(wire, n);
  }
}

void World::group_copy(Communicator& self, std::span<float> data,
                       std::size_t root, WireDtype wire, void* mine) {
  // The root publishes before the barrier and adopts its own image after
  // it, so a leader-ring successor still reading its buffer (an fp32 ring
  // image) never sees the round-tripped values.
  const std::size_t n = data.size();
  if (self.rank_ == root) encode_range(wire, data.data(), mine, n, 0, n);
  do_barrier();
  if (self.rank_ == root) {
    adopt_range(wire, mine, data.data(), n, 0, n);
  } else {
    decode_range(wire, peer_image(root, wire, 0), data.data(), n, 0, n);
    self.stats_.bytes_sent += wire_range_bytes(wire, n);
  }
  do_barrier();
}

// --- Collectives ------------------------------------------------------------

World::Ring World::world_ring(Communicator& self, std::span<float> data,
                              WireDtype wire, std::size_t offset,
                              std::size_t granularity, const char* op) {
  if (granularity == 0 || data.size() % granularity != 0)
    throw InvalidArgument(std::string(op) + ": granularity must be > 0 and "
                                            "divide the element count");
  // A single rank moves no bytes; keep it exact whatever the dtype.
  if (size_ == 1) wire = WireDtype::kFp32;
  const std::size_t r = self.rank_;
  std::uint16_t* scratch =
      self.scratch(wire::wire_image_scratch_elems(wire, data.size()));
  return Ring{.size = size_, .own = (r + offset) % size_,
              .pred = (r + size_ - 1) % size_, .gran = granularity,
              .active = true, .wire = wire, .data = data,
              .mine = image_of(wire, data.data(), scratch, 0), .at = 0};
}

void World::allreduce(Communicator& self, std::span<float> data, bool average,
                      WireDtype wire) {
  const std::uint64_t seq = ++self.seq_;
  const std::size_t sent_before = self.stats_.bytes_sent;
  const AllreduceAlgo algo = options_.allreduce_algo;
  if (algo == AllreduceAlgo::kRing || size_ == 1) {
    // One rank takes the ring's zero hops (world_ring keeps it fp32).
    const Ring ring = world_ring(self, data, wire, /*offset=*/1,
                                 /*granularity=*/1, "allreduce");
    wire = ring.wire;
    ring.encode_all();
    rendezvous(self, data, seq, "allreduce", wire);
    ring_reduce_scatter(self, ring, /*reencode_last=*/true);
    ring.adopt(ring.seg(0));
    ring_allgather(self, ring, /*close=*/true);
  } else {
    // kNaive is the two-level reduction with the whole world as one node.
    const bool hier = algo == AllreduceAlgo::kHierarchical;
    allreduce_two_level(self, data, seq, wire,
                        hier ? options_.local_wire_dtype : wire,
                        hier ? options_.ranks_per_node : size_);
  }
  self.stats_.allreduce_wire_bytes[allreduce_algo_index(algo)]
                                  [wire_dtype_index(wire)] +=
      self.stats_.bytes_sent - sent_before;
  if (average && size_ > 1) {
    // Runs after the reduction as the same fp32 op on bit-identical inputs
    // on every rank, so averaging preserves rank-invariance for any dtype.
    const float inv = 1.0f / static_cast<float>(size_);
    for (float& v : data) v *= inv;
  }
  do_barrier();
}

void World::allreduce_two_level(Communicator& self, std::span<float> data,
                                std::uint64_t seq, WireDtype wire,
                                WireDtype local_wire, std::size_t rpn) {
  // Two-level reduction matching Summit's topology: NVLink within a node,
  // InfiniBand between node leaders (what NCCL does for multi-node jobs).
  // `wire` compresses the leader ring (IB-class links, usually the
  // bottleneck); `local_wire` compresses the intra-node legs for machines
  // where local_bw is the limit instead.
  const std::size_t rank = self.rank_;
  const std::size_t node = rank / rpn;
  const std::size_t leader = node * rpn;
  const std::size_t nnodes = (size_ + rpn - 1) / rpn;
  const std::size_t n = data.size();
  // The local image comes first and a leader's ring image after it
  // (float-aligned for int8 scales), so a leader can publish its node's
  // result while its ring successor still reads its ring image.
  const std::size_t at =
      (wire::wire_image_scratch_elems(local_wire, n) + 1) / 2 * 2;
  const bool in_ring = rank == leader && nnodes > 1;
  std::uint16_t* scratch = self.scratch(
      at + (in_ring ? wire::wire_image_scratch_elems(wire, n) : 0));
  void* local_mine = image_of(local_wire, data.data(), scratch, 0);
  if (rank != leader)
    encode_range(local_wire, data.data(), local_mine, n, 0, n);
  rendezvous(self, data, seq, "allreduce", wire);

  group_reduce(self, data, leader, std::min(size_, leader + rpn), leader,
               local_wire);
  if (nnodes > 1) {
    // The same ring as the flat allreduce, over the node leaders; members
    // only step its barriers.
    const Ring ring{.size = nnodes, .own = (node + 1) % nnodes,
                    .pred = ((node + nnodes - 1) % nnodes) * rpn, .gran = 1,
                    .active = in_ring, .wire = wire, .data = data,
                    .mine = image_of(wire, data.data(), scratch, at), .at = at};
    if (ring.active) ring.encode_all();
    do_barrier();
    ring_reduce_scatter(self, ring, /*reencode_last=*/true);
    if (ring.active) ring.adopt(ring.seg(0));
    // The barrier after the last hop is group_copy's.
    ring_allgather(self, ring, /*close=*/false);
  }
  group_copy(self, data, leader, local_wire, local_mine);
}

void World::do_broadcast(Communicator& self, std::span<float> data,
                         std::size_t root) {
  const std::uint64_t seq = ++self.seq_;
  rendezvous(self, data, seq, "broadcast");
  const std::size_t P = size_;
  const std::size_t rel = (self.rank_ + P - root % P) % P;
  // Binomial tree: in round k, ranks [2^k, 2^(k+1)) (relative to root) pull
  // from the peer 2^k below them.
  for (std::size_t span = 1; span < P; span <<= 1) {
    if (rel >= span && rel < 2 * span && !data.empty()) {
      const std::size_t src_rank = (rel - span + root) % P;
      std::memcpy(data.data(), peer_image(src_rank, WireDtype::kFp32, 0),
                  data.size() * sizeof(float));
      self.stats_.bytes_sent += data.size() * sizeof(float);
    }
    do_barrier();
  }
  do_barrier();
}

void World::do_reduce_to(Communicator& self, std::span<float> data,
                         std::size_t root) {
  const std::uint64_t seq = ++self.seq_;
  rendezvous(self, data, seq, "reduce_sum_to");
  group_reduce(self, data, 0, size_, root, WireDtype::kFp32);
  do_barrier();
}

void World::do_reduce_scatter(Communicator& self, std::span<float> data,
                              WireDtype wire, std::size_t granularity) {
  const std::uint64_t seq = ++self.seq_;
  // The allreduce ring's reduce-scatter shifted one position, so rank r
  // owns segment r. Nobody reads the owned segment's image, so the last
  // hop keeps it at full fp32 master precision.
  const Ring ring =
      world_ring(self, data, wire, /*offset=*/0, granularity, "reduce_scatter");
  ring.encode_all();
  rendezvous(self, data, seq, "reduce_scatter", ring.wire, granularity);
  const std::size_t sent_before = self.stats_.bytes_sent;
  ring_reduce_scatter(self, ring, /*reencode_last=*/false);
  self.stats_.reduce_scatter_wire_bytes[wire_dtype_index(ring.wire)] +=
      self.stats_.bytes_sent - sent_before;
  do_barrier();
}

void World::do_allgather_inplace(Communicator& self, std::span<float> data,
                                 WireDtype wire, std::size_t granularity) {
  const std::uint64_t seq = ++self.seq_;
  // Only the owned segment needs an image before the first hop; the rest
  // fills in as segments propagate.
  const Ring ring =
      world_ring(self, data, wire, /*offset=*/0, granularity, "allgather");
  ring.encode(ring.seg(0));
  rendezvous(self, data, seq, "allgather", ring.wire, granularity);
  const std::size_t sent_before = self.stats_.bytes_sent;
  ring.adopt(ring.seg(0));
  ring_allgather(self, ring, /*close=*/true);
  self.stats_.allgather_wire_bytes[wire_dtype_index(ring.wire)] +=
      self.stats_.bytes_sent - sent_before;
  do_barrier();
}

std::vector<CommStats> World::run(
    std::size_t size, const std::function<void(Communicator&)>& body,
    WorldOptions options) {
  World world(size, options);
  std::vector<std::exception_ptr> errors(size);
  std::vector<CommStats> stats(size);
  std::vector<std::thread> threads;
  threads.reserve(size);
  for (std::size_t r = 0; r < size; ++r) {
    threads.emplace_back([&world, &body, &errors, &stats, r] {
      Communicator comm(world, r);
      try {
        body(comm);
      } catch (...) {
        errors[r] = std::current_exception();
        // Leave the barrier group so surviving ranks cannot deadlock
        // waiting for this rank (MPI would abort the whole job here).
        world.barrier_.arrive_and_drop();
      }
      stats[r] = comm.stats();
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& err : errors)
    if (err) std::rethrow_exception(err);
  return stats;
}

}  // namespace candle::comm
