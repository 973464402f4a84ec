// Async micro-batching scheduler for inference serving.
//
// Training-side throughput in this repo is won by keeping the fused GEMM
// kernels saturated; serving-side the same rule applies, but the rows
// arrive one at a time from concurrent clients. A MicroBatcher turns that
// stream back into kernel-sized work: an admission queue stages rows from
// many client threads directly into a shared batch slot, and a dispatcher
// thread closes the batch, runs one fused-epilogue forward over it on the
// shared candle::parallel pool and scatters per-row results back to the
// waiting futures.
//
// Close policy (greedy adaptive batching, the default): the dispatcher
// takes the open batch as soon as it is free and every reserved row is
// staged, or earlier when `max_batch` rows are reserved. No timer is
// armed. Batching still emerges under load: rows that arrive while one
// batch executes gather in the other slot and run together next (Clipper,
// Crankshaw et al., NSDI 2017, batches adaptively for the same reason).
// A positive `batch_deadline_s` is an opt-in timer instead: an underfull
// batch then waits that long after its first row for more rows. That only
// pays when enough clients are in flight to fill `max_batch` within the
// deadline (BENCH_serving.json's 16-client, max_batch 16 cells); when
// batches cannot fill, as in e2ebench's open-loop serving, the timer is
// pure added latency.
//
// Slot protocol (nn::BatchPipeline's kFree -> kReady discipline, with the
// producer/consumer roles swapped: many clients produce, one dispatcher
// consumes): two reusable batch slots double-buffer admission against
// execution. While one slot's batch runs forward, the other accepts
// arrivals, so admission never waits on compute until both slots are
// occupied — which bounds the in-flight queue at 2 * max_batch rows
// (admission backpressure, not unbounded queueing). A client reserves a row
// index under the mutex, copies its row into the slot tensor *outside* the
// lock (the reserved row is exclusively its own until it reports back), and
// then publishes the copy by bumping the slot's staged count; the
// dispatcher only executes a batch once every reserved row is staged, so
// the mutex hand-off orders every row write before the batched read.
//
// Determinism contract: every layer used here computes each output row from
// that row alone (the GEMM accumulates each output element over k in a
// fixed blocked order independent of the batch's other rows; activations,
// pooling, and inference-mode BatchNorm are row-local), so a served row is
// bit-identical to Model::predict on the same row regardless of which batch
// the scheduler assembled it into. test_serve pins this.
#pragma once

#include <chrono>
#include <cstddef>
#include <future>
#include <span>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "nn/model.h"

namespace candle::serve {

/// Scheduler knobs for one model's admission queue.
struct BatcherOptions {
  /// Close a batch as soon as this many rows are staged (1 = no batching:
  /// the request-per-forward baseline the serving bench compares against).
  std::size_t max_batch = 32;
  /// 0 (the default) is greedy adaptive batching: the dispatcher takes the
  /// open batch as soon as it is free and the batch's rows are staged. A
  /// positive value is an opt-in timer: an underfull batch closes this
  /// long after its first row arrived.
  double batch_deadline_s = 0.0;
};

/// Per-request result, fulfilled through the future submit() returns.
struct Response {
  Tensor y;                        // this request's output row
  std::size_t batch_rows = 0;      // rows in the batch that served it
  bool deadline_closed = false;    // batch closed by the deadline timer
  /// Dispatcher timestamp taken right after the batch forward finished;
  /// the load generator computes latency from this instead of the
  /// future-harvest time (open-loop harvesting happens much later).
  std::chrono::steady_clock::time_point completed_at{};
};

/// Scheduler counters (snapshot; taken under the admission mutex).
struct BatcherStats {
  std::size_t requests = 0;          // rows admitted
  std::size_t batches = 0;           // forward executions
  std::size_t rows = 0;              // rows served
  std::size_t full_batches = 0;      // closed at max_batch
  std::size_t greedy_batches = 0;    // taken underfull by a free dispatcher
  std::size_t deadline_batches = 0;  // closed by deadline timer expiry
  std::size_t drained_batches = 0;   // closed early by shutdown drain
  std::size_t max_batch_rows = 0;    // largest batch executed

  [[nodiscard]] double mean_batch_rows() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(rows) /
                              static_cast<double>(batches);
  }
};

/// Admission queue + dynamic batch assembler + dispatcher for one model.
class MicroBatcher {
 public:
  /// Spawns the dispatcher thread. `model` must be compiled (the
  /// inference-only compile is the intended path), must outlive the
  /// batcher, and must not be touched by other threads while serving —
  /// the dispatcher is its only caller.
  MicroBatcher(nn::Model& model, const BatcherOptions& options);

  /// Drains and joins (see shutdown()).
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Stages one input row (length = the model's per-sample input numel) and
  /// returns the future for its result. Blocks only when both slots are
  /// occupied (backpressure); throws Error after shutdown().
  [[nodiscard]] std::future<Response> submit(std::span<const float> row)
      CANDLE_EXCLUDES(mutex_);

  /// Drain-on-shutdown: stops admission, executes every already-admitted
  /// row (deadline ignored — a drained batch closes at once and runs as
  /// soon as its rows are staged), fulfills all outstanding futures, and joins the dispatcher.
  /// Idempotent; the destructor calls it.
  void shutdown() CANDLE_EXCLUDES(mutex_);

  [[nodiscard]] BatcherStats stats() const CANDLE_EXCLUDES(mutex_);

  /// Per-sample input element count (admission validates row width).
  [[nodiscard]] std::size_t row_numel() const { return row_numel_; }

 private:
  /// Slot lifecycle: kFree (empty, may open) -> kOpen (accepting
  /// reservations; at most one slot is open at a time) -> kClosed (batch
  /// full, taken greedily, deadline-expired, or draining; awaiting its
  /// last staged row / dispatcher pickup) -> kExecuting (forward in flight) -> kFree.
  enum class SlotState { kFree, kOpen, kClosed, kExecuting };

  /// Why a batch stopped accepting rows (stats + Response classification).
  enum class CloseReason { kNone, kFull, kGreedy, kDeadline, kDrain };

  /// Unguarded row storage, on BatchPipeline's discipline: the admission
  /// protocol gives each reserved row index to exactly one client until
  /// that client stages it, and gives the whole slot to the dispatcher
  /// only once staged == reserved — so the tensor bytes and promises are
  /// ordered by the mutex hand-offs without being guarded by the mutex.
  struct SlotStorage {
    Tensor x;     // (max_batch, features...) staging storage, reused forever
    Tensor exec;  // partial-batch forward scratch (rows < max_batch), reused
    std::vector<std::promise<Response>> pending;  // one per reserved row
  };

  /// Mutex-guarded slot bookkeeping, parallel to storage_[].
  struct SlotBook {
    SlotState state = SlotState::kFree;
    CloseReason reason = CloseReason::kNone;
    std::size_t reserved = 0;  // rows claimed by clients
    std::size_t staged = 0;    // rows fully copied in
    /// First reservation; read only when a deadline timer is armed.
    std::chrono::steady_clock::time_point opened_at{};
  };

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// False in greedy mode (the default): no deadline timer is armed.
  [[nodiscard]] bool timed() const {
    return deadline_ > std::chrono::steady_clock::duration::zero();
  }
  void dispatch_main();
  /// Closes the open slot when it is due, recording the close reason:
  /// unconditionally under shutdown drain; in greedy mode once every
  /// reserved row is staged; otherwise once its deadline has passed.
  void close_expired_locked() CANDLE_REQUIRES(mutex_);
  /// Slot index ready to execute (closed with every reserved row staged),
  /// or kNone.
  [[nodiscard]] std::size_t ready_slot_locked() const
      CANDLE_REQUIRES(mutex_);
  /// Runs one claimed batch: forward outside the lock, scatter, recycle.
  void execute_slot(std::size_t index, std::size_t rows, CloseReason reason)
      CANDLE_EXCLUDES(mutex_);

  nn::Model* model_;
  BatcherOptions options_;
  /// batch_deadline_s as a steady_clock duration; zero selects greedy mode.
  std::chrono::steady_clock::duration deadline_{};
  std::size_t row_numel_ = 0;
  std::size_t out_row_numel_ = 0;
  Shape out_row_shape_;  // per-sample output shape (leading dim dropped)

  mutable AnnotatedMutex mutex_{
      CANDLE_LOCK_LEVEL(lock_order::level::kServeAdmission),
      "serve::MicroBatcher::mutex_"};
  AnnotatedCondVar admission_cv_;  // dispatcher -> clients: slot recycled
  AnnotatedCondVar dispatch_cv_;   // clients -> dispatcher: work/row staged
  SlotStorage storage_[2];
  SlotBook book_[2] CANDLE_GUARDED_BY(mutex_);
  bool shutdown_ CANDLE_GUARDED_BY(mutex_) = false;
  BatcherStats stats_ CANDLE_GUARDED_BY(mutex_);

  std::thread thread_;  // last member: dispatch_main sees a built object
};

}  // namespace candle::serve
