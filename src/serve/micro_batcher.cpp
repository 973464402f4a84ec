#include "serve/micro_batcher.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/error.h"
#include "nn/dataset.h"

namespace candle::serve {

using steady_clock = std::chrono::steady_clock;

MicroBatcher::MicroBatcher(nn::Model& model, const BatcherOptions& options)
    : model_(&model), options_(options) {
  require(options_.max_batch > 0,
          "serve::MicroBatcher: max_batch must be > 0");
  require(options_.batch_deadline_s >= 0.0,
          "serve::MicroBatcher: batch_deadline_s must be >= 0");
  // Rounded toward zero: a deadline below one clock tick runs greedy.
  deadline_ = std::chrono::duration_cast<steady_clock::duration>(
      std::chrono::duration<double>(options_.batch_deadline_s));
  require(model.compiled(), "serve::MicroBatcher: model must be compiled");
  const Shape& per_sample = model.input_shape();
  row_numel_ = shape_numel(per_sample);
  Shape staging;
  staging.reserve(per_sample.size() + 1);
  staging.push_back(options_.max_batch);
  staging.insert(staging.end(), per_sample.begin(), per_sample.end());
  for (SlotStorage& slot : storage_) {
    slot.x = Tensor(staging);
    slot.pending.resize(options_.max_batch);
  }
  // Warmup forward on one zero row: learns the per-sample output shape and
  // primes the layer workspaces before the first client arrives.
  Shape probe_shape = staging;
  probe_shape[0] = 1;
  const Tensor probe_out = model_->predict(Tensor(std::move(probe_shape)));
  require(probe_out.rank() >= 1,
          "serve::MicroBatcher: model output must be batched");
  out_row_shape_.assign(probe_out.shape().begin() + 1,
                        probe_out.shape().end());
  out_row_numel_ = shape_numel(out_row_shape_);
  thread_ = std::thread([this] { dispatch_main(); });
}

MicroBatcher::~MicroBatcher() { shutdown(); }

std::future<Response> MicroBatcher::submit(std::span<const float> row) {
  require(row.size() == row_numel_,
          "serve::MicroBatcher::submit: row width does not match the "
          "model's per-sample input numel");
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  std::size_t slot = kNone;
  std::size_t index = 0;
  {
    MutexLock lock(mutex_);
    // Backpressure: block while one slot executes and the other is full.
    admission_cv_.wait(mutex_, [this]() CANDLE_REQUIRES(mutex_) {
      if (shutdown_) return true;
      for (const SlotBook& b : book_)
        if (b.state == SlotState::kOpen || b.state == SlotState::kFree)
          return true;
      return false;
    });
    if (shutdown_)
      throw Error("serve::MicroBatcher::submit: batcher is shut down");
    // Keep filling the open batch; open a free slot only when none is.
    for (std::size_t i = 0; i < 2 && slot == kNone; ++i)
      if (book_[i].state == SlotState::kOpen) slot = i;
    for (std::size_t i = 0; i < 2 && slot == kNone; ++i)
      if (book_[i].state == SlotState::kFree) slot = i;
    SlotBook& book = book_[slot];
    if (book.state == SlotState::kFree) {
      book.state = SlotState::kOpen;
      if (timed())
        book.opened_at = steady_clock::now();  // arms the deadline timer
    }
    index = book.reserved++;
    if (book.reserved == options_.max_batch) {
      book.state = SlotState::kClosed;
      book.reason = CloseReason::kFull;
    }
    ++stats_.requests;
  }
  // The reserved row is exclusively this client's until staged++ below
  // publishes it: copy the bytes outside the lock.
  storage_[slot].pending[index] = std::move(promise);
  std::copy(row.begin(), row.end(),
            storage_[slot].x.data() + index * row_numel_);
  bool wake = false;
  {
    MutexLock lock(mutex_);
    SlotBook& book = book_[slot];
    ++book.staged;
    // Wake the dispatcher when every reserved row has landed (a greedy
    // or full close can proceed) or when the first row arms a deadline.
    wake = book.staged == book.reserved ||
           (index == 0 && timed());
  }
  if (wake) dispatch_cv_.notify_one();
  return future;
}

void MicroBatcher::shutdown() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  dispatch_cv_.notify_all();
  admission_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

BatcherStats MicroBatcher::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void MicroBatcher::close_expired_locked() {
  for (SlotBook& book : book_) {
    if (book.state != SlotState::kOpen) continue;
    CloseReason reason = CloseReason::kNone;
    if (shutdown_) {
      reason = CloseReason::kDrain;
    } else if (!timed()) {
      // Greedy: the dispatcher only gets here while it is free, so take
      // the batch as soon as no reserved row is still being copied in.
      if (book.staged == book.reserved) reason = CloseReason::kGreedy;
    } else if (steady_clock::now() - book.opened_at >= deadline_) {
      reason = CloseReason::kDeadline;
    }
    if (reason == CloseReason::kNone) continue;
    book.state = SlotState::kClosed;
    book.reason = reason;
  }
}

std::size_t MicroBatcher::ready_slot_locked() const {
  // kClosed implies reserved > 0 (only opened slots close); waiting for
  // staged == reserved is the hand-off that orders every client's row
  // write before the batched read below.
  for (std::size_t i = 0; i < 2; ++i)
    if (book_[i].state == SlotState::kClosed &&
        book_[i].staged == book_[i].reserved)
      return i;
  return kNone;
}

void MicroBatcher::dispatch_main() {
  for (;;) {
    std::size_t slot = kNone;
    std::size_t rows = 0;
    CloseReason reason = CloseReason::kNone;
    {
      MutexLock lock(mutex_);
      for (;;) {
        close_expired_locked();
        slot = ready_slot_locked();
        if (slot != kNone) break;
        bool idle = true;
        for (const SlotBook& book : book_)
          idle = idle && book.state == SlotState::kFree;
        if (shutdown_ && idle) return;
        // Sleep until a client wake or, with a deadline timer, until the
        // open slot's deadline (at most one slot is open); waking re-runs
        // the close scan, so a deadline that fires with rows still being
        // staged degrades to a plain wait for the last stager instead of
        // spinning. Greedy mode arms no timer: the last stager's wake is
        // what lets the dispatcher take the batch.
        bool have_deadline = false;
        steady_clock::time_point until{};
        for (const SlotBook& book : book_)
          if (timed() && book.state == SlotState::kOpen) {
            have_deadline = true;
            until = book.opened_at + deadline_;
          }
        const auto woken = [this]() CANDLE_REQUIRES(mutex_) {
          close_expired_locked();
          if (ready_slot_locked() != kNone) return true;
          if (!shutdown_) return false;
          for (const SlotBook& book : book_)
            if (book.state != SlotState::kFree) return false;
          return true;  // shutdown and fully drained: time to exit
        };
        if (have_deadline) {
          dispatch_cv_.wait_until(mutex_, until, woken);
        } else {
          // No timer armed yet: with a deadline, additionally wake when a
          // first row opens a slot, so the outer loop can arm that slot's
          // deadline (the timed wait above must not use this clause — it
          // would spin until the deadline).
          dispatch_cv_.wait(mutex_, [&]() CANDLE_REQUIRES(mutex_) {
            if (woken()) return true;
            if (!timed()) return false;
            for (const SlotBook& book : book_)
              if (book.state == SlotState::kOpen) return true;
            return false;
          });
        }
      }
      SlotBook& book = book_[slot];
      rows = book.reserved;
      reason = book.reason;
      book.state = SlotState::kExecuting;
    }
    execute_slot(slot, rows, reason);
  }
}

void MicroBatcher::execute_slot(std::size_t index, std::size_t rows,
                                CloseReason reason) {
  SlotStorage& slot = storage_[index];
  const Tensor* input = &slot.x;
  if (rows < options_.max_batch) {
    Shape partial = slot.x.shape();
    partial[0] = rows;
    if (slot.exec.shape() != partial) slot.exec = Tensor(std::move(partial));
    nn::take_rows(slot.x, 0, rows, slot.exec);
    input = &slot.exec;
  }
  Tensor y;
  std::exception_ptr failure;
  try {
    y = model_->predict(*input);
  } catch (...) {
    failure = std::current_exception();
  }
  const steady_clock::time_point completed = steady_clock::now();
  {
    // Commit the stats before fulfilling any promise: a client that
    // returns from get() must already see its row counted.
    MutexLock lock(mutex_);
    ++stats_.batches;
    stats_.rows += rows;
    stats_.max_batch_rows = std::max(stats_.max_batch_rows, rows);
    switch (reason) {
      case CloseReason::kFull: ++stats_.full_batches; break;
      case CloseReason::kGreedy: ++stats_.greedy_batches; break;
      case CloseReason::kDeadline: ++stats_.deadline_batches; break;
      case CloseReason::kDrain: ++stats_.drained_batches; break;
      case CloseReason::kNone: break;
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    if (failure != nullptr) {
      slot.pending[r].set_exception(failure);
      continue;
    }
    Response response;
    response.y = Tensor(out_row_shape_);
    std::copy(y.data() + r * out_row_numel_,
              y.data() + (r + 1) * out_row_numel_, response.y.data());
    response.batch_rows = rows;
    response.deadline_closed = reason == CloseReason::kDeadline;
    response.completed_at = completed;
    slot.pending[r].set_value(std::move(response));
  }
  {
    // Recycle only after the scatter: until here the slot's promises are
    // still being fulfilled, so no new client may reserve into them.
    MutexLock lock(mutex_);
    SlotBook& book = book_[index];
    book.state = SlotState::kFree;
    book.reason = CloseReason::kNone;
    book.reserved = 0;
    book.staged = 0;
  }
  admission_cv_.notify_all();
}

}  // namespace candle::serve
