#include "hvd/bucket_scheduler.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.h"

namespace candle::hvd {

BucketScheduler::BucketScheduler(Context& ctx, const FusionOptions& options,
                                 FusionBuffer& buffer,
                                 ResidualState* residuals)
    : ctx_(&ctx),
      options_(options),
      buffer_(&buffer),
      residuals_(residuals),
      thread_([this] { comm_main(); }) {}

BucketScheduler::~BucketScheduler() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  ready_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void BucketScheduler::bind(const std::vector<Tensor*>& grads) {
  {
    MutexLock lock(mutex_);
    require(!armed_, "BucketScheduler::bind: a step is in flight");
  }
  std::vector<std::size_t> numels;
  numels.reserve(grads.size());
  for (const Tensor* t : grads) {
    require(t != nullptr, "BucketScheduler::bind: null gradient tensor");
    numels.push_back(t->numel());
  }
  grads_ = grads;
  buckets_ = assign_buckets(numels, options_.threshold_bytes);
  // Same-plan rebinds keep the accumulated residuals (bind() is a no-op
  // then), so recompiling with unchanged shapes does not perturb training.
  if (residuals_ != nullptr) residuals_->bind(buckets_);
  bucket_of_.assign(grads_.size(), 0);
  for (std::size_t b = 0; b < buckets_.size(); ++b)
    for (std::size_t t : buckets_[b].tensors) bucket_of_[t] = b;
}

void BucketScheduler::mark_ready(std::size_t first, std::size_t count) {
  if (count == 0) return;
  require(first + count <= grads_.size(),
          "BucketScheduler::mark_ready: gradient span out of range");
  MutexLock lock(mutex_);
  if (!armed_) {
    require(!buckets_.empty(),
            "BucketScheduler::mark_ready: no gradients bound");
    armed_ = true;
    armed_at_ = ctx_->now();
    processed_ = 0;
    step_stats_ = {};
    error_ = nullptr;
    remaining_.resize(buckets_.size());
    for (std::size_t b = 0; b < buckets_.size(); ++b)
      remaining_[b] = buckets_[b].tensors.size();
    // Drop bucket work a previous (errored/abandoned) step left queued;
    // run_inline tasks are synchronous and can never linger here.
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                                [](const WorkItem& w) {
                                  return w.task == nullptr;
                                }),
                 queue_.end());
  }
  bool notify = false;
  for (std::size_t t = first; t < first + count; ++t) {
    const std::size_t b = bucket_of_[t];
    require(remaining_[b] > 0,
            "BucketScheduler::mark_ready: gradient marked ready twice");
    if (--remaining_[b] == 0) {
      // Completion order is the comm thread's issue order: backward runs
      // the layers in reverse, so buckets enqueue in descending index
      // order, interleaved deterministically with run_inline tasks.
      queue_.push_back(WorkItem{b, nullptr});
      notify = true;
    }
  }
  if (notify) ready_cv_.notify_all();
}

bool BucketScheduler::armed() const {
  MutexLock lock(mutex_);
  return armed_;
}

FusionStats BucketScheduler::drain() {
  MutexLock lock(mutex_);
  if (!armed_) return {};
  for (std::size_t b = 0; b < buckets_.size(); ++b)
    if (remaining_[b] != 0)
      throw InvalidArgument(
          "BucketScheduler::drain: bucket " + std::to_string(b) +
          " still waits for " + std::to_string(remaining_[b]) +
          " gradient(s) — drain called before backward finished");
  done_cv_.wait(mutex_, [this]() CANDLE_REQUIRES(mutex_) {
    return processed_ == buckets_.size() || error_ != nullptr;
  });
  armed_ = false;
  if (error_ != nullptr) {
    std::exception_ptr err = std::exchange(error_, nullptr);
    std::rethrow_exception(err);
  }
  return std::exchange(step_stats_, {});
}

void BucketScheduler::run_inline(const std::function<void()>& fn) {
  InlineTask task;
  task.fn = &fn;
  {
    MutexLock lock(mutex_);
    require(!shutdown_, "BucketScheduler::run_inline: shutting down");
    queue_.push_back(WorkItem{0, &task});
  }
  ready_cv_.notify_all();
  MutexLock lock(mutex_);
  done_cv_.wait(mutex_, [&task]() CANDLE_REQUIRES(mutex_) {
    return task.done;
  });
  if (task.error != nullptr) std::rethrow_exception(task.error);
}

void BucketScheduler::comm_main() {
  while (true) {
    const double idle_from = ctx_->now();
    WorkItem item;
    double negotiate_from = idle_from;
    {
      MutexLock lock(mutex_);
      ready_cv_.wait(mutex_, [this]() CANDLE_REQUIRES(mutex_) {
        return shutdown_ || !queue_.empty();
      });
      if (shutdown_) return;
      item = queue_.front();
      queue_.pop_front();
      if (item.task == nullptr) {
        // Once a step errored, its remaining buckets are dropped — drain
        // reports the first error; reducing more would only cascade.
        if (error_ != nullptr) continue;
        if (armed_at_ > negotiate_from) negotiate_from = armed_at_;
      }
    }

    if (item.task != nullptr) {
      std::exception_ptr err;
      try {
        (*item.task->fn)();
      } catch (...) {
        err = std::current_exception();
      }
      MutexLock lock(mutex_);
      item.task->error = err;
      item.task->done = true;
      done_cv_.notify_all();
      continue;
    }

    // NEGOTIATE = waiting for the bucket's gradients: from the step's
    // first mark_ready for the first bucket, else from the previous
    // item's completion (idle between steps is not negotiation).
    const double negotiated = ctx_->now();
    ctx_->record(trace::kNegotiateAllreduce, "allreduce", negotiate_from,
                 negotiated - negotiate_from);

    FusionStats stats;
    std::exception_ptr err;
    try {
      allreduce_bucket(*ctx_, grads_, buckets_[item.bucket], *buffer_,
                       options_, stats,
                       residuals_ != nullptr ? residuals_->buffer(item.bucket)
                                             : std::span<float>{});
    } catch (...) {
      err = std::current_exception();
    }

    MutexLock lock(mutex_);
    if (err != nullptr) {
      error_ = err;
      done_cv_.notify_all();
      continue;
    }
    step_stats_.collectives += stats.collectives;
    step_stats_.tensors += stats.tensors;
    step_stats_.fused_bytes += stats.fused_bytes;
    ++step_stats_.buckets_overlapped;
    ++processed_;
    if (processed_ == buckets_.size()) done_cv_.notify_all();
  }
}

}  // namespace candle::hvd
