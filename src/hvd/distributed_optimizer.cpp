#include "hvd/distributed_optimizer.h"

#include "common/error.h"
#include "hvd/bucket_scheduler.h"
#include "nn/model.h"

namespace candle::hvd {

DistributedOptimizer::DistributedOptimizer(
    std::unique_ptr<nn::Optimizer> inner, Context& ctx, FusionOptions fusion)
    : inner_(std::move(inner)), ctx_(&ctx), fusion_(fusion) {
  require(inner_ != nullptr, "DistributedOptimizer: null inner optimizer");
}

DistributedOptimizer::~DistributedOptimizer() = default;

std::string DistributedOptimizer::name() const {
  return "distributed(" + inner_->name() + ")";
}

double DistributedOptimizer::learning_rate() const {
  return inner_->learning_rate();
}

void DistributedOptimizer::set_learning_rate(double lr) {
  inner_->set_learning_rate(lr);
}

namespace {
constexpr std::size_t kNotReduced = static_cast<std::size_t>(-1);
}  // namespace

void DistributedOptimizer::set_rank_local_gradients(
    const std::vector<std::uint8_t>& mask) {
  local_mask_ = mask;
  inner_->set_rank_local_gradients(mask);
}

void DistributedOptimizer::enable_overlap(nn::Model& model) {
  require(model.compiled(),
          "DistributedOptimizer::enable_overlap: compile the model first");
  if (scheduler_ == nullptr)
    scheduler_ = std::make_unique<BucketScheduler>(
        *ctx_, fusion_, buffer_,
        fusion_.error_feedback ? &residuals_ : nullptr);
  // Channel-sharded (rank-local) gradients never enter the bucket plan:
  // every rank computes the same reduced list, so the bucket layout stays
  // rank-invariant.
  const std::vector<Tensor*> grads = model.gradients();
  reduced_of_.assign(grads.size(), kNotReduced);
  std::vector<Tensor*> reduced;
  reduced.reserve(grads.size());
  for (std::size_t i = 0; i < grads.size(); ++i) {
    if (is_rank_local(i)) continue;
    reduced_of_[i] = reduced.size();
    reduced.push_back(grads[i]);
  }
  scheduler_->bind(reduced);
  BucketScheduler* scheduler = scheduler_.get();
  const std::vector<std::size_t>* reduced_of = &reduced_of_;
  model.set_grad_ready_hook(
      [scheduler, reduced_of](std::size_t first, std::size_t count) {
        // Survivors of a contiguous gradient span stay contiguous in the
        // reduced order, so the ready range maps to one reduced range.
        std::size_t rfirst = 0, rcount = 0;
        for (std::size_t i = first; i < first + count; ++i) {
          if ((*reduced_of)[i] == kNotReduced) continue;
          if (rcount == 0) rfirst = (*reduced_of)[i];
          ++rcount;
        }
        if (rcount > 0) scheduler->mark_ready(rfirst, rcount);
      });
  // Sharded layers issue activation collectives mid-step; route them through
  // the comm thread's FIFO so it stays this rank's only collective issuer
  // (see the ordering contract in hvd/bucket_scheduler.h).
  model.set_collective_executor([scheduler](const std::function<void()>& fn) {
    scheduler->run_inline(fn);
  });
}

void DistributedOptimizer::apply(const std::vector<Tensor*>& params,
                                 const std::vector<Tensor*>& grads) {
  if (scheduler_ != nullptr && scheduler_->armed()) {
    // Overlapped path: the comm thread reduced the buckets during backward
    // (per-bucket NEGOTIATE/NCCL events recorded there); wait for the tail.
    const FusionStats step = scheduler_->drain();
    stats_.collectives += step.collectives;
    stats_.tensors += step.tensors;
    stats_.fused_bytes += step.fused_bytes;
    stats_.buckets_overlapped += step.buckets_overlapped;
    inner_->apply(params, grads);
    return;
  }

  // Negotiation: Horovod's coordinator waits until every rank has announced
  // the tensor is ready; with synchronous batch steps this is a barrier.
  const double negotiate_start = ctx_->now();
  ctx_->comm().barrier();
  const double reduce_start = ctx_->now();
  ctx_->record(trace::kNegotiateAllreduce, "allreduce", negotiate_start,
               reduce_start - negotiate_start);

  // Per-bucket NCCL_ALLREDUCE events are recorded inside allreduce_bucket.
  // Rank-local (channel-sharded) gradients are skipped: each rank already
  // holds the full-batch gradient for its own shard.
  // The residual state is shared with the overlapped scheduler: the bucket
  // plan is identical on both paths, so the accumulated error carries over
  // bit-exactly when overlap is toggled.
  ResidualState* residuals = fusion_.error_feedback ? &residuals_ : nullptr;
  FusionStats step;
  if (local_mask_.empty()) {
    step = allreduce_average_fused(*ctx_, grads, fusion_, &buffer_,
                                   residuals);
  } else {
    std::vector<Tensor*> reduced;
    reduced.reserve(grads.size());
    for (std::size_t i = 0; i < grads.size(); ++i)
      if (!is_rank_local(i)) reduced.push_back(grads[i]);
    step = allreduce_average_fused(*ctx_, reduced, fusion_, &buffer_,
                                   residuals);
  }
  stats_.collectives += step.collectives;
  stats_.tensors += step.tensors;
  stats_.fused_bytes += step.fused_bytes;

  inner_->apply(params, grads);
}

}  // namespace candle::hvd
