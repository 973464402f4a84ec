#include "hvd/parameter_server.h"

#include "common/error.h"

namespace candle::hvd {

ParameterServerOptimizer::ParameterServerOptimizer(
    std::unique_ptr<nn::Optimizer> inner, Context& ctx,
    std::size_t server_rank)
    : inner_(std::move(inner)), ctx_(&ctx), server_rank_(server_rank) {
  require(inner_ != nullptr, "ParameterServerOptimizer: null inner optimizer");
  require(server_rank < ctx.size(),
          "ParameterServerOptimizer: server rank out of range");
}

std::string ParameterServerOptimizer::name() const {
  return "parameter_server(" + inner_->name() + ")";
}

double ParameterServerOptimizer::learning_rate() const {
  return inner_->learning_rate();
}

void ParameterServerOptimizer::set_learning_rate(double lr) {
  inner_->set_learning_rate(lr);
}

void ParameterServerOptimizer::apply(const std::vector<Tensor*>& params,
                                     const std::vector<Tensor*>& grads) {
  const std::size_t P = ctx_->size();

  // Push: every worker's gradients converge on the server rank.
  const double push_start = ctx_->now();
  std::size_t payload = 0;
  for (Tensor* g : grads) {
    ctx_->comm().reduce_sum_to(g->values(), server_rank_);
    payload += g->numel() * sizeof(float);
  }
  bytes_through_server_ += payload;

  // Server applies the averaged gradients with the wrapped optimizer.
  if (ctx_->rank() == server_rank_ && P > 1) {
    const float inv = 1.0f / static_cast<float>(P);
    for (Tensor* g : grads) *g *= inv;
  }
  if (ctx_->rank() == server_rank_) inner_->apply(params, grads);
  ctx_->record("PS_PUSH_APPLY", "parameter_server", push_start,
               ctx_->now() - push_start);

  // Pull: workers fetch the updated weights from the server.
  const double pull_start = ctx_->now();
  for (Tensor* p : params) {
    ctx_->comm().broadcast(p->values(), server_rank_);
    // payload accounted once (push) plus once (pull):
  }
  bytes_through_server_ += payload;
  ctx_->record("PS_PULL", "parameter_server", pull_start,
               ctx_->now() - pull_start);
}

double parameter_server_step_seconds(std::size_t ranks,
                                     std::size_t payload_bytes,
                                     const PsCostModel& model) {
  require(ranks > 0, "parameter_server_step_seconds: ranks must be > 0");
  if (ranks <= 1) return 0.0;
  // (P-1) workers push N bytes in and pull N bytes out through one NIC.
  const double workers = static_cast<double>(ranks - 1);
  return 2.0 * workers *
         (model.latency_s +
          static_cast<double>(payload_bytes) / model.server_bw);
}

}  // namespace candle::hvd
