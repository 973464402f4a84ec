// Parameter-server baseline (distributed TensorFlow's gRPC strategy).
//
// The paper's introduction motivates Horovod by contrast with TensorFlow's
// native parameter-server distribution, which "is difficult to use and
// optimize" and centralizes gradient traffic. This module implements that
// baseline so the comparison can be reproduced: workers push gradients to a
// server rank, the server applies the optimizer step, and workers pull the
// updated weights — 2*N*P bytes through one rank per step, versus the
// ring's 2*N*(P-1)/P per rank.
//
// Synchronous variant (all workers per step), built on the same in-process
// communicator substrate as the Horovod layer.
#pragma once

#include <memory>

#include "hvd/context.h"
#include "nn/optimizer.h"

namespace candle::hvd {

/// Optimizer wrapper implementing the synchronous parameter-server update.
/// Rank `server_rank` acts as the parameter server: it averages the pushed
/// gradients and applies the wrapped optimizer; all other ranks' optimizer
/// state stays untouched (their apply is the weight pull).
///
/// After every apply(), all ranks hold identical parameters, the same
/// invariant DistributedOptimizer maintains — only the traffic pattern
/// (and therefore scaling behaviour) differs.
///
/// Thread contract: each rank thread owns its instance (optimizer state is
/// rank-local); apply() participates in collectives, so every rank must
/// call it the same number of times. Push/apply spans are recorded to the
/// context's timeline when one is attached.
class ParameterServerOptimizer final : public nn::Optimizer {
 public:
  ParameterServerOptimizer(std::unique_ptr<nn::Optimizer> inner, Context& ctx,
                           std::size_t server_rank = 0);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double learning_rate() const override;
  void set_learning_rate(double lr) override;

  void apply(const std::vector<Tensor*>& params,
             const std::vector<Tensor*>& grads) override;

  /// Bytes this rank pushed/pulled through the server so far.
  [[nodiscard]] std::size_t bytes_through_server() const {
    return bytes_through_server_;
  }

 private:
  std::unique_ptr<nn::Optimizer> inner_;
  Context* ctx_;
  std::size_t server_rank_;
  std::size_t bytes_through_server_ = 0;
};

/// Analytic cost of one synchronous PS step versus one ring allreduce, for
/// the scaling comparison bench: the server's ingress/egress serializes at
/// `server_bw`, so step time grows linearly with worker count.
struct PsCostModel {
  double server_bw = 12.5e9;  // bytes/s into/out of the server rank
  double latency_s = 2.0e-6;
};

double parameter_server_step_seconds(std::size_t ranks,
                                     std::size_t payload_bytes,
                                     const PsCostModel& model = {});

}  // namespace candle::hvd
