// BroadcastGlobalVariablesHook.
//
// "Add hvd.BroadcastGlobalVariablesHook(0) to the callbacks to broadcast
// initial variable states from rank 0 to all other processes. This step
// ensures consistent initialization of all workers when training is started
// with random weights." (paper §2.3.2)
//
// The negotiate phase of this broadcast is where the paper's data-loading
// skew shows up (Figs 7b/12/19): ranks arrive at the broadcast only after
// finishing their own CSV load, so the negotiation stalls on the slowest
// loader. In real mode the skew is whatever the threads actually did; the
// simulator models it explicitly.
#pragma once

#include <cstdint>
#include <vector>

#include "hvd/context.h"
#include "nn/model.h"

namespace candle::hvd {

/// Broadcasts every tensor in `tensors` from `root` to all ranks, recording
/// NEGOTIATE_BROADCAST (barrier wait) and MPI_BCAST (data movement) events
/// to the context's timeline (shared across ranks and internally
/// synchronized).
/// Returns the seconds this rank spent in the negotiate phase.
///
/// Thread contract: called concurrently from every rank thread; `tensors`
/// must be the rank's own (thread-local) parameter list — the collective
/// synchronizes the payload with barriers, not locks.
double broadcast_parameters(Context& ctx, const std::vector<Tensor*>& tensors,
                            std::size_t root = 0);

/// Keras-style callback performing the broadcast at on_train_begin.
class BroadcastGlobalVariablesHook final : public nn::Callback {
 public:
  explicit BroadcastGlobalVariablesHook(Context& ctx, std::size_t root = 0)
      : ctx_(&ctx), root_(root) {}

  void on_train_begin(nn::Model& model) override {
    // Channel-sharded parameters are rank-local by construction (each rank
    // owns a different weight slice) — broadcasting them from root would
    // clobber every other rank's shard, so only replicated parameters are
    // synchronized.
    const std::vector<Tensor*> params = model.parameters();
    const std::vector<std::uint8_t>& mask = model.rank_local_mask();
    std::vector<Tensor*> replicated;
    replicated.reserve(params.size());
    for (std::size_t i = 0; i < params.size(); ++i)
      if (i >= mask.size() || mask[i] == 0) replicated.push_back(params[i]);
    negotiate_seconds_ = broadcast_parameters(*ctx_, replicated, root_);
  }

  /// Seconds spent waiting in the negotiate phase (the broadcast overhead
  /// the paper's optimization reduces from 43.72 s to 4.65 s on 384 GPUs).
  [[nodiscard]] double negotiate_seconds() const { return negotiate_seconds_; }

 private:
  Context* ctx_;
  std::size_t root_;
  double negotiate_seconds_ = 0.0;
};

}  // namespace candle::hvd
