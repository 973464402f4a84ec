// Sequential model with a Keras-style compile/fit/evaluate/predict API.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "nn/dataset.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace candle::trace {
class Timeline;
}  // namespace candle::trace

namespace candle::nn {

class Model;

/// Per-epoch training record.
struct EpochStats {
  std::size_t epoch = 0;       // 0-based epoch index
  float loss = 0.0f;           // mean training loss over the epoch
  float accuracy = 0.0f;       // training accuracy (classification) or R²
  float val_loss = 0.0f;       // validation loss (0 when no validation set)
  float val_accuracy = 0.0f;
  double seconds = 0.0;        // wall-clock time of the epoch
  std::size_t batch_steps = 0; // number of optimizer steps taken
};

/// Complete training history returned by fit().
struct History {
  std::vector<EpochStats> epochs;

  [[nodiscard]] float final_loss() const {
    return epochs.empty() ? 0.0f : epochs.back().loss;
  }
  [[nodiscard]] float final_accuracy() const {
    return epochs.empty() ? 0.0f : epochs.back().accuracy;
  }
  [[nodiscard]] double total_seconds() const;
};

/// Training hook, mirroring Keras callbacks. The Horovod
/// BroadcastGlobalVariablesHook is implemented as one of these.
class Callback {
 public:
  virtual ~Callback() = default;
  virtual void on_train_begin(Model& /*model*/) {}
  virtual void on_epoch_begin(Model& /*model*/, std::size_t /*epoch*/) {}
  virtual void on_epoch_end(Model& /*model*/, const EpochStats& /*stats*/) {}
  virtual void on_batch_end(Model& /*model*/, std::size_t /*step*/) {}

  /// Checked after every epoch; returning true ends fit() early
  /// (EarlyStopping uses this).
  [[nodiscard]] virtual bool stop_requested() const { return false; }
};

/// Options for Model::fit.
struct FitOptions {
  std::size_t epochs = 1;
  std::size_t batch_size = 32;
  bool shuffle = true;              // reshuffle sample order each epoch
  double validation_fraction = 0.0; // tail split evaluated per epoch
  bool classification = true;       // accuracy vs R² for the metric column
  bool drop_remainder = false;      // drop the final partial batch

  /// Stage batches on a background producer thread (double-buffered; see
  /// nn/batch_pipeline.h). Bit-identical to the synchronous path: same
  /// fit_rng_ draws, same batch boundaries, copies only.
  bool prefetch = false;
  /// Synthetic per-batch input latency (benchmark knob, cf.
  /// hvd::FusionOptions::sim_net_latency_s): paid inline by the synchronous
  /// path and on the producer thread — hidden — when prefetching.
  double sim_input_latency_s = 0.0;
  /// When set, the prefetch pipeline records PIPELINE_PRODUCE /
  /// PIPELINE_STALL events here, timestamped on `timeline_clock` (the
  /// pipeline's own clock when null) in lane `timeline_rank`.
  trace::Timeline* timeline = nullptr;
  const Stopwatch* timeline_clock = nullptr;
  std::size_t timeline_rank = 0;
};

/// Sequential neural network.
///
/// Usage:
///   Model m;
///   m.add<Dense>(128, Act::kRelu);
///   m.add<Dense>(2, Act::kSoftmax);
///   m.compile({700}, make_optimizer("sgd", 0.001),
///             make_loss("categorical_crossentropy"), /*seed=*/42);
///   History h = m.fit(train, {.epochs = 8, .batch_size = 20});
class Model {
 public:
  Model() = default;
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  /// Appends a layer (ownership transferred).
  void add(std::unique_ptr<Layer> layer);

  /// Emplace-style layer construction.
  template <typename L, typename... Args>
  L& add(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  /// Builds all layers for the per-sample input shape, binds the optimizer
  /// and loss, and initializes weights from `seed`. Must be called once
  /// before fit/predict.
  void compile(const Shape& input_shape, std::unique_ptr<Optimizer> optimizer,
               std::unique_ptr<Loss> loss, std::uint64_t seed = 42);

  /// compile() with a parallelism request: resolves a per-layer plan
  /// (see nn/parallelism.h), shards the chosen layers' output channels
  /// before building, and passes the rank-local gradient mask to the
  /// optimizer. All ranks must call with identical layers, shapes, seed,
  /// and options (channel parallelism replicates the batch, so the data
  /// and shuffle stream must be identical too).
  void compile(const Shape& input_shape, std::unique_ptr<Optimizer> optimizer,
               std::unique_ptr<Loss> loss, std::uint64_t seed,
               const ParallelismOptions& parallelism);

  /// Inference-only compile: builds the layers (weights initialized from
  /// `seed`, normally overwritten by nn::load_weights) and then releases
  /// every gradient tensor — no optimizer, no loss, no gradient-ready
  /// hooks, so a served model pays neither training-side memory (gradient
  /// buffers mirror every parameter) nor hook overhead. predict() and
  /// evaluate-free serving work; fit/train_on_batch/evaluate throw.
  /// The same seed produces bit-identical weights to compile() because the
  /// RNG stream over the layer builds is unchanged.
  void compile_for_inference(const Shape& input_shape,
                             std::uint64_t seed = 42);

  [[nodiscard]] bool compiled() const { return compiled_; }

  /// True when compile_for_inference built this model (no optimizer/loss).
  [[nodiscard]] bool inference_only() const {
    return compiled_ && optimizer_ == nullptr;
  }

  /// Forward pass without dropout.
  [[nodiscard]] Tensor predict(const Tensor& x);

  /// Returns {loss, metric} on the given data (metric: accuracy or R²).
  [[nodiscard]] std::pair<float, float> evaluate(const Tensor& x,
                                                 const Tensor& y,
                                                 bool classification = true);

  /// One optimizer step on a batch; returns the batch loss.
  float train_on_batch(const Tensor& x, const Tensor& y);

  /// Full training loop.
  History fit(const Dataset& data, const FitOptions& options,
              const std::vector<Callback*>& callbacks = {});

  /// Flattened trainable parameters / gradients across layers.
  [[nodiscard]] std::vector<Tensor*> parameters();
  [[nodiscard]] std::vector<Tensor*> gradients();

  /// Gradient-ready notification, fired by backward() once per layer in
  /// reverse layer order as that layer's gradients are finalized:
  /// hook(first, count) covers gradients() indices [first, first + count).
  /// Layers without parameters fire nothing. This is the signal the
  /// hvd::BucketScheduler uses to overlap allreduce with backprop; the hook
  /// must be cheap and must not throw. Pass {} to remove.
  using GradReadyHook =
      std::function<void(std::size_t first, std::size_t count)>;
  void set_grad_ready_hook(GradReadyHook hook);

  /// Non-owning views of the layers, in forward order (used by the
  /// per-layer profiler).
  [[nodiscard]] std::vector<Layer*> layers();

  /// Index of the first layer with parameters (0 when there is none).
  /// Backward stops after this layer: it is told its input gradient is not
  /// needed, and the parameter-free layers before it have nothing to learn.
  [[nodiscard]] std::size_t first_trainable_layer() const {
    return first_trainable_;
  }

  [[nodiscard]] std::size_t param_count();
  [[nodiscard]] Optimizer& optimizer();
  [[nodiscard]] const Loss& loss() const;
  [[nodiscard]] const Shape& input_shape() const { return input_shape_; }

  /// Keras-style model summary (one line per layer + parameter total).
  [[nodiscard]] std::string summary();

  /// Per-layer parallelism resolved at compile() time (all-kData when
  /// compile() ran without ParallelismOptions).
  [[nodiscard]] const ParallelismPlan& parallelism_plan() const {
    return plan_;
  }

  /// Rank-local flags over the flat parameters()/gradients() order (the
  /// two lists pair up one-to-one): true entries belong to a
  /// channel-sharded layer and must be neither allreduce-averaged nor
  /// broadcast across ranks. Empty when no layer is sharded.
  [[nodiscard]] const std::vector<std::uint8_t>& rank_local_mask() const {
    return rank_local_mask_;
  }

  /// Installs a collective executor on every layer (see
  /// nn::CollectiveExecutor): sharded layers then issue their activation
  /// collectives through it instead of inline. The overlap scheduler calls
  /// this so one comm thread owns the rank's whole collective order.
  void set_collective_executor(const CollectiveExecutor& exec);

 private:
  Tensor forward(const Tensor& x, bool training);
  void backward(const Tensor& dloss);

  std::vector<std::unique_ptr<Layer>> layers_;
  std::unique_ptr<Optimizer> optimizer_;
  std::unique_ptr<Loss> loss_;
  Shape input_shape_;
  bool compiled_ = false;
  Rng fit_rng_{0xF17};
  GradReadyHook grad_ready_hook_;
  /// Per-layer (first, count) spans into the flat gradients() order,
  /// computed at compile() time.
  std::vector<std::pair<std::size_t, std::size_t>> grad_spans_;
  std::size_t first_trainable_ = 0;
  ParallelismPlan plan_;
  std::vector<std::uint8_t> rank_local_mask_;
};

}  // namespace candle::nn
