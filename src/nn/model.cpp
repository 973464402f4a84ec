#include "nn/model.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <thread>

#include "common/error.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "nn/batch_pipeline.h"
#include "nn/metrics.h"

namespace candle::nn {

double History::total_seconds() const {
  double total = 0.0;
  for (const auto& e : epochs) total += e.seconds;
  return total;
}

void Model::add(std::unique_ptr<Layer> layer) {
  require(!compiled_, "Model::add: cannot add layers after compile()");
  require(layer != nullptr, "Model::add: null layer");
  layers_.push_back(std::move(layer));
}

void Model::compile(const Shape& input_shape,
                    std::unique_ptr<Optimizer> optimizer,
                    std::unique_ptr<Loss> loss, std::uint64_t seed) {
  compile(input_shape, std::move(optimizer), std::move(loss), seed,
          ParallelismOptions{});
}

void Model::compile(const Shape& input_shape,
                    std::unique_ptr<Optimizer> optimizer,
                    std::unique_ptr<Loss> loss, std::uint64_t seed,
                    const ParallelismOptions& parallelism) {
  require(!compiled_, "Model::compile: already compiled");
  require(!layers_.empty(), "Model::compile: model has no layers");
  require(optimizer != nullptr && loss != nullptr,
          "Model::compile: optimizer and loss are required");
  optimizer_ = std::move(optimizer);
  loss_ = std::move(loss);
  input_shape_ = input_shape;
  // Resolve the per-layer plan before building: the decision depends only
  // on layer hyperparameters and shapes, so every rank computes the same
  // plan without communicating.
  ChannelShard shard;
  shard.comm = parallelism.comm;
  shard.rank = parallelism.comm == nullptr ? 0 : parallelism.comm->rank();
  shard.world = parallelism.comm == nullptr ? 1 : parallelism.comm->size();
  shard.wire_dtype = parallelism.wire_dtype;
  plan_.per_layer.clear();
  plan_.per_layer.reserve(layers_.size());
  Rng rng(seed);
  fit_rng_ = rng.fork(0xF17);
  Shape shape = input_shape;
  for (auto& layer : layers_) {
    // Decide this layer's parallelism from its input shape, shard before
    // build (the sharded build slices the full init), then build.
    std::size_t weight_bytes = 0, activation_bytes = 0, channels = 0;
    const bool can_shard = layer->channel_shard_costs(
        shape, parallelism.batch_hint, &weight_bytes, &activation_bytes,
        &channels);
    // Layers narrower than the world stay replicated even under forced
    // channel mode (a 2-class softmax head cannot split across 4 ranks).
    const LayerParallelism lp = choose_parallelism(
        parallelism.mode, can_shard && channels >= shard.world, weight_bytes,
        activation_bytes);
    if (lp == LayerParallelism::kChannel) layer->apply_channel_shard(shard);
    plan_.per_layer.push_back(lp);
    shape = layer->build(shape, rng);
  }
  grad_spans_.clear();
  grad_spans_.reserve(layers_.size());
  rank_local_mask_.clear();
  std::size_t grad_at = 0;
  bool any_local = false;
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const std::size_t count = layers_[li]->grads().size();
    grad_spans_.emplace_back(grad_at, count);
    grad_at += count;
    const bool local = plan_.per_layer[li] == LayerParallelism::kChannel;
    any_local = any_local || (local && count > 0);
    rank_local_mask_.insert(rank_local_mask_.end(), count,
                            local ? std::uint8_t{1} : std::uint8_t{0});
  }
  if (!any_local) rank_local_mask_.clear();
  // Nothing reads the input gradient of the first layer with parameters,
  // and the parameter-free layers before it have nothing to learn, so
  // backward stops at that layer.
  first_trainable_ = 0;
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    if (grad_spans_[li].second == 0) continue;
    first_trainable_ = li;
    layers_[li]->set_input_grad_needed(false);
    break;
  }
  optimizer_->set_rank_local_gradients(rank_local_mask_);
  compiled_ = true;
}

void Model::compile_for_inference(const Shape& input_shape,
                                  std::uint64_t seed) {
  require(!compiled_, "Model::compile_for_inference: already compiled");
  require(!layers_.empty(), "Model::compile_for_inference: model has no layers");
  input_shape_ = input_shape;
  Rng rng(seed);
  fit_rng_ = rng.fork(0xF17);
  Shape shape = input_shape;
  for (auto& layer : layers_) shape = layer->build(shape, rng);
  // Serving never runs backward: release the gradient buffers build()
  // allocated (they mirror every parameter, doubling NT3-scale weight
  // memory) and skip the grad-span/hook bookkeeping entirely.
  for (auto& layer : layers_)
    for (Tensor* g : layer->grads()) *g = Tensor();
  plan_.per_layer.assign(layers_.size(), LayerParallelism::kData);
  compiled_ = true;
}

void Model::set_grad_ready_hook(GradReadyHook hook) {
  require(compiled_ || !hook,
          "Model::set_grad_ready_hook: compile() first");
  require(!inference_only() || !hook,
          "Model::set_grad_ready_hook: model was compiled for inference");
  grad_ready_hook_ = std::move(hook);
}

void Model::set_collective_executor(const CollectiveExecutor& exec) {
  for (auto& layer : layers_) layer->set_collective_executor(exec);
}

Tensor Model::forward(const Tensor& x, bool training) {
  if (layers_.empty()) return x;
  // The first layer reads the caller's tensor directly: no input copy.
  Tensor h = layers_.front()->forward(x, training);
  for (std::size_t i = 1; i < layers_.size(); ++i)
    h = layers_[i]->forward(h, training);
  return h;
}

void Model::backward(const Tensor& dloss) {
  Tensor g = dloss;
  for (std::size_t li = layers_.size(); li-- > first_trainable_;) {
    g = layers_[li]->backward(g);
    // Fire gradient-ready as soon as this layer's grads are final: with
    // layers visited in reverse, an overlap scheduler can reduce the
    // tail-of-model buckets while earlier layers are still backpropagating.
    if (grad_ready_hook_ && grad_spans_[li].second > 0)
      grad_ready_hook_(grad_spans_[li].first, grad_spans_[li].second);
  }
}

Tensor Model::predict(const Tensor& x) {
  require(compiled_, "Model::predict: compile() first");
  return forward(x, /*training=*/false);
}

std::pair<float, float> Model::evaluate(const Tensor& x, const Tensor& y,
                                        bool classification) {
  require(compiled_, "Model::evaluate: compile() first");
  require(!inference_only(),
          "Model::evaluate: model was compiled for inference (no loss)");
  const Tensor pred = forward(x, /*training=*/false);
  const float l = loss_->value(pred, y);
  const float metric =
      classification ? accuracy(pred, y) : r2_score(pred, y);
  return {l, metric};
}

float Model::train_on_batch(const Tensor& x, const Tensor& y) {
  require(compiled_, "Model::train_on_batch: compile() first");
  require(!inference_only(),
          "Model::train_on_batch: model was compiled for inference");
  const Tensor pred = forward(x, /*training=*/true);
  const float l = loss_->value(pred, y);
  backward(loss_->gradient(pred, y));
  optimizer_->apply(parameters(), gradients());
  return l;
}

History Model::fit(const Dataset& data, const FitOptions& options,
                   const std::vector<Callback*>& callbacks) {
  require(compiled_, "Model::fit: compile() first");
  require(!inference_only(), "Model::fit: model was compiled for inference");
  require(options.batch_size > 0, "Model::fit: batch_size must be > 0");
  require(data.size() > 0, "Model::fit: empty dataset");

  Dataset train = data;
  Dataset val;
  if (options.validation_fraction > 0.0) {
    auto [tr, va] = validation_split(data, options.validation_fraction);
    train = std::move(tr);
    val = std::move(va);
  }
  const std::size_t n = train.size();
  require(n >= options.batch_size || !options.drop_remainder,
          "Model::fit: dataset smaller than one batch with drop_remainder");

  History history;
  for (Callback* cb : callbacks) cb->on_train_begin(*this);

  // Prefetching stages batches on a producer thread; the synchronous path
  // gathers inline into the same kind of reusable destinations. Both paths
  // visit identical rows in identical batches, and the gathers are pure
  // copies, so the trained weights are bit-identical either way.
  std::unique_ptr<BatchPipeline> pipeline;
  if (options.prefetch) {
    PipelineOptions popts;
    popts.batch_size = options.batch_size;
    popts.drop_remainder = options.drop_remainder;
    popts.sim_input_latency_s = options.sim_input_latency_s;
    popts.timeline = options.timeline;
    popts.clock = options.timeline_clock;
    popts.rank = options.timeline_rank;
    pipeline = std::make_unique<BatchPipeline>(train, popts);
  }
  Tensor bx, by;  // synchronous-path batch staging, reused across steps

  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    Stopwatch watch;
    for (Callback* cb : callbacks) cb->on_epoch_begin(*this, epoch);

    // The shuffle order is always drawn here, on this thread, so fit_rng_
    // advances identically with prefetching on or off.
    std::vector<std::size_t> order;
    if (options.shuffle) order = shuffled_index(n, fit_rng_);

    double loss_sum = 0.0;
    std::size_t steps = 0;
    if (pipeline != nullptr) {
      pipeline->start_epoch(std::move(order));
      while (const StagedBatch* batch = pipeline->acquire()) {
        loss_sum += train_on_batch(batch->x, batch->y);
        ++steps;
        for (Callback* cb : callbacks) cb->on_batch_end(*this, steps - 1);
      }
    } else {
      for (std::size_t start = 0; start < n; start += options.batch_size) {
        const std::size_t count = std::min(options.batch_size, n - start);
        if (count < options.batch_size && options.drop_remainder) break;
        Shape xs = train.x.shape();
        xs[0] = count;
        Shape ys = train.y.shape();
        ys[0] = count;
        if (bx.shape() != xs) bx = Tensor(xs);
        if (by.shape() != ys) by = Tensor(ys);
        if (options.shuffle) {
          const std::span<const std::size_t> idx(order.data() + start, count);
          gather_rows(train.x, idx, bx);
          gather_rows(train.y, idx, by);
        } else {
          take_rows(train.x, start, count, bx);
          take_rows(train.y, start, count, by);
        }
        if (options.sim_input_latency_s > 0.0)
          std::this_thread::sleep_for(
              std::chrono::duration<double>(options.sim_input_latency_s));
        loss_sum += train_on_batch(bx, by);
        ++steps;
        for (Callback* cb : callbacks) cb->on_batch_end(*this, steps - 1);
      }
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.loss = steps ? static_cast<float>(loss_sum / steps) : 0.0f;
    stats.batch_steps = steps;
    const auto [train_loss, train_metric] =
        evaluate(train.x, train.y, options.classification);
    (void)train_loss;
    stats.accuracy = train_metric;
    if (val.size() > 0) {
      const auto [vl, vm] = evaluate(val.x, val.y, options.classification);
      stats.val_loss = vl;
      stats.val_accuracy = vm;
    }
    stats.seconds = watch.seconds();
    history.epochs.push_back(stats);
    for (Callback* cb : callbacks) cb->on_epoch_end(*this, stats);
    bool stop = false;
    for (Callback* cb : callbacks) stop = stop || cb->stop_requested();
    if (stop) break;
  }
  return history;
}

std::vector<Tensor*> Model::parameters() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_)
    for (Tensor* p : layer->params()) out.push_back(p);
  return out;
}

std::vector<Layer*> Model::layers() {
  std::vector<Layer*> out;
  out.reserve(layers_.size());
  for (auto& layer : layers_) out.push_back(layer.get());
  return out;
}

std::vector<Tensor*> Model::gradients() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_)
    for (Tensor* g : layer->grads()) out.push_back(g);
  return out;
}

std::size_t Model::param_count() {
  std::size_t total = 0;
  for (auto& layer : layers_) total += layer->param_count();
  return total;
}

Optimizer& Model::optimizer() {
  require(optimizer_ != nullptr, "Model::optimizer: compile() first");
  return *optimizer_;
}

const Loss& Model::loss() const {
  require(loss_ != nullptr, "Model::loss: compile() first");
  return *loss_;
}

std::string Model::summary() {
  std::string out = "Model:\n";
  for (auto& layer : layers_)
    out += strprintf("  %-32s params=%zu\n", layer->describe().c_str(),
                     layer->param_count());
  out += strprintf("  total trainable parameters: %zu\n", param_count());
  return out;
}

}  // namespace candle::nn
