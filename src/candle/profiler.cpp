#include "candle/profiler.h"

#include <algorithm>

#include "common/error.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "nn/dataset.h"

namespace candle {

std::size_t StepProfile::hottest() const {
  require(!layers.empty(), "StepProfile::hottest: empty profile");
  std::size_t best = 0;
  for (std::size_t i = 1; i < layers.size(); ++i)
    if (layers[i].total_ms() > layers[best].total_ms()) best = i;
  return best;
}

StepProfile profile_step(BenchmarkId id, double scale, std::size_t batch,
                         std::size_t repetitions, std::uint64_t seed) {
  require(repetitions > 0, "profile_step: repetitions must be > 0");
  const ScaledGeometry geometry = scaled_geometry(id, scale);
  const std::size_t b = batch == 0 ? geometry.batch : batch;
  const BenchmarkData data = make_benchmark_data(id, geometry, seed);
  require(data.train.size() >= b, "profile_step: batch larger than dataset");

  nn::Model model = build_model(id, geometry);
  compile_benchmark_model(id, model, geometry,
                          profile_for(id).learning_rate, seed);
  const std::vector<nn::Layer*> layers = model.layers();

  StepProfile profile;
  profile.batch = b;
  profile.repetitions = repetitions;
  profile.layers.resize(layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    profile.layers[i].layer = layers[i]->describe();
    profile.layers[i].params = layers[i]->param_count();
  }

  const Tensor bx = nn::take_rows(data.train.x, 0, b);
  const Tensor by = nn::take_rows(data.train.y, 0, b);
  const auto& loss = model.loss();

  for (std::size_t rep = 0; rep < repetitions; ++rep) {
    // Forward, timing each layer.
    std::vector<Tensor> activations;
    activations.reserve(layers.size() + 1);
    activations.push_back(bx);
    for (std::size_t i = 0; i < layers.size(); ++i) {
      Stopwatch watch;
      activations.push_back(
          layers[i]->forward(activations.back(), /*training=*/true));
      profile.layers[i].forward_ms += watch.millis();
    }
    // Backward, timing each layer down to where Model::backward stops.
    Tensor grad = loss.gradient(activations.back(), by);
    for (std::size_t i = layers.size(); i-- > model.first_trainable_layer();) {
      Stopwatch watch;
      grad = layers[i]->backward(grad);
      profile.layers[i].backward_ms += watch.millis();
    }
  }
  for (auto& lp : profile.layers) {
    lp.forward_ms /= static_cast<double>(repetitions);
    lp.backward_ms /= static_cast<double>(repetitions);
    profile.step_ms += lp.total_ms();
  }
  return profile;
}

std::string format_profile(const StepProfile& profile) {
  std::string out = strprintf(
      "%-36s %10s %10s %8s %10s\n", "layer", "fwd (ms)", "bwd (ms)",
      "% step", "params");
  for (const auto& lp : profile.layers) {
    out += strprintf("%-36s %10.3f %10.3f %7.1f%% %10zu\n",
                     lp.layer.c_str(), lp.forward_ms, lp.backward_ms,
                     profile.step_ms > 0.0
                         ? 100.0 * lp.total_ms() / profile.step_ms
                         : 0.0,
                     lp.params);
  }
  out += strprintf("step total: %.3f ms (batch %zu, mean of %zu reps)\n",
                   profile.step_ms, profile.batch, profile.repetitions);
  return out;
}

}  // namespace candle
