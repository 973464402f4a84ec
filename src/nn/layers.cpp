#include "nn/layers.h"

#include <cmath>

#include "common/error.h"
#include "common/string_util.h"
#include "nn/initializers.h"
#include "tensor/conv.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace candle::nn {

Act act_from_string(const std::string& name) {
  if (name == "relu") return Act::kRelu;
  if (name == "sigmoid") return Act::kSigmoid;
  if (name == "tanh") return Act::kTanh;
  if (name == "softmax") return Act::kSoftmax;
  if (name == "none" || name == "linear" || name.empty()) return Act::kNone;
  throw InvalidArgument("unknown activation: " + name);
}

std::string act_name(Act a) {
  switch (a) {
    case Act::kNone: return "linear";
    case Act::kRelu: return "relu";
    case Act::kSigmoid: return "sigmoid";
    case Act::kTanh: return "tanh";
    case Act::kSoftmax: return "softmax";
  }
  return "?";
}

Tensor apply_activation(Act act, const Tensor& x) {
  if (act == Act::kNone) return x;
  Tensor out = x;
  apply_activation_inplace(act, out);
  return out;
}

void apply_activation_inplace(Act act, Tensor& x) {
  switch (act) {
    case Act::kNone: return;
    case Act::kRelu: relu_inplace(x); return;
    case Act::kSigmoid: sigmoid_inplace(x); return;
    case Act::kTanh: tanh_inplace(x); return;
    // Softmax over the trailing axis; leading axes flatten into rows.
    case Act::kSoftmax: softmax_rows_inplace(x); return;
  }
  throw InvalidArgument("apply_activation: bad enum");
}

Tensor activation_backward(Act act, const Tensor& dy, const Tensor& y) {
  switch (act) {
    case Act::kNone: return dy;
    case Act::kRelu: return relu_backward(dy, y);
    case Act::kSigmoid: return sigmoid_backward(dy, y);
    case Act::kTanh: return tanh_backward(dy, y);
    case Act::kSoftmax: {
      // dx_i = y_i * (dy_i - sum_j dy_j y_j), row-wise.
      check_same_shape(dy, y, "softmax_backward");
      const std::size_t n = y.shape().back();
      const std::size_t m = y.numel() / n;
      Tensor dx(y.shape());
      const float* py = y.data();
      const float* pdy = dy.data();
      float* pdx = dx.data();
      for (std::size_t i = 0; i < m; ++i) {
        double dot = 0.0;
        for (std::size_t j = 0; j < n; ++j)
          dot += static_cast<double>(pdy[i * n + j]) * py[i * n + j];
        for (std::size_t j = 0; j < n; ++j)
          pdx[i * n + j] = py[i * n + j] *
                           (pdy[i * n + j] - static_cast<float>(dot));
      }
      return dx;
    }
  }
  throw InvalidArgument("activation_backward: bad enum");
}

std::size_t Layer::param_count() {
  std::size_t n = 0;
  for (const Tensor* p : params()) n += p->numel();
  return n;
}

// ---------------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------------

Dense::Dense(std::size_t units, Act act, double l2, double init_scale)
    : units_(units), act_(act), l2_(l2), init_scale_(init_scale) {
  require(units > 0, "Dense: units must be > 0");
  require(l2 >= 0.0, "Dense: l2 must be >= 0");
  require(init_scale > 0.0, "Dense: init_scale must be > 0");
}

std::string Dense::describe() const {
  if (l2_ > 0.0)
    return strprintf("Dense(%zu, %s, l2=%g)", units_, act_name(act_).c_str(),
                     l2_);
  return strprintf("Dense(%zu, %s)", units_, act_name(act_).c_str());
}

bool Dense::channel_shard_costs(const Shape& input_shape, std::size_t batch,
                                std::size_t* weight_bytes,
                                std::size_t* activation_bytes,
                                std::size_t* channels) const {
  if (input_shape.size() != 1) return false;
  const std::size_t in = input_shape[0];
  // Data parallelism allreduces dW/db every step; channel parallelism
  // allgathers the (batch, units) output forward and reduce-scatters +
  // allgathers the (batch, in) input gradient backward.
  *weight_bytes = (in * units_ + units_) * sizeof(float);
  *activation_bytes = batch * (units_ + 2 * in) * sizeof(float);
  *channels = units_;
  return true;
}

void Dense::apply_channel_shard(const ChannelShard& shard) {
  require(w_.numel() == 0, "Dense::apply_channel_shard: must precede build()");
  require(shard.world >= 1 && shard.rank < shard.world,
          "Dense::apply_channel_shard: bad rank/world");
  require(shard.world == 1 || shard.comm != nullptr,
          "Dense::apply_channel_shard: null communicator");
  require(units_ >= shard.world, "Dense::apply_channel_shard: units < world");
  sharded_ = true;
  shard_ = shard;
}

Shape Dense::build(const Shape& input_shape, Rng& rng) {
  require(input_shape.size() == 1,
          "Dense: per-sample input must be rank-1, got " +
              shape_to_string(input_shape));
  const std::size_t in = input_shape[0];
  shard_begin_ = 0;
  shard_cols_ = units_;
  if (sharded_) {
    shard_begin_ = shard_offset(shard_.rank, units_, shard_.world);
    shard_cols_ =
        shard_offset(shard_.rank + 1, units_, shard_.world) - shard_begin_;
  }
  // Draw the FULL Glorot init from the shared stream before slicing: every
  // rank consumes the same number of variates, so replicated layers (and
  // the fit-time shuffle stream) stay identical to the unsharded model.
  Tensor wfull({in, units_});
  glorot_uniform(wfull, in, units_, rng);
  if (init_scale_ != 1.0) wfull *= static_cast<float>(init_scale_);
  if (shard_cols_ != units_) {
    w_ = Tensor({in, shard_cols_});
    slice_columns(wfull, shard_begin_, shard_cols_, w_);
  } else {
    w_ = std::move(wfull);
  }
  b_ = Tensor({shard_cols_});
  dw_ = Tensor({in, shard_cols_});
  db_ = Tensor({shard_cols_});
  return {units_};
}

Tensor Dense::forward(const Tensor& x, bool training) {
  // Only a training forward keeps the input and output backward reads;
  // inference copies neither and hands its output back by move.
  cached_ = training;
  if (training) x_ = x;
  // Bias (and ReLU, when it is the layer's activation) ride the GEMM
  // epilogue, so no pre-activation tensor is materialized separately.
  Epilogue ep;
  ep.bias = b_.data();
  if (!sharded_ || shard_.world <= 1) {
    if (act_ == Act::kRelu) ep.op = EpilogueOp::kRelu;
    Tensor z({x.dim(0), units_});
    gemm(false, false, x, w_, z, ep);
    if (act_ != Act::kRelu) apply_activation_inplace(act_, z);
    if (training) y_ = z;
    return z;
  }
  // Channel-parallel forward: local GEMM over this rank's column slice
  // (bias rides the epilogue; the activation must wait for the gather —
  // softmax normalizes across all columns, and post-gather ReLU is
  // bit-identical to the fused form).
  const std::size_t batch = x.dim(0);
  if (local_block_.shape() != Shape{batch, shard_cols_})
    local_block_ = Tensor({batch, shard_cols_});
  gemm(false, false, x, w_, local_block_, ep);
  Tensor y({batch, units_});
  allgather_columns(shard_, local_block_, units_, gather_scratch_, y);
  apply_activation_inplace(act_, y);
  if (training) y_ = y;
  return y;
}

Tensor Dense::backward(const Tensor& dy) {
  require(cached_, "Dense::backward: needs a preceding training forward");
  const Tensor dz = activation_backward(act_, dy, y_);
  if (!sharded_ || shard_.world <= 1) {
    gemm(true, false, x_, dz, dw_);  // dW = X^T dZ
    if (l2_ > 0.0) axpy(static_cast<float>(2.0 * l2_), w_, dw_);
    db_ = sum_rows(dz);
    if (!input_grad_needed_) return Tensor();
    return gemm(false, true, dz, w_);  // dX = dZ W^T
  }
  // Channel-parallel backward: slice this rank's columns of dZ, form the
  // rank-local dW/db (full batch, so no cross-rank averaging), then sum the
  // per-rank partial dX = dZ_r W_r^T across ranks.
  const std::size_t batch = dz.dim(0);
  if (local_block_.shape() != Shape{batch, shard_cols_})
    local_block_ = Tensor({batch, shard_cols_});
  slice_columns(dz, shard_begin_, shard_cols_, local_block_);
  gemm(true, false, x_, local_block_, dw_);
  if (l2_ > 0.0) axpy(static_cast<float>(2.0 * l2_), w_, dw_);
  db_ = sum_rows(local_block_);
  Tensor dx = gemm(false, true, local_block_, w_);
  sum_partials(shard_, dx);
  return dx;
}

// ---------------------------------------------------------------------------
// Conv1D
// ---------------------------------------------------------------------------

Conv1D::Conv1D(std::size_t filters, std::size_t kernel, std::size_t stride,
               Act act)
    : filters_(filters), kernel_(kernel), stride_(stride), act_(act) {
  require(filters > 0 && kernel > 0 && stride > 0,
          "Conv1D: filters/kernel/stride must be > 0");
}

std::string Conv1D::describe() const {
  return strprintf("Conv1D(f=%zu, k=%zu, s=%zu, %s)", filters_, kernel_,
                   stride_, act_name(act_).c_str());
}

bool Conv1D::channel_shard_costs(const Shape& input_shape, std::size_t batch,
                                 std::size_t* weight_bytes,
                                 std::size_t* activation_bytes,
                                 std::size_t* channels) const {
  if (input_shape.size() != 2) return false;
  const std::size_t L = input_shape[0], cin = input_shape[1];
  if (L < kernel_) return false;
  const std::size_t lout = conv1d_out_length(L, kernel_, stride_);
  // Filter sharding gathers the (batch, Lout, filters) output forward and
  // reduce-scatters + allgathers the (batch, L, Cin) input gradient
  // backward; data parallelism allreduces the (K, Cin, filters) gradient.
  *weight_bytes = (kernel_ * cin * filters_ + filters_) * sizeof(float);
  *activation_bytes = batch * (lout * filters_ + 2 * L * cin) * sizeof(float);
  *channels = filters_;
  return true;
}

void Conv1D::apply_channel_shard(const ChannelShard& shard) {
  require(w_.numel() == 0,
          "Conv1D::apply_channel_shard: must precede build()");
  require(shard.world >= 1 && shard.rank < shard.world,
          "Conv1D::apply_channel_shard: bad rank/world");
  require(shard.world == 1 || shard.comm != nullptr,
          "Conv1D::apply_channel_shard: null communicator");
  require(filters_ >= shard.world,
          "Conv1D::apply_channel_shard: filters < world");
  sharded_ = true;
  shard_ = shard;
}

Shape Conv1D::build(const Shape& input_shape, Rng& rng) {
  require(input_shape.size() == 2,
          "Conv1D: per-sample input must be (L, C), got " +
              shape_to_string(input_shape));
  const std::size_t L = input_shape[0], cin = input_shape[1];
  const std::size_t lout = conv1d_out_length(L, kernel_, stride_);
  shard_begin_ = 0;
  shard_cols_ = filters_;
  if (sharded_) {
    shard_begin_ = shard_offset(shard_.rank, filters_, shard_.world);
    shard_cols_ =
        shard_offset(shard_.rank + 1, filters_, shard_.world) - shard_begin_;
  }
  // Full init first so every rank consumes the same RNG variates (see
  // Dense::build); the filter axis is the trailing dim, so the slice is a
  // column slice of the flattened (K * Cin, filters) view.
  Tensor wfull({kernel_, cin, filters_});
  glorot_uniform(wfull, kernel_ * cin, kernel_ * filters_, rng);
  if (shard_cols_ != filters_) {
    w_ = Tensor({kernel_, cin, shard_cols_});
    slice_columns(wfull, shard_begin_, shard_cols_, w_);
  } else {
    w_ = std::move(wfull);
  }
  b_ = Tensor({shard_cols_});
  dw_ = Tensor({kernel_, cin, shard_cols_});
  db_ = Tensor({shard_cols_});
  return {lout, filters_};
}

Tensor Conv1D::forward(const Tensor& x, bool training) {
  // As in Dense::forward, only a training forward keeps backward's caches.
  cached_ = training;
  if (training) x_ = x;
  Tensor y;
  Tensor& out = training ? y_ : y;
  if (!sharded_ || shard_.world <= 1) {
    const bool fused_relu = act_ == Act::kRelu;
    // Training writes into y_, reusing the activation buffer across steps:
    // the kernel overwrites every element, so no per-step zero-fill is paid.
    conv1d_forward(x, w_, b_, stride_, out, &ws_,
                   fused_relu ? EpilogueOp::kRelu : EpilogueOp::kIdentity);
    if (!fused_relu) apply_activation_inplace(act_, out);
    if (training) return y_;
    return y;
  }
  // Filter-parallel forward: local convolution over this rank's filter
  // block, then gather the (B, Lout, filters) output (granularity B * Lout
  // rows); the activation runs post-gather on the full tensor.
  conv1d_forward(x, w_, b_, stride_, local_block_, &ws_,
                 EpilogueOp::kIdentity);
  const std::size_t batch = local_block_.dim(0);
  const std::size_t lout = local_block_.dim(1);
  if (out.shape() != Shape{batch, lout, filters_})
    out = Tensor({batch, lout, filters_});
  allgather_columns(shard_, local_block_, filters_, gather_scratch_, out);
  apply_activation_inplace(act_, out);
  if (training) return y_;
  return y;
}

Tensor Conv1D::backward(const Tensor& dy) {
  require(cached_, "Conv1D::backward: needs a preceding training forward");
  if (!sharded_ || shard_.world <= 1) {
    Tensor dx;
    if (input_grad_needed_) dx = Tensor(x_.shape());
    if (act_ == Act::kRelu) {
      // The kernels mask dy by the ReLU output in registers.
      conv1d_backward(x_, w_, dy, stride_, dx, dw_, db_, &ws_, &y_);
    } else {
      conv1d_backward(x_, w_, activation_backward(act_, dy, y_), stride_,
                      dx, dw_, db_, &ws_);
    }
    return dx;
  }
  const Tensor dz = activation_backward(act_, dy, y_);
  // Filter-parallel backward: slice this rank's filter block of dZ, run the
  // local conv backward (rank-local dW/db over the full batch), then sum
  // the per-rank partial dX across ranks.
  if (local_block_.shape() != Shape{dz.dim(0), dz.dim(1), shard_cols_})
    local_block_ = Tensor({dz.dim(0), dz.dim(1), shard_cols_});
  slice_columns(dz, shard_begin_, shard_cols_, local_block_);
  Tensor dx(x_.shape());
  conv1d_backward(x_, w_, local_block_, stride_, dx, dw_, db_, &ws_);
  sum_partials(shard_, dx);
  return dx;
}

// ---------------------------------------------------------------------------
// LocallyConnected1D
// ---------------------------------------------------------------------------

LocallyConnected1D::LocallyConnected1D(std::size_t filters,
                                       std::size_t kernel,
                                       std::size_t stride, Act act)
    : filters_(filters), kernel_(kernel), stride_(stride), act_(act) {
  require(filters > 0 && kernel > 0 && stride > 0,
          "LocallyConnected1D: filters/kernel/stride must be > 0");
}

std::string LocallyConnected1D::describe() const {
  return strprintf("LocallyConnected1D(f=%zu, k=%zu, s=%zu, %s)", filters_,
                   kernel_, stride_, act_name(act_).c_str());
}

Shape LocallyConnected1D::build(const Shape& input_shape, Rng& rng) {
  require(input_shape.size() == 2,
          "LocallyConnected1D: per-sample input must be (L, C), got " +
              shape_to_string(input_shape));
  const std::size_t L = input_shape[0];
  cin_ = input_shape[1];
  lout_ = conv1d_out_length(L, kernel_, stride_);
  w_ = Tensor({lout_, kernel_, cin_, filters_});
  b_ = Tensor({lout_, filters_});
  dw_ = Tensor(w_.shape());
  db_ = Tensor(b_.shape());
  glorot_uniform(w_, kernel_ * cin_, filters_, rng);
  return {lout_, filters_};
}

Tensor LocallyConnected1D::forward(const Tensor& x, bool /*training*/) {
  require(x.rank() == 3 && x.dim(2) == cin_,
          "LocallyConnected1D: input shape mismatch");
  x_ = x;
  const std::size_t batch = x.dim(0), L = x.dim(1);
  Tensor z({batch, lout_, filters_});
  const float* px = x.data();
  const float* pw = w_.data();
  const float* pb = b_.data();
  float* pz = z.data();
  for (std::size_t bi = 0; bi < batch; ++bi) {
    const float* xb = px + bi * L * cin_;
    for (std::size_t t = 0; t < lout_; ++t) {
      float* zrow = pz + (bi * lout_ + t) * filters_;
      const float* brow = pb + t * filters_;
      for (std::size_t oc = 0; oc < filters_; ++oc) zrow[oc] = brow[oc];
      const float* wt = pw + t * kernel_ * cin_ * filters_;
      const float* xwin = xb + t * stride_ * cin_;
      for (std::size_t k = 0; k < kernel_; ++k) {
        for (std::size_t ic = 0; ic < cin_; ++ic) {
          const float xv = xwin[k * cin_ + ic];
          const float* wvec = wt + (k * cin_ + ic) * filters_;
          for (std::size_t oc = 0; oc < filters_; ++oc)
            zrow[oc] += xv * wvec[oc];
        }
      }
    }
  }
  apply_activation_inplace(act_, z);
  y_ = std::move(z);
  return y_;
}

Tensor LocallyConnected1D::backward(const Tensor& dy) {
  const Tensor dz = activation_backward(act_, dy, y_);
  const std::size_t batch = x_.dim(0), L = x_.dim(1);
  Tensor dx(x_.shape());
  dw_.zero();
  db_.zero();
  const float* px = x_.data();
  const float* pw = w_.data();
  const float* pdz = dz.data();
  float* pdx = dx.data();
  float* pdw = dw_.data();
  float* pdb = db_.data();
  for (std::size_t bi = 0; bi < batch; ++bi) {
    const float* xb = px + bi * L * cin_;
    float* dxb = pdx + bi * L * cin_;
    for (std::size_t t = 0; t < lout_; ++t) {
      const float* dzrow = pdz + (bi * lout_ + t) * filters_;
      float* dbrow = pdb + t * filters_;
      for (std::size_t oc = 0; oc < filters_; ++oc) dbrow[oc] += dzrow[oc];
      const float* wt = pw + t * kernel_ * cin_ * filters_;
      float* dwt = pdw + t * kernel_ * cin_ * filters_;
      const std::size_t base = t * stride_ * cin_;
      for (std::size_t k = 0; k < kernel_; ++k) {
        for (std::size_t ic = 0; ic < cin_; ++ic) {
          const float xv = xb[base + k * cin_ + ic];
          const float* wvec = wt + (k * cin_ + ic) * filters_;
          float* dwvec = dwt + (k * cin_ + ic) * filters_;
          double acc = 0.0;
          for (std::size_t oc = 0; oc < filters_; ++oc) {
            dwvec[oc] += xv * dzrow[oc];
            acc += static_cast<double>(wvec[oc]) * dzrow[oc];
          }
          dxb[base + k * cin_ + ic] += static_cast<float>(acc);
        }
      }
    }
  }
  return dx;
}

// ---------------------------------------------------------------------------
// MaxPool1D
// ---------------------------------------------------------------------------

MaxPool1D::MaxPool1D(std::size_t window, std::size_t stride)
    : window_(window), stride_(stride == 0 ? window : stride) {
  require(window > 0, "MaxPool1D: window must be > 0");
}

std::string MaxPool1D::describe() const {
  return strprintf("MaxPool1D(w=%zu, s=%zu)", window_, stride_);
}

Shape MaxPool1D::build(const Shape& input_shape, Rng& /*rng*/) {
  require(input_shape.size() == 2,
          "MaxPool1D: per-sample input must be (L, C)");
  return {conv1d_out_length(input_shape[0], window_, stride_),
          input_shape[1]};
}

Tensor MaxPool1D::forward(const Tensor& x, bool /*training*/) {
  x_shape_ = x.shape();
  return maxpool1d_forward(x, window_, stride_, argmax_);
}

Tensor MaxPool1D::backward(const Tensor& dy) {
  return maxpool1d_backward(dy, x_shape_, argmax_);
}

// ---------------------------------------------------------------------------
// AvgPool1D
// ---------------------------------------------------------------------------

AvgPool1D::AvgPool1D(std::size_t window, std::size_t stride)
    : window_(window), stride_(stride == 0 ? window : stride) {
  require(window > 0, "AvgPool1D: window must be > 0");
}

std::string AvgPool1D::describe() const {
  return strprintf("AvgPool1D(w=%zu, s=%zu)", window_, stride_);
}

Shape AvgPool1D::build(const Shape& input_shape, Rng& /*rng*/) {
  require(input_shape.size() == 2,
          "AvgPool1D: per-sample input must be (L, C)");
  return {conv1d_out_length(input_shape[0], window_, stride_),
          input_shape[1]};
}

Tensor AvgPool1D::forward(const Tensor& x, bool /*training*/) {
  require(x.rank() == 3, "AvgPool1D: batch input must be (b, L, C)");
  x_shape_ = x.shape();
  const std::size_t b = x.dim(0), L = x.dim(1), C = x.dim(2);
  const std::size_t lout = conv1d_out_length(L, window_, stride_);
  Tensor y({b, lout, C});
  const float* px = x.data();
  float* py = y.data();
  const float inv = 1.0f / static_cast<float>(window_);
  for (std::size_t bi = 0; bi < b; ++bi)
    for (std::size_t t = 0; t < lout; ++t)
      for (std::size_t c = 0; c < C; ++c) {
        float acc = 0.0f;
        for (std::size_t k = 0; k < window_; ++k)
          acc += px[(bi * L + t * stride_ + k) * C + c];
        py[(bi * lout + t) * C + c] = acc * inv;
      }
  return y;
}

Tensor AvgPool1D::backward(const Tensor& dy) {
  const std::size_t b = x_shape_[0], L = x_shape_[1], C = x_shape_[2];
  const std::size_t lout = conv1d_out_length(L, window_, stride_);
  require(dy.rank() == 3 && dy.dim(1) == lout,
          "AvgPool1D: backward shape mismatch");
  Tensor dx(x_shape_);
  const float* pdy = dy.data();
  float* pdx = dx.data();
  const float inv = 1.0f / static_cast<float>(window_);
  for (std::size_t bi = 0; bi < b; ++bi)
    for (std::size_t t = 0; t < lout; ++t)
      for (std::size_t c = 0; c < C; ++c) {
        const float g = pdy[(bi * lout + t) * C + c] * inv;
        for (std::size_t k = 0; k < window_; ++k)
          pdx[(bi * L + t * stride_ + k) * C + c] += g;
      }
  return dx;
}

// ---------------------------------------------------------------------------
// Flatten / ExpandDims
// ---------------------------------------------------------------------------

Shape Flatten::build(const Shape& input_shape, Rng& /*rng*/) {
  return {shape_numel(input_shape)};
}

Tensor Flatten::forward(const Tensor& x, bool /*training*/) {
  x_shape_ = x.shape();
  require(x.rank() >= 2, "Flatten: batch input must be rank >= 2");
  return x.reshaped({x.dim(0), x.numel() / x.dim(0)});
}

Tensor Flatten::backward(const Tensor& dy) { return dy.reshaped(x_shape_); }

Shape ExpandDims::build(const Shape& input_shape, Rng& /*rng*/) {
  require(input_shape.size() == 1, "ExpandDims: per-sample input must be flat");
  return {input_shape[0], 1};
}

Tensor ExpandDims::forward(const Tensor& x, bool /*training*/) {
  x_shape_ = x.shape();
  require(x.rank() == 2, "ExpandDims: batch input must be (b, F)");
  return x.reshaped({x.dim(0), x.dim(1), 1});
}

Tensor ExpandDims::backward(const Tensor& dy) { return dy.reshaped(x_shape_); }

// ---------------------------------------------------------------------------
// Dropout
// ---------------------------------------------------------------------------

Dropout::Dropout(double rate) : rate_(rate), rng_(0xD09) {
  require(rate >= 0.0 && rate < 1.0, "Dropout: rate must be in [0, 1)");
}

std::string Dropout::describe() const {
  return strprintf("Dropout(%.2f)", rate_);
}

Shape Dropout::build(const Shape& input_shape, Rng& rng) {
  rng_ = rng.fork(0xD09);
  return input_shape;
}

Tensor Dropout::forward(const Tensor& x, bool training) {
  if (!training || rate_ == 0.0) {
    mask_.clear();
    return x;
  }
  const float keep_scale = static_cast<float>(1.0 / (1.0 - rate_));
  mask_.resize(x.numel());
  Tensor y = x;
  float* py = y.data();
  for (std::size_t i = 0; i < y.numel(); ++i) {
    mask_[i] = rng_.bernoulli(rate_) ? 0.0f : keep_scale;
    py[i] *= mask_[i];
  }
  return y;
}

Tensor Dropout::backward(const Tensor& dy) {
  if (mask_.empty()) return dy;
  require(mask_.size() == dy.numel(), "Dropout: backward batch mismatch");
  Tensor dx = dy;
  float* p = dx.data();
  for (std::size_t i = 0; i < dx.numel(); ++i) p[i] *= mask_[i];
  return dx;
}

// ---------------------------------------------------------------------------
// BatchNorm
// ---------------------------------------------------------------------------

BatchNorm::BatchNorm(double momentum, double epsilon)
    : momentum_(momentum), epsilon_(epsilon) {
  require(momentum >= 0.0 && momentum < 1.0,
          "BatchNorm: momentum must be in [0, 1)");
  require(epsilon > 0.0, "BatchNorm: epsilon must be > 0");
}

std::string BatchNorm::describe() const {
  return strprintf("BatchNorm(m=%.2f)", momentum_);
}

Shape BatchNorm::build(const Shape& input_shape, Rng& /*rng*/) {
  require(input_shape.size() == 1,
          "BatchNorm: per-sample input must be rank-1, got " +
              shape_to_string(input_shape));
  const std::size_t f = input_shape[0];
  gamma_ = Tensor({f}, 1.0f);
  beta_ = Tensor({f});
  dgamma_ = Tensor({f});
  dbeta_ = Tensor({f});
  running_mean_ = Tensor({f});
  running_var_ = Tensor({f}, 1.0f);
  return input_shape;
}

Tensor BatchNorm::forward(const Tensor& x, bool training) {
  require(x.rank() == 2, "BatchNorm: batch input must be (b, F)");
  const std::size_t b = x.dim(0), f = x.dim(1);
  require(f == gamma_.dim(0), "BatchNorm: feature width changed");
  const float* px = x.data();

  Tensor y({b, f});
  x_hat_ = Tensor({b, f});
  batch_inv_std_.assign(f, 0.0f);
  float* py = y.data();
  float* ph = x_hat_.data();
  const float* pg = gamma_.data();
  const float* pb = beta_.data();

  for (std::size_t j = 0; j < f; ++j) {
    double mean, var;
    if (training) {
      double m = 0.0;
      for (std::size_t i = 0; i < b; ++i) m += px[i * f + j];
      mean = m / static_cast<double>(b);
      double v = 0.0;
      for (std::size_t i = 0; i < b; ++i) {
        const double d = px[i * f + j] - mean;
        v += d * d;
      }
      var = v / static_cast<double>(b);
      running_mean_[j] = static_cast<float>(
          momentum_ * running_mean_[j] + (1.0 - momentum_) * mean);
      running_var_[j] = static_cast<float>(
          momentum_ * running_var_[j] + (1.0 - momentum_) * var);
    } else {
      mean = running_mean_[j];
      var = running_var_[j];
    }
    const float inv_std =
        static_cast<float>(1.0 / std::sqrt(var + epsilon_));
    batch_inv_std_[j] = inv_std;
    for (std::size_t i = 0; i < b; ++i) {
      const float xh =
          (px[i * f + j] - static_cast<float>(mean)) * inv_std;
      ph[i * f + j] = xh;
      py[i * f + j] = pg[j] * xh + pb[j];
    }
  }
  return y;
}

Tensor BatchNorm::backward(const Tensor& dy) {
  // Standard batch-norm backward (training-mode statistics):
  // dx = (gamma * inv_std / b) * (b*dy - sum(dy) - x_hat * sum(dy * x_hat))
  check_same_shape(dy, x_hat_, "BatchNorm::backward");
  const std::size_t b = dy.dim(0), f = dy.dim(1);
  Tensor dx({b, f});
  const float* pdy = dy.data();
  const float* ph = x_hat_.data();
  const float* pg = gamma_.data();
  float* pdx = dx.data();
  dgamma_.zero();
  dbeta_.zero();
  for (std::size_t j = 0; j < f; ++j) {
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (std::size_t i = 0; i < b; ++i) {
      sum_dy += pdy[i * f + j];
      sum_dy_xhat += static_cast<double>(pdy[i * f + j]) * ph[i * f + j];
    }
    dgamma_[j] = static_cast<float>(sum_dy_xhat);
    dbeta_[j] = static_cast<float>(sum_dy);
    const double scale = static_cast<double>(pg[j]) * batch_inv_std_[j] /
                         static_cast<double>(b);
    for (std::size_t i = 0; i < b; ++i) {
      pdx[i * f + j] = static_cast<float>(
          scale * (static_cast<double>(b) * pdy[i * f + j] - sum_dy -
                   ph[i * f + j] * sum_dy_xhat));
    }
  }
  return dx;
}

// ---------------------------------------------------------------------------
// Activation
// ---------------------------------------------------------------------------

Activation::Activation(Act act) : act_(act) {}

std::string Activation::describe() const {
  return "Activation(" + act_name(act_) + ")";
}

Shape Activation::build(const Shape& input_shape, Rng& /*rng*/) {
  return input_shape;
}

Tensor Activation::forward(const Tensor& x, bool /*training*/) {
  y_ = apply_activation(act_, x);
  return y_;
}

Tensor Activation::backward(const Tensor& dy) {
  return activation_backward(act_, dy, y_);
}

}  // namespace candle::nn
