// 1-D convolution and max-pooling kernels (channels-last layout), the
// building blocks of the NT3 convolutional classifier.
//
// Layout convention (matches Keras Conv1D with channels_last):
//   activations: (batch, length, channels)
//   conv weights: (kernel, in_channels, out_channels)
// Padding is 'valid' and dilation is 1, which is what NT3 uses.
//
// Conv1D forward and backward are direct register-blocked kernels: with
// channels-last layout each sliding window is a contiguous K*Cin slice of
// the input, so the kernels read windows in place (no expansion buffer) and
// multiply them by 16-filter panels of the weight. Bias and ReLU are fused
// into the forward write; the backward kernels can apply the ReLU mask to dY
// in registers. Every output is summed in the order the GEMM core (gemm.h)
// would sum the equivalent (b*Lout, K*Cin) x (K*Cin, Cout) product, so the
// results are bit-identical to that lowering (tests/test_gemm.cpp keeps it
// as the oracle).
#pragma once

#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace candle {

/// Output length of a valid 1-D convolution / pooling window sweep.
/// Requires length >= window.
std::size_t conv1d_out_length(std::size_t length, std::size_t window,
                              std::size_t stride);

/// Scratch for the direct kernels: the weight repacked into zero-padded
/// 16-lane panels (forward: filter panels; backward: input-position panels
/// of the transpose). Owned by the caller (e.g. the Conv1D layer) so
/// repeated steps reuse the allocation.
struct Conv1dWorkspace {
  AlignedVector packed;
};

/// Forward convolution: x (b, L, Cin), w (K, Cin, Cout), bias (Cout)
/// -> y (b, Lout, Cout). Bias and `act` are fused into the output write.
/// Pass a workspace to reuse the packed-weight buffer across steps. `y` is
/// (re)allocated only when its shape is wrong — the kernel overwrites every
/// element, so a reused buffer skips the zero-fill of a fresh activation
/// tensor (124 MB/step for NT3's first layer).
void conv1d_forward(const Tensor& x, const Tensor& w, const Tensor& bias,
                    std::size_t stride, Tensor& y,
                    Conv1dWorkspace* ws = nullptr,
                    EpilogueOp act = EpilogueOp::kIdentity);

/// Allocating convenience overload.
Tensor conv1d_forward(const Tensor& x, const Tensor& w, const Tensor& bias,
                      std::size_t stride, Conv1dWorkspace* ws = nullptr,
                      EpilogueOp act = EpilogueOp::kIdentity);

/// Gradients of the valid conv. `dy` is (b, Lout, Cout).
/// Outputs are written to dx/dw/dbias, which must be pre-shaped like
/// x/w/bias (they are overwritten). An empty `dx` (numel 0) skips the input
/// gradient. When `relu_out` is set it is the layer's post-ReLU output
/// (shaped like dy), and every kernel reads dy masked by it
/// (`relu_out <= 0 ? +0 : dy`, exactly what relu_backward yields) instead
/// of a materialized masked tensor.
void conv1d_backward(const Tensor& x, const Tensor& w, const Tensor& dy,
                     std::size_t stride, Tensor& dx, Tensor& dw,
                     Tensor& dbias, Conv1dWorkspace* ws = nullptr,
                     const Tensor* relu_out = nullptr);

/// Reference direct convolution (the seed kernel, minus its data-dependent
/// zero-skip branch). Golden baseline for tests/test_gemm.cpp and the
/// bench_micro_kernels speedup comparison — never call it from layer code.
Tensor conv1d_forward_naive(const Tensor& x, const Tensor& w,
                            const Tensor& bias, std::size_t stride);

/// Max-pool forward: x (b, L, C) -> y (b, Lout, C); `argmax` records, for
/// every output element, the flat input index that won (for backward). The
/// first maximum in the window wins ties. `argmax` is only resized, so one
/// kept across steps is neither reallocated nor refilled.
Tensor maxpool1d_forward(const Tensor& x, std::size_t window,
                         std::size_t stride,
                         std::vector<std::size_t>& argmax);

/// Max-pool backward: routes dy elements to the recorded argmax positions.
Tensor maxpool1d_backward(const Tensor& dy, const Shape& x_shape,
                          const std::vector<std::size_t>& argmax);

/// Global average pool over time: x (b, L, C) -> y (b, C).
Tensor global_avgpool1d_forward(const Tensor& x);
Tensor global_avgpool1d_backward(const Tensor& dy, const Shape& x_shape);

}  // namespace candle
