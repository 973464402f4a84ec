#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/parallel.h"

namespace candle {
namespace {

void check_rank2(const Tensor& t, const char* op) {
  if (t.rank() != 2)
    throw InvalidArgument(std::string(op) + ": operand must be rank-2, got " +
                          shape_to_string(t.shape()));
}

// Elementwise kernels are memory-bound; small splits cost more in pool
// dispatch than they save, so chunks carry at least this many elements.
constexpr std::size_t kElemwiseGrain = 8192;

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor out = a;
  out += b;
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor out = a;
  out -= b;
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  Tensor out = a;
  float* po = out.data();
  const float* pb = b.data();
  for (std::size_t i = 0; i < out.numel(); ++i) po[i] *= pb[i];
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out = a;
  out *= s;
  return out;
}

void add_bias_rows(Tensor& y, const Tensor& bias) {
  check_rank2(y, "add_bias_rows");
  require(bias.rank() == 1 && bias.dim(0) == y.dim(1),
          "add_bias_rows: bias shape must equal row width");
  const std::size_t m = y.dim(0), n = y.dim(1);
  float* py = y.data();
  const float* pb = bias.data();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) py[i * n + j] += pb[j];
}

Tensor sum_rows(const Tensor& a) {
  check_rank2(a, "sum_rows");
  const std::size_t m = a.dim(0), n = a.dim(1);
  Tensor out({n});
  const float* pa = a.data();
  float* po = out.data();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) po[j] += pa[i * n + j];
  return out;
}

void axpy(float alpha, const Tensor& x, Tensor& y) {
  check_same_shape(x, y, "axpy");
  const float* px = x.data();
  float* py = y.data();
  for (std::size_t i = 0; i < y.numel(); ++i) py[i] += alpha * px[i];
}

void relu_inplace(Tensor& x) {
  float* p = x.data();
  parallel::parallel_for(0, x.numel(), kElemwiseGrain,
                         [p](std::size_t i0, std::size_t i1) {
                           for (std::size_t i = i0; i < i1; ++i)
                             p[i] = p[i] > 0.0f ? p[i] : 0.0f;
                         });
}

Tensor relu(const Tensor& x) {
  Tensor out = x;
  relu_inplace(out);
  return out;
}

Tensor relu_backward(const Tensor& dy, const Tensor& y) {
  check_same_shape(dy, y, "relu_backward");
  Tensor dx(dy.shape());
  float* pd = dx.data();
  const float* pdy = dy.data();
  const float* py = y.data();
  // One unconditional write per element: both operands are loaded first,
  // so the select compiles to a compare-and-mask, not a jump that
  // mispredicts on about half of a ReLU output. NaN y keeps dy.
  for (std::size_t i = 0; i < dx.numel(); ++i) {
    const float yv = py[i], dv = pdy[i];
    pd[i] = yv <= 0.0f ? 0.0f : dv;
  }
  return dx;
}

void sigmoid_inplace(Tensor& x) {
  float* p = x.data();
  parallel::parallel_for(0, x.numel(), kElemwiseGrain,
                         [p](std::size_t i0, std::size_t i1) {
                           for (std::size_t i = i0; i < i1; ++i)
                             p[i] = 1.0f / (1.0f + std::exp(-p[i]));
                         });
}

Tensor sigmoid(const Tensor& x) {
  Tensor out = x;
  sigmoid_inplace(out);
  return out;
}

Tensor sigmoid_backward(const Tensor& dy, const Tensor& y) {
  check_same_shape(dy, y, "sigmoid_backward");
  Tensor dx = dy;
  float* pd = dx.data();
  const float* py = y.data();
  for (std::size_t i = 0; i < dx.numel(); ++i)
    pd[i] *= py[i] * (1.0f - py[i]);
  return dx;
}

void tanh_inplace(Tensor& x) {
  float* p = x.data();
  parallel::parallel_for(0, x.numel(), kElemwiseGrain,
                         [p](std::size_t i0, std::size_t i1) {
                           for (std::size_t i = i0; i < i1; ++i)
                             p[i] = std::tanh(p[i]);
                         });
}

Tensor tanh_act(const Tensor& x) {
  Tensor out = x;
  tanh_inplace(out);
  return out;
}

Tensor tanh_backward(const Tensor& dy, const Tensor& y) {
  check_same_shape(dy, y, "tanh_backward");
  Tensor dx = dy;
  float* pd = dx.data();
  const float* py = y.data();
  for (std::size_t i = 0; i < dx.numel(); ++i) pd[i] *= 1.0f - py[i] * py[i];
  return dx;
}

void softmax_rows_inplace(Tensor& x) {
  require(x.rank() >= 1, "softmax_rows: rank must be >= 1");
  const std::size_t n = x.shape().back();
  require(n > 0, "softmax_rows: zero-width rows");
  const std::size_t m = x.numel() / n;
  float* p = x.data();
  // Rows are independent and each row's max/sum runs in serial index
  // order, so the threaded result is bit-identical to the serial one.
  parallel::parallel_for(0, m, 1, [p, n](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      float* row = p + i * n;
      const float mx = *std::max_element(row, row + n);
      double sum = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        row[j] = std::exp(row[j] - mx);
        sum += row[j];
      }
      const float inv = static_cast<float>(1.0 / sum);
      for (std::size_t j = 0; j < n; ++j) row[j] *= inv;
    }
  });
}

Tensor softmax_rows(const Tensor& x) {
  check_rank2(x, "softmax_rows");
  Tensor out = x;
  softmax_rows_inplace(out);
  return out;
}

std::vector<std::size_t> argmax_rows(const Tensor& x) {
  check_rank2(x, "argmax_rows");
  const std::size_t m = x.dim(0), n = x.dim(1);
  require(n > 0, "argmax_rows: zero-width rows");
  std::vector<std::size_t> out(m);
  const float* p = x.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = p + i * n;
    out[i] = static_cast<std::size_t>(
        std::max_element(row, row + n) - row);
  }
  return out;
}

}  // namespace candle
