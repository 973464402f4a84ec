#include "tensor/conv.h"

#include <algorithm>

#include "common/error.h"
#include "common/parallel.h"

namespace candle {
namespace {

struct ConvDims {
  std::size_t b, L, cin, K, cout, lout;
};

ConvDims check_conv_operands(const Tensor& x, const Tensor& w,
                             std::size_t stride, const char* op) {
  if (x.rank() != 3)
    throw InvalidArgument(std::string(op) + ": x must be (b, L, Cin)");
  if (w.rank() != 3)
    throw InvalidArgument(std::string(op) + ": w must be (K, Cin, Cout)");
  ConvDims d;
  d.b = x.dim(0);
  d.L = x.dim(1);
  d.cin = x.dim(2);
  d.K = w.dim(0);
  d.cout = w.dim(2);
  if (w.dim(1) != d.cin)
    throw InvalidArgument(std::string(op) + ": channel mismatch");
  d.lout = conv1d_out_length(d.L, d.K, stride);
  return d;
}

}  // namespace

std::size_t conv1d_out_length(std::size_t length, std::size_t window,
                              std::size_t stride) {
  require(window > 0 && stride > 0, "conv1d: window and stride must be > 0");
  if (length < window)
    throw InvalidArgument("conv1d: input length " + std::to_string(length) +
                          " shorter than window " + std::to_string(window));
  return (length - window) / stride + 1;
}

void im2col(const Tensor& x, std::size_t kernel, std::size_t stride,
            Tensor& cols) {
  require(x.rank() == 3, "im2col: x must be (b, L, Cin)");
  const std::size_t b = x.dim(0), L = x.dim(1), cin = x.dim(2);
  const std::size_t lout = conv1d_out_length(L, kernel, stride);
  const std::size_t row_w = kernel * cin;
  const Shape want{b * lout, row_w};
  if (cols.shape() != want) cols = Tensor(want);
  const float* px = x.data();
  float* pc = cols.data();
  // Channels-last makes each window a contiguous K*Cin slice of the input,
  // so the expansion is a strided copy. Output rows are disjoint, so the
  // flattened (batch, step) axis parallelizes directly.
  parallel::parallel_for(0, b * lout, 64, [&](std::size_t r0,
                                              std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const std::size_t bi = r / lout;
      const std::size_t t = r % lout;
      const float* src = px + bi * L * cin + t * stride * cin;
      std::copy(src, src + row_w, pc + r * row_w);
    }
  });
}

void col2im(const Tensor& cols, std::size_t kernel, std::size_t stride,
            Tensor& dx) {
  require(dx.rank() == 3, "col2im: dx must be (b, L, Cin)");
  const std::size_t b = dx.dim(0), L = dx.dim(1), cin = dx.dim(2);
  const std::size_t lout = conv1d_out_length(L, kernel, stride);
  const std::size_t row_w = kernel * cin;
  require(cols.rank() == 2 && cols.dim(0) == b * lout &&
              cols.dim(1) == row_w,
          "col2im: cols shape mismatch: " + shape_to_string(cols.shape()));
  dx.zero();
  const float* pc = cols.data();
  float* pdx = dx.data();
  // Overlapping windows scatter-add into the same dx elements within one
  // batch element, so the batch axis is the only safely disjoint split;
  // the serial in-order t loop per element keeps the fp sums identical to
  // the serial schedule.
  parallel::parallel_for(0, b, 1, [&](std::size_t b0, std::size_t b1) {
    for (std::size_t bi = b0; bi < b1; ++bi) {
      const float* cb = pc + bi * lout * row_w;
      float* dxb = pdx + bi * L * cin;
      for (std::size_t t = 0; t < lout; ++t) {
        const float* src = cb + t * row_w;
        float* dst = dxb + t * stride * cin;
        for (std::size_t i = 0; i < row_w; ++i) dst[i] += src[i];
      }
    }
  });
}

void conv1d_forward(const Tensor& x, const Tensor& w, const Tensor& bias,
                    std::size_t stride, Tensor& y, Conv1dWorkspace* ws,
                    EpilogueOp act) {
  const ConvDims d = check_conv_operands(x, w, stride, "conv1d_forward");
  require(bias.rank() == 1 && bias.dim(0) == d.cout,
          "conv1d_forward: bias must be (Cout)");

  Conv1dWorkspace local;
  Conv1dWorkspace& work = ws != nullptr ? *ws : local;
  im2col(x, d.K, stride, work.cols);

  // The GEMM overwrites every output element, so y's contents never need
  // zeroing — reusing the caller's buffer skips a fill of the (often
  // large) activation tensor on every step.
  const Shape want{d.b, d.lout, d.cout};
  if (y.shape() != want) y = Tensor(want);

  // y(b*Lout, Cout) = cols(b*Lout, K*Cin) * w(K*Cin, Cout) — the weight
  // tensor's (K, Cin, Cout) layout is already the packed GEMM operand.
  Epilogue ep;
  ep.bias = bias.data();
  ep.op = act;
  gemm_raw(false, false, d.b * d.lout, d.cout, d.K * d.cin,
           work.cols.data(), w.data(), y.data(), ep);
}

Tensor conv1d_forward(const Tensor& x, const Tensor& w, const Tensor& bias,
                      std::size_t stride, Conv1dWorkspace* ws,
                      EpilogueOp act) {
  Tensor y;
  conv1d_forward(x, w, bias, stride, y, ws, act);
  return y;
}

Tensor conv1d_forward_naive(const Tensor& x, const Tensor& w,
                            const Tensor& bias, std::size_t stride) {
  const ConvDims d =
      check_conv_operands(x, w, stride, "conv1d_forward_naive");
  require(bias.rank() == 1 && bias.dim(0) == d.cout,
          "conv1d_forward_naive: bias must be (Cout)");

  Tensor y({d.b, d.lout, d.cout});
  const float* px = x.data();
  const float* pw = w.data();
  const float* pb = bias.data();
  float* py = y.data();

  for (std::size_t bi = 0; bi < d.b; ++bi) {
    const float* xb = px + bi * d.L * d.cin;
    float* yb = py + bi * d.lout * d.cout;
    for (std::size_t t = 0; t < d.lout; ++t) {
      float* yrow = yb + t * d.cout;
      for (std::size_t oc = 0; oc < d.cout; ++oc) yrow[oc] = pb[oc];
      const float* xwin = xb + t * stride * d.cin;
      for (std::size_t k = 0; k < d.K; ++k) {
        const float* xrow = xwin + k * d.cin;
        const float* wrow = pw + k * d.cin * d.cout;
        for (std::size_t ic = 0; ic < d.cin; ++ic) {
          const float xv = xrow[ic];
          const float* wvec = wrow + ic * d.cout;
          for (std::size_t oc = 0; oc < d.cout; ++oc)
            yrow[oc] += xv * wvec[oc];
        }
      }
    }
  }
  return y;
}

void conv1d_backward(const Tensor& x, const Tensor& w, const Tensor& dy,
                     std::size_t stride, Tensor& dx, Tensor& dw,
                     Tensor& dbias, Conv1dWorkspace* ws) {
  const ConvDims d = check_conv_operands(x, w, stride, "conv1d_backward");
  require(dy.rank() == 3 && dy.dim(0) == d.b && dy.dim(1) == d.lout &&
              dy.dim(2) == d.cout,
          "conv1d_backward: dy shape mismatch");
  check_same_shape(dx, x, "conv1d_backward dx");
  check_same_shape(dw, w, "conv1d_backward dw");
  require(dbias.rank() == 1 && dbias.dim(0) == d.cout,
          "conv1d_backward: dbias must be (Cout)");

  Conv1dWorkspace local;
  Conv1dWorkspace& work = ws != nullptr ? *ws : local;
  im2col(x, d.K, stride, work.cols);

  const std::size_t rows = d.b * d.lout;
  const std::size_t row_w = d.K * d.cin;
  const float* pdy = dy.data();

  dbias.zero();
  float* pdb = dbias.data();
  for (std::size_t r = 0; r < rows; ++r) {
    const float* dyrow = pdy + r * d.cout;
    for (std::size_t oc = 0; oc < d.cout; ++oc) pdb[oc] += dyrow[oc];
  }

  // dW(K*Cin, Cout) = cols^T * dY; GEMM overwrites, no pre-zero needed.
  gemm_raw(true, false, row_w, d.cout, rows, work.cols.data(), pdy,
           dw.data());

  // d(cols)(b*Lout, K*Cin) = dY * W^T, then scatter back into dx.
  const Shape want{rows, row_w};
  if (work.dcols.shape() != want) work.dcols = Tensor(want);
  gemm_raw(false, true, rows, row_w, d.cout, pdy, w.data(),
           work.dcols.data());
  col2im(work.dcols, d.K, stride, dx);
}

Tensor maxpool1d_forward(const Tensor& x, std::size_t window,
                         std::size_t stride,
                         std::vector<std::size_t>& argmax) {
  require(x.rank() == 3, "maxpool1d_forward: x must be (b, L, C)");
  const std::size_t b = x.dim(0), L = x.dim(1), C = x.dim(2);
  const std::size_t lout = conv1d_out_length(L, window, stride);
  Tensor y({b, lout, C});
  argmax.assign(y.numel(), 0);
  const float* px = x.data();
  float* py = y.data();

  for (std::size_t bi = 0; bi < b; ++bi) {
    const float* xb = px + bi * L * C;
    for (std::size_t t = 0; t < lout; ++t) {
      const std::size_t base = t * stride;
      for (std::size_t c = 0; c < C; ++c) {
        std::size_t best = base * C + c;
        float bestv = xb[best];
        for (std::size_t k = 1; k < window; ++k) {
          const std::size_t idx = (base + k) * C + c;
          if (xb[idx] > bestv) {
            bestv = xb[idx];
            best = idx;
          }
        }
        const std::size_t oidx = (bi * lout + t) * C + c;
        py[oidx] = bestv;
        argmax[oidx] = bi * L * C + best;
      }
    }
  }
  return y;
}

Tensor maxpool1d_backward(const Tensor& dy, const Shape& x_shape,
                          const std::vector<std::size_t>& argmax) {
  require(dy.numel() == argmax.size(),
          "maxpool1d_backward: argmax size mismatch");
  Tensor dx(x_shape);
  float* pdx = dx.data();
  const float* pdy = dy.data();
  for (std::size_t i = 0; i < argmax.size(); ++i) pdx[argmax[i]] += pdy[i];
  return dx;
}

Tensor global_avgpool1d_forward(const Tensor& x) {
  require(x.rank() == 3, "global_avgpool1d: x must be (b, L, C)");
  const std::size_t b = x.dim(0), L = x.dim(1), C = x.dim(2);
  require(L > 0, "global_avgpool1d: empty time axis");
  Tensor y({b, C});
  const float* px = x.data();
  float* py = y.data();
  const float inv = 1.0f / static_cast<float>(L);
  for (std::size_t bi = 0; bi < b; ++bi)
    for (std::size_t t = 0; t < L; ++t)
      for (std::size_t c = 0; c < C; ++c)
        py[bi * C + c] += px[(bi * L + t) * C + c] * inv;
  return y;
}

Tensor global_avgpool1d_backward(const Tensor& dy, const Shape& x_shape) {
  require(x_shape.size() == 3, "global_avgpool1d_backward: x must be rank-3");
  const std::size_t b = x_shape[0], L = x_shape[1], C = x_shape[2];
  require(dy.rank() == 2 && dy.dim(0) == b && dy.dim(1) == C,
          "global_avgpool1d_backward: dy shape mismatch");
  Tensor dx(x_shape);
  const float inv = 1.0f / static_cast<float>(L);
  float* pdx = dx.data();
  const float* pdy = dy.data();
  for (std::size_t bi = 0; bi < b; ++bi)
    for (std::size_t t = 0; t < L; ++t)
      for (std::size_t c = 0; c < C; ++c)
        pdx[(bi * L + t) * C + c] = pdy[bi * C + c] * inv;
  return dx;
}

}  // namespace candle
