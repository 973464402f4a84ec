#include "tensor/conv.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "tensor/pack.h"

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
  if (d.b == 0 || d.cin == 0 || d.cout == 0)
    throw InvalidArgument(std::string(op) + ": empty batch or channel axis");
  return d;
}

// ---------------------------------------------------------------------------
// Direct kernels
//
// Each kernel register-blocks kMR rows by one "strip" of two vectors (16
// lanes with AVX2, 8 with the 128-bit variant) and sums every output in the
// order the GEMM core sums the equivalent (b*Lout, K*Cin) x (K*Cin, Cout)
// product of the unrolled windows, so the results are bit-identical to it:
//  * forward y(r, oc), dW(q, oc) and dX's per-window term d(r, q) start at
//    0 and add products over the reduction index in ascending order
//    (forward: window offset q = k*Cin + ic; dW: row r = bi*Lout + t; dX:
//    filter oc), written as `acc += a * b` in the same vector form as the
//    GEMM microkernel so the compiler contracts both the same way;
//  * a reduction longer than kGemmKC is split into kGemmKC panels combined
//    as the GEMM store does: C = acc, then C = acc + C;
//  * bias, then ReLU (v < 0 -> +0), apply after the last panel;
//  * dX starts at 0 and adds each window's term in ascending t (the order
//    the unrolled-window scatter used), and db adds the rows of dY in
//    ascending r.
// ---------------------------------------------------------------------------

constexpr std::size_t kMR = kGemmMR;     // rows per register tile
constexpr std::size_t kPanel = kGemmNR;  // lanes per packed weight panel
static_assert(kPanel == 16, "packed panels are 16 lanes wide");

// Forward tiles per pool chunk (kMR rows each).
constexpr std::size_t kForwardGrain = 16;

/// Operands of one kernel call; unused fields stay null.
struct ConvArgs {
  ConvDims d{};
  std::size_t stride = 1;
  const float* x = nullptr;
  const float* packed = nullptr;  // 16-lane weight panels (pack_panels)
  const float* bias = nullptr;
  const float* dy = nullptr;
  const float* relu_y = nullptr;  // post-ReLU output masking dy, or null
  bool relu = false;              // forward: fused ReLU
  float* out = nullptr;           // y, dW or dX
};

/// Packs the rows x cols matrix with element (r, c) at src[r*rs + c*cs] into
/// zero-padded 16-column panels: panel p holds columns [16p, 16p + 16) row
/// by row.
void pack_panels(const float* src, std::size_t rs, std::size_t cs,
                 std::size_t rows, std::size_t cols, AlignedVector& out) {
  out.resize((cols + kPanel - 1) / kPanel * kPanel * rows);
  detail::pack_b(src, rs, cs, rows, cols, kPanel, out.data());
}

#if defined(__GNUC__) || defined(__clang__)
#define CANDLE_CONV_INLINE inline __attribute__((always_inline))
#else
#define CANDLE_CONV_INLINE inline
#endif

template <typename V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(float);

/// Lanes of a `live`-lane row that fall in the vector starting at `lane0`.
CANDLE_CONV_INLINE std::size_t lanes_from(std::size_t live,
                                          std::size_t lane0) {
  return live > lane0 ? live - lane0 : 0;
}

// Full-vector loads/stores go through memcpy: the buffers are only
// float-aligned, and a vector typedef's alignment attribute does not
// survive template deduction. Partial ones copy lane by lane (a
// variable-length memcpy is a library call).
template <typename V>
CANDLE_CONV_INLINE void load(const float* p, std::size_t live, V& v) {
  if (live >= kLanes<V>) {
    std::memcpy(&v, p, sizeof(V));
    return;
  }
  float lanes[kLanes<V>] = {};
  for (std::size_t l = 0; l < live; ++l) lanes[l] = p[l];
  std::memcpy(&v, lanes, sizeof(V));
}

template <typename V>
CANDLE_CONV_INLINE void store(float* p, std::size_t live, const V& v) {
  if (live >= kLanes<V>) {
    std::memcpy(p, &v, sizeof(V));
    return;
  }
  float lanes[kLanes<V>];
  std::memcpy(lanes, &v, sizeof(V));
  for (std::size_t l = 0; l < live; ++l) p[l] = lanes[l];
}

/// p[l] += v[l] for the live lanes.
template <typename V>
CANDLE_CONV_INLINE void add_to(float* p, std::size_t live, const V& v) {
  V cur;
  load(p, live, cur);
  cur += v;
  store(p, live, cur);
}

/// v = {*a, *a, ...}. With GCC a shuffle of the loaded lane compiles to
/// one broadcast; an initializer list or scalar-vector operation, inlined
/// through these baseline-compiled templates, becomes per-lane inserts.
template <typename V>
CANDLE_CONV_INLINE void broadcast(const float* a, V& v) {
  if constexpr (kLanes<V> == 1) {
    v = *a;
  } else {
#if defined(__clang__)
    v = *a - V{};  // a - (+0) == a in every lane, -0 and NaN included
#else
    typedef std::int32_t Index __attribute__((vector_size(sizeof(V))));
    v = V{};
    std::memcpy(&v, a, sizeof(float));
    v = __builtin_shuffle(v, Index{});
#endif
  }
}

/// dy masked by the ReLU output: y <= 0 ? +0 : dy (NaN y keeps dy).
template <typename V>
CANDLE_CONV_INLINE void relu_mask(const float* y, std::size_t live, V& dy) {
  V yv;
  load(y, live, yv);
  const V zero{};
  dy = yv <= zero ? zero : dy;
}

/// acc[i] = sum over p in [p0, p1) of a[i][p] * b[p*16 .. +2 vectors],
/// from zero, p ascending.
template <typename V>
CANDLE_CONV_INLINE void rows_by_panel(const float* const* a, std::size_t p0,
                                      std::size_t p1, const float* b,
                                      V (&acc)[kMR][2]) {
  for (auto& row : acc) row[0] = row[1] = V{};
  for (std::size_t p = p0; p < p1; ++p) {
    V b0, b1;
    load(b + p * kPanel, kLanes<V>, b0);
    load(b + p * kPanel + kLanes<V>, kLanes<V>, b1);
    for (std::size_t i = 0; i < kMR; ++i) {
      V av;
      broadcast(a[i] + p, av);
      acc[i][0] += av * b0;
      acc[i][1] += av * b1;
    }
  }
}

/// rows_by_panel over [0, n) in kGemmKC panels, combined as the GEMM store.
template <typename V>
CANDLE_CONV_INLINE void rows_by_panel_split(const float* const* a,
                                            std::size_t n, const float* b,
                                            V (&acc)[kMR][2]) {
  rows_by_panel(a, 0, std::min(n, kGemmKC), b, acc);
  for (std::size_t pc = kGemmKC; pc < n; pc += kGemmKC) {
    V part[kMR][2];
    rows_by_panel(a, pc, std::min(n, pc + kGemmKC), b, part);
    for (std::size_t i = 0; i < kMR; ++i) {
      acc[i][0] = part[i][0] + acc[i][0];
      acc[i][1] = part[i][1] + acc[i][1];
    }
  }
}

/// Forward over row tiles [tile0, tile1) of the flattened (b*Lout) axis.
template <typename V>
CANDLE_CONV_INLINE void forward_tiles(const ConvArgs& g, std::size_t tile0,
                                      std::size_t tile1) {
  constexpr std::size_t kW = kLanes<V>;
  const ConvDims& d = g.d;
  const std::size_t rows = d.b * d.lout, row_w = d.K * d.cin;
  // (batch, position) of the next row, advanced row by row.
  std::size_t bi = tile0 * kMR / d.lout, t = tile0 * kMR % d.lout;
  for (std::size_t tile = tile0; tile < tile1; ++tile) {
    const std::size_t r0 = tile * kMR;
    const std::size_t live_rows = std::min(kMR, rows - r0);
    // Window starts; rows past the end repeat the last live window.
    const float* a[kMR];
    const float* last = g.x;
    for (std::size_t i = 0; i < kMR; ++i) {
      if (i < live_rows) {
        last = g.x + (bi * d.L + t * g.stride) * d.cin;
        if (++t == d.lout) {
          t = 0;
          ++bi;
        }
      }
      a[i] = last;
    }
    for (std::size_t lane0 = 0; lane0 < d.cout; lane0 += 2 * kW) {
      const std::size_t live = std::min(2 * kW, d.cout - lane0);
      const float* panel =
          g.packed + lane0 / kPanel * kPanel * row_w + lane0 % kPanel;
      V acc[kMR][2];
      rows_by_panel_split(a, row_w, panel, acc);
      V bias0, bias1;
      load(g.bias + lane0, live, bias0);
      load(g.bias + lane0 + kW, lanes_from(live, kW), bias1);
      const V zero{};
      for (std::size_t i = 0; i < live_rows; ++i) {
        V v0 = acc[i][0] + bias0;
        V v1 = acc[i][1] + bias1;
        if (g.relu) {
          v0 = v0 < zero ? zero : v0;
          v1 = v1 < zero ? zero : v1;
        }
        float* yrow = g.out + (r0 + i) * d.cout + lane0;
        store(yrow, live, v0);
        store(yrow + kW, lanes_from(live, kW), v1);
      }
    }
  }
}

/// dW over tiles [tile0, tile1); tile = (kMR window offsets, lane strip).
template <typename V>
CANDLE_CONV_INLINE void dweight_tiles(const ConvArgs& g, std::size_t tile0,
                                      std::size_t tile1) {
  constexpr std::size_t kW = kLanes<V>;
  const ConvDims& d = g.d;
  const std::size_t rows = d.b * d.lout, row_w = d.K * d.cin;
  const std::size_t strips = (d.cout + 2 * kW - 1) / (2 * kW);
  // Row panels outermost, as in the GEMM: one kGemmKC-row panel of x and dY
  // stays cache-resident while every tile of the chunk consumes it, and dW
  // holds the running total (C = acc, then C = acc + C).
  for (std::size_t pc = 0; pc < rows; pc += kGemmKC) {
    const std::size_t pend = std::min(rows, pc + kGemmKC);
    for (std::size_t tile = tile0; tile < tile1; ++tile) {
      const std::size_t q0 = tile / strips * kMR;
      const std::size_t lane0 = tile % strips * 2 * kW;
      const std::size_t live_rows = std::min(kMR, row_w - q0);
      const std::size_t live = std::min(2 * kW, d.cout - lane0);
      // Offsets past the window repeat the last live one.
      std::size_t q[kMR];
      for (std::size_t i = 0; i < kMR; ++i)
        q[i] = q0 + std::min(i, live_rows - 1);
      V acc[kMR][2];
      for (auto& row : acc) row[0] = row[1] = V{};
      std::size_t bi = pc / d.lout, t = pc % d.lout;
      for (std::size_t r = pc; r < pend; ++r) {
        const float* xw = g.x + (bi * d.L + t * g.stride) * d.cin;
        const float* dyr = g.dy + r * d.cout + lane0;
        V d0, d1;
        load(dyr, live, d0);
        load(dyr + kW, lanes_from(live, kW), d1);
        if (g.relu_y != nullptr) {
          const float* yr = g.relu_y + r * d.cout + lane0;
          relu_mask(yr, live, d0);
          relu_mask(yr + kW, lanes_from(live, kW), d1);
        }
        for (std::size_t i = 0; i < kMR; ++i) {
          V av;
          broadcast(xw + q[i], av);
          acc[i][0] += av * d0;
          acc[i][1] += av * d1;
        }
        if (++t == d.lout) {
          t = 0;
          ++bi;
        }
      }
      for (std::size_t i = 0; i < live_rows; ++i) {
        float* dwrow = g.out + (q0 + i) * d.cout + lane0;
        if (pc == 0) {
          store(dwrow, live, acc[i][0]);
          store(dwrow + kW, lanes_from(live, kW), acc[i][1]);
        } else {
          add_to(dwrow, live, acc[i][0]);
          add_to(dwrow + kW, lanes_from(live, kW), acc[i][1]);
        }
      }
    }
  }
}

/// dX for batch elements [b0, b1); dx must be zeroed.
template <typename V>
CANDLE_CONV_INLINE void dinput_batches(const ConvArgs& g, std::size_t b0,
                                       std::size_t b1) {
  constexpr std::size_t kW = kLanes<V>;
  const ConvDims& d = g.d;
  const std::size_t row_w = d.K * d.cin;
  // The tile's dY rows after the ReLU mask (when there is one).
  std::vector<float> masked(g.relu_y != nullptr ? kMR * d.cout : 0);
  for (std::size_t bi = b0; bi < b1; ++bi) {
    float* dxb = g.out + bi * d.L * d.cin;
    for (std::size_t t0 = 0; t0 < d.lout; t0 += kMR) {
      const std::size_t live_rows = std::min(kMR, d.lout - t0);
      const float* a[kMR];
      for (std::size_t i = 0; i < kMR; ++i) {
        const std::size_t r = bi * d.lout + t0 + std::min(i, live_rows - 1);
        a[i] = g.dy + r * d.cout;
        if (g.relu_y == nullptr) continue;
        float* m = masked.data() + i * d.cout;
        for (std::size_t c = 0; c < d.cout; c += kW) {
          const std::size_t live = std::min(kW, d.cout - c);
          V v;
          load(a[i] + c, live, v);
          relu_mask(g.relu_y + r * d.cout + c, live, v);
          store(m + c, live, v);
        }
        a[i] = m;
      }
      // Strips from the highest window offset down, rows ascending within
      // a strip: a dx element then receives its window terms in ascending t.
      const std::size_t strips = (row_w + 2 * kW - 1) / (2 * kW);
      for (std::size_t s = strips; s-- > 0;) {
        const std::size_t q0 = s * 2 * kW;
        const std::size_t live = std::min(2 * kW, row_w - q0);
        const float* panel =
            g.packed + q0 / kPanel * kPanel * d.cout + q0 % kPanel;
        V acc[kMR][2];
        rows_by_panel_split(a, d.cout, panel, acc);
        // Successive rows overlap in dx when the window step is shorter
        // than the strip. A vector read-modify-write of the next row would
        // then stall on store forwarding, so those rows add lane by lane.
        const bool overlap = g.stride * d.cin < live;
        for (std::size_t i = 0; i < live_rows; ++i) {
          float* dst = dxb + (t0 + i) * g.stride * d.cin + q0;
          if (overlap) {
            float lanes[2 * kW];
            std::memcpy(lanes, &acc[i][0], sizeof(V));
            std::memcpy(lanes + kW, &acc[i][1], sizeof(V));
            for (std::size_t l = 0; l < live; ++l) dst[l] += lanes[l];
          } else {
            add_to(dst, live, acc[i][0]);
            add_to(dst + kW, lanes_from(live, kW), acc[i][1]);
          }
        }
      }
    }
  }
}

/// db(oc) = sum over rows of (masked) dY, rows ascending. Rows are the
/// outer loop so dY streams through once; db stays in L1.
template <typename V>
CANDLE_CONV_INLINE void dbias_all(const ConvArgs& g, float* db) {
  constexpr std::size_t kW = kLanes<V>;
  const ConvDims& d = g.d;
  const std::size_t rows = d.b * d.lout;
  std::fill(db, db + d.cout, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < d.cout; c += kW) {
      const std::size_t live = std::min(kW, d.cout - c);
      V v;
      load(g.dy + r * d.cout + c, live, v);
      if (g.relu_y != nullptr) relu_mask(g.relu_y + r * d.cout + c, live, v);
      add_to(db + c, live, v);
    }
  }
}

using TileFn = void (*)(const ConvArgs&, std::size_t, std::size_t);

/// One instruction-set variant of the kernels.
struct ConvKernels {
  std::size_t strip;  // output lanes per register tile column
  TileFn forward;
  TileFn dweight;
  TileFn dinput;
  void (*dbias)(const ConvArgs&, float*);

  [[nodiscard]] std::size_t strips(std::size_t n) const {
    return (n + strip - 1) / strip;
  }
};

#if defined(__GNUC__) || defined(__clang__)

// Same two variants as the GEMM microkernel. Memory goes through load/store
// (memcpy), so the vector types need no alignment or aliasing attributes.
typedef float v4f __attribute__((vector_size(16)));
typedef float v8f __attribute__((vector_size(32)));

void forward_v128(const ConvArgs& g, std::size_t a, std::size_t b) {
  forward_tiles<v4f>(g, a, b);
}
void dweight_v128(const ConvArgs& g, std::size_t a, std::size_t b) {
  dweight_tiles<v4f>(g, a, b);
}
void dinput_v128(const ConvArgs& g, std::size_t a, std::size_t b) {
  dinput_batches<v4f>(g, a, b);
}
void dbias_v128(const ConvArgs& g, float* db) { dbias_all<v4f>(g, db); }

#if defined(__x86_64__)

// Function-level target attribute, as in gemm.cpp: the rest of the TU stays
// baseline x86-64, and the inlined templates compile with AVX2+FMA here.
__attribute__((target("avx2,fma"))) void forward_avx2(const ConvArgs& g,
                                                      std::size_t a,
                                                      std::size_t b) {
  forward_tiles<v8f>(g, a, b);
}
__attribute__((target("avx2,fma"))) void dweight_avx2(const ConvArgs& g,
                                                      std::size_t a,
                                                      std::size_t b) {
  dweight_tiles<v8f>(g, a, b);
}
__attribute__((target("avx2,fma"))) void dinput_avx2(const ConvArgs& g,
                                                     std::size_t a,
                                                     std::size_t b) {
  dinput_batches<v8f>(g, a, b);
}
__attribute__((target("avx2,fma"))) void dbias_avx2(const ConvArgs& g,
                                                    float* db) {
  dbias_all<v8f>(g, db);
}

#endif  // __x86_64__

ConvKernels select_kernels() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return {16, forward_avx2, dweight_avx2, dinput_avx2, dbias_avx2};
#endif
  return {8, forward_v128, dweight_v128, dinput_v128, dbias_v128};
}

#else  // !(__GNUC__ || __clang__)

// Scalar fallback for compilers without vector extensions: one-lane
// "vectors", two lanes per strip.
void forward_scalar(const ConvArgs& g, std::size_t a, std::size_t b) {
  forward_tiles<float>(g, a, b);
}
void dweight_scalar(const ConvArgs& g, std::size_t a, std::size_t b) {
  dweight_tiles<float>(g, a, b);
}
void dinput_scalar(const ConvArgs& g, std::size_t a, std::size_t b) {
  dinput_batches<float>(g, a, b);
}
void dbias_scalar(const ConvArgs& g, float* db) { dbias_all<float>(g, db); }

ConvKernels select_kernels() {
  return {2, forward_scalar, dweight_scalar, dinput_scalar, dbias_scalar};
}

#endif  // __GNUC__ || __clang__

// Resolved once at startup, like the GEMM microkernel.
const ConvKernels kKernels = select_kernels();

}  // namespace

std::size_t conv1d_out_length(std::size_t length, std::size_t window,
                              std::size_t stride) {
  require(window > 0 && stride > 0, "conv1d: window and stride must be > 0");
  if (length < window)
    throw InvalidArgument("conv1d: input length " + std::to_string(length) +
                          " shorter than window " + std::to_string(window));
  return (length - window) / stride + 1;
}

void conv1d_forward(const Tensor& x, const Tensor& w, const Tensor& bias,
                    std::size_t stride, Tensor& y, Conv1dWorkspace* ws,
                    EpilogueOp act) {
  const ConvDims d = check_conv_operands(x, w, stride, "conv1d_forward");
  require(bias.rank() == 1 && bias.dim(0) == d.cout,
          "conv1d_forward: bias must be (Cout)");

  Conv1dWorkspace local;
  Conv1dWorkspace& work = ws != nullptr ? *ws : local;
  const std::size_t row_w = d.K * d.cin;
  // The (K, Cin, Cout) weight is already the (K*Cin, Cout) operand; pack
  // it into zero-padded 16-filter panels.
  pack_panels(w.data(), d.cout, 1, row_w, d.cout, work.packed);

  // The kernel overwrites every output element, so y's contents never need
  // zeroing — reusing the caller's buffer skips a fill of the (often
  // large) activation tensor on every step.
  const Shape want{d.b, d.lout, d.cout};
  if (y.shape() != want) y = Tensor(want);

  ConvArgs g;
  g.d = d;
  g.stride = stride;
  g.x = x.data();
  g.packed = work.packed.data();
  g.bias = bias.data();
  g.relu = act == EpilogueOp::kRelu;
  g.out = y.data();
  const std::size_t tiles = (d.b * d.lout + kMR - 1) / kMR;
  parallel::parallel_for(0, tiles, kForwardGrain,
                         [&](std::size_t t0, std::size_t t1) {
                           kKernels.forward(g, t0, t1);
                         });
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
                     Tensor& dbias, Conv1dWorkspace* ws,
                     const Tensor* relu_out) {
  const ConvDims d = check_conv_operands(x, w, stride, "conv1d_backward");
  require(dy.rank() == 3 && dy.dim(0) == d.b && dy.dim(1) == d.lout &&
              dy.dim(2) == d.cout,
          "conv1d_backward: dy shape mismatch");
  const bool want_dx = dx.numel() != 0;
  if (want_dx) check_same_shape(dx, x, "conv1d_backward dx");
  check_same_shape(dw, w, "conv1d_backward dw");
  require(dbias.rank() == 1 && dbias.dim(0) == d.cout,
          "conv1d_backward: dbias must be (Cout)");
  if (relu_out != nullptr) check_same_shape(*relu_out, dy, "conv1d_backward relu_out");

  ConvArgs g;
  g.d = d;
  g.stride = stride;
  g.x = x.data();
  g.dy = dy.data();
  g.relu_y = relu_out != nullptr ? relu_out->data() : nullptr;

  kKernels.dbias(g, dbias.data());

  // dW(K*Cin, Cout): tiles of kMR window offsets x one lane strip.
  g.out = dw.data();
  const std::size_t row_w = d.K * d.cin;
  const std::size_t dw_tiles =
      (row_w + kMR - 1) / kMR * kKernels.strips(d.cout);
  parallel::parallel_for(0, dw_tiles, 1, [&](std::size_t t0, std::size_t t1) {
    kKernels.dweight(g, t0, t1);
  });
  if (!want_dx) return;

  // dX: the transposed weight packed into 16-offset panels; batch elements
  // are the disjoint output partitions (windows overlap within one).
  Conv1dWorkspace local;
  Conv1dWorkspace& work = ws != nullptr ? *ws : local;
  pack_panels(w.data(), 1, d.cout, d.cout, row_w, work.packed);
  g.packed = work.packed.data();
  g.out = dx.data();
  dx.zero();
  parallel::parallel_for(0, d.b, 1, [&](std::size_t b0, std::size_t b1) {
    kKernels.dinput(g, b0, b1);
  });
}

Tensor maxpool1d_forward(const Tensor& x, std::size_t window,
                         std::size_t stride,
                         std::vector<std::size_t>& argmax) {
  require(x.rank() == 3, "maxpool1d_forward: x must be (b, L, C)");
  const std::size_t b = x.dim(0), L = x.dim(1), C = x.dim(2);
  const std::size_t lout = conv1d_out_length(L, window, stride);
  Tensor y({b, lout, C});
  // Every entry is overwritten below: a caller's argmax kept across steps
  // is neither reallocated nor refilled.
  argmax.resize(y.numel());
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
