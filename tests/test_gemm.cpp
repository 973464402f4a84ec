// Golden/property tests for the blocked GEMM core (src/tensor/gemm.*):
// the packed, register-tiled kernel is checked against the preserved naive
// reference (gemm_naive) across all transpose combinations, odd and
// edge-tile shapes straddling the MR/NR/KC blocking boundaries, and every
// epilogue mode (bias, ReLU, accumulate). The direct Conv1D kernels are
// checked bit for bit against the im2col + gemm_raw lowering they replaced,
// kept here as the oracle, and against the naive reference convolution.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "tensor/conv.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace candle {
namespace {

Tensor random_tensor(Shape shape, Rng& rng, double stddev = 1.0) {
  Tensor t(std::move(shape));
  for (float& v : t.values()) v = static_cast<float>(rng.normal(0, stddev));
  return t;
}

// Relative tolerance per the kernel contract: |got - ref| <= 1e-4 * scale.
void expect_all_near(const Tensor& got, const Tensor& ref,
                     const char* what) {
  ASSERT_EQ(got.shape(), ref.shape()) << what;
  for (std::size_t i = 0; i < got.numel(); ++i) {
    const float tol = 1e-4f * std::max(1.0f, std::fabs(ref[i]));
    ASSERT_NEAR(got[i], ref[i], tol) << what << " at flat index " << i;
  }
}

// Stores A as (trans ? k×m : m×k) row-major so the same logical operand
// can be fed to every transpose combination.
Tensor make_operand(std::size_t rows, std::size_t cols, bool trans,
                    Rng& rng) {
  return trans ? random_tensor({cols, rows}, rng)
               : random_tensor({rows, cols}, rng);
}

// ---------------------------------------------------------------------------
// Blocked GEMM vs. the naive reference
// ---------------------------------------------------------------------------

TEST(Gemm, KnownProduct) {
  const Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = gemm(false, false, a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Gemm, NaiveReferenceKnownProduct) {
  // Anchors the reference kernel itself before everything is tested
  // against it.
  const Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = gemm_naive(false, false, a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Gemm, ShapeMismatchThrows) {
  const Tensor a({2, 3});
  const Tensor b({2, 3});
  EXPECT_THROW((void)gemm(false, false, a, b), InvalidArgument);
  EXPECT_NO_THROW((void)gemm(false, true, a, b));
  Tensor c({3, 3});
  EXPECT_THROW(gemm(false, true, a, b, c), InvalidArgument);  // c is (2,2)
}

TEST(Gemm, AllTransposeCombosAcrossEdgeTileShapes) {
  // m spans the MR=6 tile edges, n the NR=8 edges, and larger values cross
  // the MC=96 block boundary; k=300 crosses the KC=256 panel boundary so
  // the multi-panel first/last writeback logic is exercised too.
  const std::size_t ms[] = {1, kGemmMR - 1, kGemmMR, kGemmMR + 1, 2 * kGemmMR + 3, kGemmMC + 5};
  const std::size_t ns[] = {1, kGemmNR - 1, kGemmNR, kGemmNR + 1, 3 * kGemmNR + 1};
  const std::size_t ks[] = {1, 7, 64, kGemmKC + 44};
  Rng rng(11);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (std::size_t m : ms) {
        for (std::size_t n : ns) {
          for (std::size_t k : ks) {
            const Tensor a = make_operand(m, k, ta, rng);
            const Tensor b = make_operand(k, n, tb, rng);
            const Tensor ref = gemm_naive(ta, tb, a, b);
            const Tensor got = gemm(ta, tb, a, b);
            ASSERT_EQ(got.shape(), ref.shape());
            for (std::size_t i = 0; i < got.numel(); ++i) {
              const float tol = 1e-4f * std::max(1.0f, std::fabs(ref[i]));
              ASSERT_NEAR(got[i], ref[i], tol)
                  << "ta=" << ta << " tb=" << tb << " m=" << m << " n=" << n
                  << " k=" << k << " i=" << i;
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Epilogue modes
// ---------------------------------------------------------------------------

TEST(GemmEpilogue, BiasAddsRowVector) {
  Rng rng(21);
  const std::size_t m = 13, n = 19, k = 40;
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  const Tensor bias = random_tensor({n}, rng);
  Epilogue ep;
  ep.bias = bias.data();
  const Tensor got = gemm(false, false, a, b, ep);
  Tensor ref = gemm_naive(false, false, a, b);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) ref.at(i, j) += bias[j];
  expect_all_near(got, ref, "bias epilogue");
}

TEST(GemmEpilogue, ReluClampsNegatives) {
  Rng rng(22);
  const std::size_t m = 9, n = 17, k = 33;
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  Epilogue ep;
  ep.op = EpilogueOp::kRelu;
  const Tensor got = gemm(false, false, a, b, ep);
  Tensor ref = gemm_naive(false, false, a, b);
  for (float& v : ref.values()) v = v > 0.0f ? v : 0.0f;
  expect_all_near(got, ref, "relu epilogue");
  for (float v : got.values()) EXPECT_GE(v, 0.0f);
}

TEST(GemmEpilogue, BiasReluComposesAcrossKPanels) {
  // k > KC: the epilogue must fire exactly once, after the last k-panel.
  Rng rng(23);
  const std::size_t m = 7, n = 11, k = 2 * kGemmKC + 17;
  const Tensor a = random_tensor({m, k}, rng, 0.2);
  const Tensor b = random_tensor({k, n}, rng, 0.2);
  const Tensor bias = random_tensor({n}, rng);
  Epilogue ep;
  ep.bias = bias.data();
  ep.op = EpilogueOp::kRelu;
  const Tensor got = gemm(false, false, a, b, ep);
  Tensor ref = gemm_naive(false, false, a, b);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float v = ref.at(i, j) + bias[j];
      ref.at(i, j) = v > 0.0f ? v : 0.0f;
    }
  expect_all_near(got, ref, "bias+relu epilogue");
}

TEST(GemmEpilogue, AccumulateKeepsPriorContents) {
  Rng rng(24);
  const std::size_t m = 10, n = 14, k = kGemmKC + 5;
  const Tensor a = random_tensor({m, k}, rng, 0.3);
  const Tensor b = random_tensor({k, n}, rng, 0.3);
  const Tensor c0 = random_tensor({m, n}, rng);
  Tensor got = c0;
  Epilogue ep;
  ep.accumulate = true;
  gemm(false, false, a, b, got, ep);
  Tensor ref = gemm_naive(false, false, a, b);
  ref += c0;
  expect_all_near(got, ref, "accumulate epilogue");
}

TEST(GemmEpilogue, OverwriteIgnoresPriorContents) {
  Rng rng(25);
  const std::size_t m = 6, n = 8, k = 12;
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  Tensor got({m, n}, 123.0f);  // stale garbage that must be overwritten
  gemm(false, false, a, b, got);
  const Tensor ref = gemm_naive(false, false, a, b);
  expect_all_near(got, ref, "overwrite");
}

// ---------------------------------------------------------------------------
// Direct Conv1D kernels vs. the im2col + GEMM oracle
// ---------------------------------------------------------------------------

// The lowering the direct kernels replaced: every window x[bi, t*stride ..
// t*stride+K-1, :] becomes row (bi*Lout + t) of `cols`, the forward is one
// GEMM with bias/ReLU in its epilogue, dW = cols^T dZ, and dX is the
// col2im scatter (zero, then add windows in ascending t) of dZ W^T.
Tensor oracle_cols(const Tensor& x, std::size_t K, std::size_t stride) {
  const std::size_t b = x.dim(0), L = x.dim(1), cin = x.dim(2);
  const std::size_t lout = conv1d_out_length(L, K, stride);
  Tensor cols({b * lout, K * cin});
  for (std::size_t bi = 0; bi < b; ++bi)
    for (std::size_t t = 0; t < lout; ++t)
      std::memcpy(cols.data() + (bi * lout + t) * K * cin,
                  x.data() + (bi * L + t * stride) * cin,
                  K * cin * sizeof(float));
  return cols;
}

Tensor oracle_forward(const Tensor& x, const Tensor& w, const Tensor& bias,
                      std::size_t stride, EpilogueOp act) {
  const std::size_t K = w.dim(0), cout = w.dim(2);
  const Tensor cols = oracle_cols(x, K, stride);
  Tensor y({x.dim(0), cols.dim(0) / x.dim(0), cout});
  Epilogue ep;
  ep.bias = bias.data();
  ep.op = act;
  gemm_raw(false, false, cols.dim(0), cout, cols.dim(1), cols.data(),
           w.data(), y.data(), ep);
  return y;
}

void oracle_backward(const Tensor& x, const Tensor& w, const Tensor& dz,
                     std::size_t stride, Tensor& dx, Tensor& dw,
                     Tensor& db) {
  const std::size_t K = w.dim(0), cin = w.dim(1), cout = w.dim(2);
  const Tensor cols = oracle_cols(x, K, stride);
  const std::size_t rows = cols.dim(0), row_w = cols.dim(1);
  db.zero();
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t oc = 0; oc < cout; ++oc)
      db[oc] += dz[r * cout + oc];
  gemm_raw(true, false, row_w, cout, rows, cols.data(), dz.data(),
           dw.data());
  Tensor dcols({rows, row_w});
  gemm_raw(false, true, rows, row_w, cout, dz.data(), w.data(),
           dcols.data());
  const std::size_t b = x.dim(0), L = x.dim(1), lout = rows / b;
  dx.zero();
  for (std::size_t bi = 0; bi < b; ++bi)
    for (std::size_t t = 0; t < lout; ++t)
      for (std::size_t i = 0; i < row_w; ++i)
        dx[(bi * L + t * stride) * cin + i] +=
            dcols[(bi * lout + t) * row_w + i];
}

void expect_same_bits(const Tensor& got, const Tensor& ref,
                      const std::string& what) {
  ASSERT_EQ(got.shape(), ref.shape()) << what;
  if (std::memcmp(got.data(), ref.data(), got.numel() * sizeof(float)) == 0)
    return;
  for (std::size_t i = 0; i < got.numel(); ++i)
    if (std::memcmp(got.data() + i, ref.data() + i, sizeof(float)) != 0)
      FAIL() << what << ": first differing element " << i << ": " << got[i]
             << " vs " << ref[i];
}

// Forward, dW, dX and db, unmasked and ReLU-masked, over every shape class
// the kernels block on: 1-, 5-, 16-, 17- and 128-filter panels, 1- to
// 320-long windows (K*Cin > kGemmKC splits the forward reduction), strides
// 1-3, b = 1, Lout = 1, and b*Lout > kGemmKC (always split in dW).
TEST(Conv1dDirect, BitIdenticalToIm2colGemmOracle) {
  Rng rng(37);
  struct Extent {
    std::size_t b, lout;
  };
  const Extent extents[] = {{1, 1}, {1, 7}, {3, 37}, {3, 100}};
  for (std::size_t cin : {1u, 3u, 16u})
    for (std::size_t cout : {1u, 5u, 16u, 17u, 128u})
      for (std::size_t K : {1u, 5u, 9u, 20u})
        for (std::size_t stride : {1u, 2u, 3u})
          for (const Extent& e : extents) {
            const std::string what =
                "cin=" + std::to_string(cin) + " cout=" +
                std::to_string(cout) + " K=" + std::to_string(K) +
                " stride=" + std::to_string(stride) +
                " b=" + std::to_string(e.b) +
                " lout=" + std::to_string(e.lout);
            const std::size_t L = K + stride * (e.lout - 1);
            const Tensor x = random_tensor({e.b, L, cin}, rng);
            const Tensor w = random_tensor({K, cin, cout}, rng);
            const Tensor bias = random_tensor({cout}, rng);
            Conv1dWorkspace ws;
            for (EpilogueOp act : {EpilogueOp::kIdentity, EpilogueOp::kRelu})
              expect_same_bits(conv1d_forward(x, w, bias, stride, &ws, act),
                               oracle_forward(x, w, bias, stride, act),
                               what + " forward");
            const Tensor y =
                conv1d_forward(x, w, bias, stride, &ws, EpilogueOp::kRelu);
            const Tensor dy = random_tensor(y.shape(), rng);
            const Tensor dz = relu_backward(dy, y);
            Tensor dx_ref(x.shape()), dw_ref(w.shape()), db_ref(bias.shape());
            Tensor dx(x.shape()), dw(w.shape()), db(bias.shape());
            // Unmasked kernels on dz, then the masked path on dy.
            oracle_backward(x, w, dz, stride, dx_ref, dw_ref, db_ref);
            conv1d_backward(x, w, dz, stride, dx, dw, db, &ws);
            expect_same_bits(dx, dx_ref, what + " dx");
            expect_same_bits(dw, dw_ref, what + " dw");
            expect_same_bits(db, db_ref, what + " db");
            conv1d_backward(x, w, dy, stride, dx, dw, db, &ws, &y);
            expect_same_bits(dx, dx_ref, what + " masked dx");
            expect_same_bits(dw, dw_ref, what + " masked dw");
            expect_same_bits(db, db_ref, what + " masked db");
            if (HasFailure()) return;
          }
}

// Signed zeros and NaN follow the oracle too: a product that underflows
// leaves -0 before the bias, which the fused ReLU keeps (v < 0 is false),
// and the mask keeps dY wherever the ReLU output is NaN.
TEST(Conv1dDirect, SignedZerosAndNaNMatchOracle) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Tensor x({1, 4, 1}, {1e-30f, 1e-30f, 0.0f, -1e-30f});
  const Tensor w({1, 1, 3}, {-1e-30f, 1e-30f, 0.0f});
  const Tensor bias({3}, {-0.0f, -0.0f, -0.0f});
  for (EpilogueOp act : {EpilogueOp::kIdentity, EpilogueOp::kRelu})
    expect_same_bits(conv1d_forward(x, w, bias, 1, nullptr, act),
                     oracle_forward(x, w, bias, 1, act), "forward");
  const Tensor y({1, 4, 3},
                 {nan, 0.0f, -0.0f, 1, -1, nan, 2, 0.0f, 3, -0.0f, nan, 5});
  const Tensor dy({1, 4, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  Tensor dx_ref(x.shape()), dw_ref(w.shape()), db_ref(bias.shape());
  oracle_backward(x, w, relu_backward(dy, y), 1, dx_ref, dw_ref, db_ref);
  Tensor dx(x.shape()), dw(w.shape()), db(bias.shape());
  conv1d_backward(x, w, dy, 1, dx, dw, db, nullptr, &y);
  expect_same_bits(dx, dx_ref, "masked dx");
  expect_same_bits(dw, dw_ref, "masked dw");
  expect_same_bits(db, db_ref, "masked db");
}

TEST(Conv1dDirect, EmptyDxSkipsInputGradientOnly) {
  Rng rng(38);
  const Tensor x = random_tensor({2, 30, 3}, rng);
  const Tensor w = random_tensor({5, 3, 16}, rng);
  const Tensor bias = random_tensor({16}, rng);
  const Tensor y = conv1d_forward(x, w, bias, 2, nullptr, EpilogueOp::kRelu);
  const Tensor dy = random_tensor(y.shape(), rng);
  Tensor dx(x.shape()), dw(w.shape()), db(bias.shape());
  conv1d_backward(x, w, dy, 2, dx, dw, db, nullptr, &y);
  Tensor none, dw2(w.shape()), db2(bias.shape());
  conv1d_backward(x, w, dy, 2, none, dw2, db2, nullptr, &y);
  EXPECT_EQ(none.numel(), 0u);
  expect_same_bits(dw2, dw, "dw");
  expect_same_bits(db2, db, "db");
}

TEST(Conv1dDirect, MaskedBackwardRejectsMisshapedReluOutput) {
  Rng rng(39);
  const Tensor x = random_tensor({1, 10, 2}, rng);
  const Tensor w = random_tensor({3, 2, 4}, rng);
  const Tensor dy = random_tensor({1, 8, 4}, rng);
  const Tensor wrong({1, 7, 4});
  Tensor dx(x.shape()), dw(w.shape()), db({4});
  EXPECT_THROW(conv1d_backward(x, w, dy, 1, dx, dw, db, nullptr, &wrong),
               InvalidArgument);
}

TEST(Conv1dGemm, MatchesNaiveReference) {
  Rng rng(33);
  struct Case {
    std::size_t b, L, cin, K, cout, stride;
  };
  const Case cases[] = {
      {1, 8, 1, 3, 4, 1},   {2, 16, 3, 5, 7, 2},  {1, 9, 2, 9, 3, 1},
      {3, 21, 4, 1, 5, 1},  {2, 30, 2, 4, 16, 3},
  };
  for (const Case& tc : cases) {
    const Tensor x = random_tensor({tc.b, tc.L, tc.cin}, rng);
    const Tensor w = random_tensor({tc.K, tc.cin, tc.cout}, rng);
    const Tensor bias = random_tensor({tc.cout}, rng);
    const Tensor ref = conv1d_forward_naive(x, w, bias, tc.stride);
    const Tensor got = conv1d_forward(x, w, bias, tc.stride);
    ASSERT_EQ(got.shape(), ref.shape());
    for (std::size_t i = 0; i < got.numel(); ++i) {
      const float tol = 1e-4f * std::max(1.0f, std::fabs(ref[i]));
      ASSERT_NEAR(got[i], ref[i], tol)
          << "b=" << tc.b << " L=" << tc.L << " K=" << tc.K << " i=" << i;
    }
  }
}

TEST(Conv1dGemm, FusedReluEpilogueMatchesPostRelu) {
  Rng rng(34);
  const Tensor x = random_tensor({2, 12, 3}, rng);
  const Tensor w = random_tensor({3, 3, 5}, rng);
  const Tensor bias = random_tensor({5}, rng);
  const Tensor got =
      conv1d_forward(x, w, bias, 1, nullptr, EpilogueOp::kRelu);
  Tensor ref = conv1d_forward_naive(x, w, bias, 1);
  for (float& v : ref.values()) v = v > 0.0f ? v : 0.0f;
  expect_all_near(got, ref, "conv relu epilogue");
}

TEST(Conv1dGemm, WorkspaceReuseSurvivesShapeChanges) {
  Rng rng(35);
  Conv1dWorkspace ws;
  const Tensor w = random_tensor({3, 2, 4}, rng);
  const Tensor bias = random_tensor({4}, rng);
  for (std::size_t L : {10u, 24u, 10u}) {
    const Tensor x = random_tensor({2, L, 2}, rng);
    const Tensor ref = conv1d_forward_naive(x, w, bias, 1);
    const Tensor got = conv1d_forward(x, w, bias, 1, &ws);
    expect_all_near(got, ref, "workspace reuse");
  }
}

TEST(Conv1dGemm, BackwardAgreesWithWorkspaceAndWithout) {
  Rng rng(36);
  const Tensor x = random_tensor({2, 14, 3}, rng);
  const Tensor w = random_tensor({4, 3, 6}, rng);
  const Tensor bias = random_tensor({6}, rng);
  const Tensor y = conv1d_forward(x, w, bias, 2);
  const Tensor dy(y.shape(), 1.0f);
  Tensor dx1(x.shape()), dw1(w.shape()), db1(bias.shape());
  conv1d_backward(x, w, dy, 2, dx1, dw1, db1);
  Conv1dWorkspace ws;
  Tensor dx2(x.shape()), dw2(w.shape()), db2(bias.shape());
  conv1d_backward(x, w, dy, 2, dx2, dw2, db2, &ws);
  expect_all_near(dx2, dx1, "dx ws");
  expect_all_near(dw2, dw1, "dw ws");
  expect_all_near(db2, db1, "db ws");
}

}  // namespace
}  // namespace candle
