// Cache-blocked, register-tiled single-precision GEMM with fused epilogues.
//
// This is the one matrix-product entry point for the NN substrate: dense
// layers and their backward passes lower onto gemm() / gemm_raw(), and the
// direct Conv1D kernels (conv.h) sum in this core's order and share its
// blocking constants. The implementation follows the classic
// GotoBLAS/BLIS decomposition — NC/KC/MC cache blocking, A and B packed
// into contiguous MR-/NR-wide panels (pack.h), and an MR×NR microkernel
// written with GCC/Clang vector extensions (an AVX2+FMA variant is
// selected at runtime on x86-64; a 128-bit generic variant is the
// fallback, so no -march build flags are needed). Transposition is
// absorbed by the packing step, so all four transpose combinations run
// through the same microkernel at full speed.
//
// The epilogue (bias add, ReLU, accumulate-vs-overwrite) is applied per
// output tile while it is still cache-hot, which lets layers fuse
// z = x*W + b and relu(z) into the product instead of materializing and
// re-traversing intermediate tensors.
#pragma once

#include <cstddef>

#include "tensor/tensor.h"

namespace candle {

// Blocking parameters. MR×NR is the register tile: 6×16 floats = 12 ymm
// accumulators in the AVX2 microkernel (two 8-wide vectors per row),
// leaving registers for the B load and the A broadcast. KC sizes the
// packed panels for L1 (the NR×KC B panel + MR×KC A panel stay resident),
// MC×KC keeps the packed A block in L2, and NC×KC bounds the packed B
// block by L3. EXPERIMENTS.md ("Kernel benchmarks") describes how to
// retune them.
inline constexpr std::size_t kGemmMR = 6;
inline constexpr std::size_t kGemmNR = 16;
inline constexpr std::size_t kGemmMC = 96;    // multiple of kGemmMR
inline constexpr std::size_t kGemmKC = 256;
inline constexpr std::size_t kGemmNC = 2048;  // multiple of kGemmNR

/// Elementwise op applied to each output tile after the last k-panel.
enum class EpilogueOp { kIdentity, kRelu };

/// Fused tail of the product: C = op([C +] A'B' + bias), applied per tile
/// while it is cache-hot.
struct Epilogue {
  /// Optional length-n row bias added to every row of C (not owned).
  const float* bias = nullptr;
  EpilogueOp op = EpilogueOp::kIdentity;
  /// true: C += A'B' (C's prior contents are kept); false: C = A'B'.
  bool accumulate = false;
};

/// C(m,n) = epilogue([C +] A' * B') over raw row-major buffers, where
/// A' = trans_a ? A^T : A and B' = trans_b ? B^T : B. A is stored as
/// (trans_a ? k×m : m×k), B as (trans_b ? n×k : k×n), both contiguous
/// row-major; C is m×n. `ep.bias`, when set, must have n elements.
void gemm_raw(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
              std::size_t k, const float* a, const float* b, float* c,
              const Epilogue& ep = {});

/// Tensor-level wrapper; operands must be rank-2 and `c` preshaped (m,n).
void gemm(bool trans_a, bool trans_b, const Tensor& a, const Tensor& b,
          Tensor& c, const Epilogue& ep = {});

/// Allocating convenience overload.
Tensor gemm(bool trans_a, bool trans_b, const Tensor& a, const Tensor& b,
            const Epilogue& ep = {});

/// Reference kernel: the seed's naive loop nests (i-k-j, k-i-j, and the
/// dot-product NT form), preserved verbatim minus the data-dependent
/// zero-skip branches. Exists only as the golden baseline for
/// tests/test_gemm.cpp and the bench_micro_kernels speedup comparison —
/// never call it from layer code.
Tensor gemm_naive(bool trans_a, bool trans_b, const Tensor& a,
                  const Tensor& b);

}  // namespace candle
