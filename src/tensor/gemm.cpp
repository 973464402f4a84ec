#include "tensor/gemm.h"

#include <algorithm>
#include <vector>

#include "common/aligned.h"
#include "common/error.h"
#include "common/parallel.h"
#include "tensor/pack.h"

namespace candle {
namespace {

// An NR-wide packed B panel spans kGemmNR * kc floats, so with NR*4 bytes
// an exact multiple of the cache line every panel a worker consumes starts
// on its own line (no false sharing between adjacent tile columns).
static_assert(kGemmNR * sizeof(float) % kCacheLineBytes == 0,
              "packed B panels must start cache-line aligned");

// MR×NR register-tile microkernel over packed panels. `a` holds kc steps
// of MR values (panel-major), `b` holds kc steps of NR values; `acc` is
// the MR×NR accumulator tile. GCC's loop vectorizer gives up on the
// broadcast-multiply-add rank-1 update ("complicated access pattern"), so
// the kernel is written explicitly with vector extensions; the AVX2+FMA
// variant is picked at runtime so default builds stay portable x86-64.
using MicroKernelFn = void (*)(std::size_t, const float* CANDLE_RESTRICT,
                               const float* CANDLE_RESTRICT,
                               float* CANDLE_RESTRICT);

#if defined(__GNUC__) || defined(__clang__)

// aligned(4): the packed panels are only guaranteed element-aligned, so
// loads/stores must not assume vector alignment (unaligned moves are free
// on every AVX2 part anyway).
typedef float v4f
    __attribute__((vector_size(16), aligned(4), may_alias));
typedef float v8f
    __attribute__((vector_size(32), aligned(4), may_alias));

// Generic 128-bit variant: NR=16 as four 4-wide columns, MR×2 vector
// accumulators per half so the register file is not overcommitted; the B
// panel is read twice from L1.
void micro_kernel_v128(std::size_t kc, const float* CANDLE_RESTRICT a,
                       const float* CANDLE_RESTRICT b,
                       float* CANDLE_RESTRICT acc) {
  static_assert(kGemmNR == 16, "microkernel assumes NR == 16");
  for (std::size_t half = 0; half < 2; ++half) {
    v4f t[kGemmMR][2] = {};
    const float* bh = b + half * 8;
    for (std::size_t p = 0; p < kc; ++p) {
      const float* ap = a + p * kGemmMR;
      const v4f b0 = *reinterpret_cast<const v4f*>(bh + p * kGemmNR);
      const v4f b1 = *reinterpret_cast<const v4f*>(bh + p * kGemmNR + 4);
      for (std::size_t i = 0; i < kGemmMR; ++i) {
        const float av = ap[i];
        const v4f avv = {av, av, av, av};
        t[i][0] += avv * b0;
        t[i][1] += avv * b1;
      }
    }
    for (std::size_t i = 0; i < kGemmMR; ++i) {
      *reinterpret_cast<v4f*>(acc + i * kGemmNR + half * 8) = t[i][0];
      *reinterpret_cast<v4f*>(acc + i * kGemmNR + half * 8 + 4) = t[i][1];
    }
  }
}

#if defined(__x86_64__)

// AVX2+FMA variant: two 8-wide accumulators per row = 12 ymm registers,
// plus two B vectors and one broadcast. Compiled with a function-level
// target attribute so the rest of the TU (and the repo) stays baseline
// x86-64; only reached after __builtin_cpu_supports says it is safe.
__attribute__((target("avx2,fma"))) void micro_kernel_avx2(
    std::size_t kc, const float* CANDLE_RESTRICT a,
    const float* CANDLE_RESTRICT b, float* CANDLE_RESTRICT acc) {
  static_assert(kGemmNR == 16, "microkernel assumes NR == 16");
  v8f t[kGemmMR][2] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* ap = a + p * kGemmMR;
    const v8f b0 = *reinterpret_cast<const v8f*>(b + p * kGemmNR);
    const v8f b1 = *reinterpret_cast<const v8f*>(b + p * kGemmNR + 8);
    for (std::size_t i = 0; i < kGemmMR; ++i) {
      const float av = ap[i];
      const v8f avv = {av, av, av, av, av, av, av, av};
      t[i][0] += avv * b0;
      t[i][1] += avv * b1;
    }
  }
  for (std::size_t i = 0; i < kGemmMR; ++i) {
    *reinterpret_cast<v8f*>(acc + i * kGemmNR) = t[i][0];
    *reinterpret_cast<v8f*>(acc + i * kGemmNR + 8) = t[i][1];
  }
}

#endif  // __x86_64__

MicroKernelFn select_micro_kernel() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return micro_kernel_avx2;
#endif
  return micro_kernel_v128;
}

#else  // !(__GNUC__ || __clang__)

// Scalar fallback for compilers without vector extensions; relies on the
// optimizer for whatever SIMD it can find.
void micro_kernel_scalar(std::size_t kc, const float* CANDLE_RESTRICT a,
                         const float* CANDLE_RESTRICT b,
                         float* CANDLE_RESTRICT acc) {
  for (std::size_t p = 0; p < kc; ++p) {
    const float* ap = a + p * kGemmMR;
    const float* bp = b + p * kGemmNR;
    for (std::size_t i = 0; i < kGemmMR; ++i) {
      const float av = ap[i];
      float* row = acc + i * kGemmNR;
      for (std::size_t j = 0; j < kGemmNR; ++j) row[j] += av * bp[j];
    }
  }
}

MicroKernelFn select_micro_kernel() { return micro_kernel_scalar; }

#endif  // __GNUC__ || __clang__

// Resolved once at startup; every gemm_raw call indirects through this.
const MicroKernelFn micro_kernel = select_micro_kernel();

// Writes an mr×nr accumulator tile into C. `overwrite` is true only for the
// first k-panel of a non-accumulating product; the epilogue (bias/op) fires
// only after the last k-panel, while the tile is still cache-hot.
void store_tile(float* CANDLE_RESTRICT c, std::size_t ldc, std::size_t mr,
                std::size_t nr, const float* CANDLE_RESTRICT acc,
                bool overwrite, bool last, EpilogueOp op, const float* bias) {
  for (std::size_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    const float* arow = acc + i * kGemmNR;
    for (std::size_t j = 0; j < nr; ++j) {
      float v = arow[j];
      if (!overwrite) v += crow[j];
      if (last) {
        if (bias != nullptr) v += bias[j];
        if (op == EpilogueOp::kRelu && v < 0.0f) v = 0.0f;
      }
      crow[j] = v;
    }
  }
}

}  // namespace

void gemm_raw(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
              std::size_t k, const float* a, const float* b, float* c,
              const Epilogue& ep) {
  require(m > 0 && n > 0 && k > 0, "gemm: dims must be > 0");
  // Row/column strides of the logical (non-transposed) operands; the
  // packing routines absorb transposition so the microkernel never sees it.
  const std::size_t rs_a = trans_a ? 1 : k;
  const std::size_t cs_a = trans_a ? m : 1;
  const std::size_t rs_b = trans_b ? 1 : n;
  const std::size_t cs_b = trans_b ? k : 1;

  // Packing buffers persist across calls (training loops call gemm once per
  // layer per step); thread_local keeps concurrent rank threads independent.
  // Aligned so panel starts sit on cache-line boundaries for the pool
  // workers that share them read-only.
  thread_local AlignedVector pack_buf_a;
  thread_local AlignedVector pack_buf_b;
  pack_buf_a.resize(kGemmMC * kGemmKC);
  pack_buf_b.resize(kGemmKC * kGemmNC);
  // Raw pointers for the parallel regions below: the lambdas run on pool
  // workers, whose own thread_local buffers are distinct (and empty) — they
  // must address the calling thread's packing storage.
  float* const pack_a_buf = pack_buf_a.data();
  float* const pack_b_buf = pack_buf_b.data();

  for (std::size_t jc = 0; jc < n; jc += kGemmNC) {
    const std::size_t nc = std::min(kGemmNC, n - jc);
    // NR-wide tile columns of this NC panel; both the B pack and the
    // macro-kernel are parallelized over this axis, so every worker packs
    // exactly the sub-panels it later consumes and all workers share the
    // one packed block (GotoBLAS-style shared-B parallelization). Results
    // are bit-identical to the serial schedule for any thread count: tile
    // boundaries, per-tile accumulation order, and the store are unchanged
    // — only which thread owns a tile column varies.
    const std::size_t jr_tiles = (nc + kGemmNR - 1) / kGemmNR;
    for (std::size_t pc = 0; pc < k; pc += kGemmKC) {
      const std::size_t kc = std::min(kGemmKC, k - pc);
      const bool first = pc == 0;
      const bool last = pc + kc == k;
      const float* bblock = b + pc * rs_b + jc * cs_b;
      parallel::parallel_for(0, jr_tiles, 1, [&](std::size_t t0,
                                                 std::size_t t1) {
        for (std::size_t t = t0; t < t1; ++t) {
          const std::size_t jr = t * kGemmNR;
          detail::pack_b(bblock + jr * cs_b, rs_b, cs_b, kc,
                         std::min(kGemmNR, nc - jr), kGemmNR,
                         pack_b_buf + jr * kc);
        }
      });
      for (std::size_t ic = 0; ic < m; ic += kGemmMC) {
        const std::size_t mc = std::min(kGemmMC, m - ic);
        detail::pack_a(a + ic * rs_a + pc * cs_a, rs_a, cs_a, mc, kc,
                       kGemmMR, pack_a_buf);
        parallel::parallel_for(0, jr_tiles, 1, [&](std::size_t t0,
                                                   std::size_t t1) {
          for (std::size_t t = t0; t < t1; ++t) {
            const std::size_t jr = t * kGemmNR;
            const std::size_t nr = std::min(kGemmNR, nc - jr);
            const float* bpanel = pack_b_buf + jr * kc;
            const float* bias =
                ep.bias != nullptr ? ep.bias + jc + jr : nullptr;
            for (std::size_t ir = 0; ir < mc; ir += kGemmMR) {
              const std::size_t mr = std::min(kGemmMR, mc - ir);
              alignas(kCacheLineBytes) float acc[kGemmMR * kGemmNR]{};
              micro_kernel(kc, pack_a_buf + ir * kc, bpanel, acc);
              store_tile(c + (ic + ir) * n + jc + jr, n, mr, nr, acc,
                         first && !ep.accumulate, last, ep.op, bias);
            }
          }
        });
      }
    }
  }
}

namespace {

struct GemmDims {
  std::size_t m, n, k;
};

GemmDims check_gemm_operands(bool trans_a, bool trans_b, const Tensor& a,
                             const Tensor& b, const char* op) {
  if (a.rank() != 2 || b.rank() != 2)
    throw InvalidArgument(std::string(op) + ": operands must be rank-2, got " +
                          shape_to_string(a.shape()) + " x " +
                          shape_to_string(b.shape()));
  const std::size_t m = trans_a ? a.dim(1) : a.dim(0);
  const std::size_t ka = trans_a ? a.dim(0) : a.dim(1);
  const std::size_t kb = trans_b ? b.dim(1) : b.dim(0);
  const std::size_t n = trans_b ? b.dim(0) : b.dim(1);
  if (ka != kb)
    throw InvalidArgument(std::string(op) + ": inner dims differ: " +
                          shape_to_string(a.shape()) + (trans_a ? "^T" : "") +
                          " x " + shape_to_string(b.shape()) +
                          (trans_b ? "^T" : ""));
  return {m, n, ka};
}

}  // namespace

void gemm(bool trans_a, bool trans_b, const Tensor& a, const Tensor& b,
          Tensor& c, const Epilogue& ep) {
  const GemmDims d = check_gemm_operands(trans_a, trans_b, a, b, "gemm");
  if (c.rank() != 2 || c.dim(0) != d.m || c.dim(1) != d.n)
    throw InvalidArgument("gemm: output must be preshaped (" +
                          std::to_string(d.m) + ", " + std::to_string(d.n) +
                          "), got " + shape_to_string(c.shape()));
  gemm_raw(trans_a, trans_b, d.m, d.n, d.k, a.data(), b.data(), c.data(),
           ep);
}

Tensor gemm(bool trans_a, bool trans_b, const Tensor& a, const Tensor& b,
            const Epilogue& ep) {
  const GemmDims d = check_gemm_operands(trans_a, trans_b, a, b, "gemm");
  Tensor c({d.m, d.n});
  gemm_raw(trans_a, trans_b, d.m, d.n, d.k, a.data(), b.data(), c.data(),
           ep);
  return c;
}

Tensor gemm_naive(bool trans_a, bool trans_b, const Tensor& a,
                  const Tensor& b) {
  const GemmDims d =
      check_gemm_operands(trans_a, trans_b, a, b, "gemm_naive");
  const std::size_t m = d.m, n = d.n, k = d.k;
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  if (!trans_a && !trans_b) {
    // Seed matmul: i-k-j, unit stride on B and C rows.
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float aik = pa[i * k + kk];
        const float* brow = pb + kk * n;
        float* crow = pc + i * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
  } else if (trans_a && !trans_b) {
    // Seed matmul_tn: k-i-j over A (k,m) and B (k,n).
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* arow = pa + kk * m;
      const float* brow = pb + kk * n;
      for (std::size_t i = 0; i < m; ++i) {
        const float aik = arow[i];
        float* crow = pc + i * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
  } else if (!trans_a && trans_b) {
    // Seed matmul_nt: per-element dot product with double accumulator.
    for (std::size_t i = 0; i < m; ++i) {
      const float* arow = pa + i * k;
      for (std::size_t j = 0; j < n; ++j) {
        const float* brow = pb + j * k;
        double acc = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk)
          acc += static_cast<double>(arow[kk]) * brow[kk];
        pc[i * n + j] = static_cast<float>(acc);
      }
    }
  } else {
    // TT had no seed variant; strided dot product for completeness.
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double acc = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk)
          acc += static_cast<double>(pa[kk * m + i]) * pb[j * k + kk];
        pc[i * n + j] = static_cast<float>(acc);
      }
    }
  }
  return c;
}

}  // namespace candle
