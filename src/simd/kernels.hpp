// Dispatched kernel entry points backing the hot paths (tensor/gemm,
// tensor/im2col, tensor/ops, nn/activation, nn/maxpool_layer, image/resize,
// the int8 conv path).
//
// Callers fetch the active table once per call site via kernels() — one
// atomic acquire load — and invoke plain function pointers. The scalar table
// is always available; the AVX2 table exists when the binary was built with
// AVX2 kernels (x86-64) and is installed by dispatch when the CPU qualifies.
//
// Bit-exactness contract per entry (docs/vectorization.md):
//   * copy_row / add_bias_row / scale_row / normalize_row / leaky_relu /
//     relu / lerp_rows perform identical per-element IEEE operations at both
//     levels — results are bitwise equal regardless of dispatch.
//   * gemm_micro_rx16 is null on the scalar table (the caller keeps its
//     reference loop); the AVX2 entry uses FMA and is tolerance-gated. Every
//     row count runs the same per-row instruction sequence, so a row's
//     result does not depend on how many rows share its tile.
//   * max_window_row applies v > best ? v : best over the taps in scan order
//     at both levels (MAXPS is exactly that select, NaN and signed zeros
//     included) — bitwise identical across levels (memcmp-gated in
//     test_simd and test_pool_layers).
//   * gemm_i8_row is pure integer arithmetic — results are bitwise identical
//     across levels (memcmp-gated in test_quantize).
//   * quantize_row performs the same IEEE divide, truncation, half bump and
//     clamp at both levels, with NaN defined as 0; requant_row is one
//     int->float conversion, a multiply and then an add (never fused). Both
//     are bitwise identical across levels (memcmp-gated in test_simd).
#pragma once

#include <cstddef>
#include <cstdint>

namespace dronet::simd {

struct KernelTable {
    void (*copy_row)(float* dst, const float* src, std::size_t n);
    void (*add_bias_row)(float* p, std::size_t n, float bias);
    void (*scale_row)(float* p, std::size_t n, float scale);
    void (*normalize_row)(float* p, std::size_t n, float mean, float inv_std);
    void (*leaky_relu)(float* p, std::size_t n);
    void (*relu)(float* p, std::size_t n);
    /// dst[i] = a[i]*(1-w) + b[i]*w — the bilinear vertical pass.
    void (*lerp_rows)(const float* a, const float* b, float w, float* dst,
                      std::size_t n);
    /// C tile of `rows` (1-4) rows by 16 columns:
    /// c[r][j] = alpha*sum_k(ap[k*4+r]*b[k*b_stride+j]) + beta*c[r][j] for
    /// r < rows; rows beyond `rows` are neither read nor written. A is packed
    /// with a row stride of 4 whatever `rows` is. Null on the scalar table
    /// (caller's reference loop runs).
    void (*gemm_micro_rx16)(const float* ap, const float* b,
                            std::int64_t b_stride, int k, float alpha,
                            float beta, float* c, std::int64_t ldc, int rows);
    /// One output row of the int8 GEMM with int32 accumulation (overwrites):
    /// c_row[j] = sum_p a_row[p] * b[p*ldb + j], j in [0, n). Integer math —
    /// bitwise identical across levels. Overflow-safe for k < 2^16.
    void (*gemm_i8_row)(const std::int8_t* a_row, const std::int8_t* b,
                        std::int64_t ldb, int k, int n, std::int32_t* c_row);
    /// Symmetric int8 quantization: q = x[i] / scale rounded half away from
    /// zero (trunc, then a +-1 bump when |q - trunc(q)| >= 0.5), clamped to
    /// [-127, 127]. NaN -> 0; +-Inf -> +-127.
    void (*quantize_row)(const float* x, std::size_t n, float scale,
                         std::int8_t* out);
    /// Requantize epilogue: out[i] = float(acc[i]) * scale + bias.
    void (*requant_row)(const std::int32_t* acc, std::size_t n, float scale,
                        float bias, float* out);
    /// Max pooling along one output row: out[o], o < n, is the maximum of the
    /// rows x cols block of taps base[ky*row_stride + o*stride + kx], taken
    /// in scan order (ky, then kx) as best = v > best ? v : best from
    /// -FLT_MAX. NaN taps never win, ties keep the earlier tap, and rows or
    /// cols of 0 give -FLT_MAX. Reads nothing outside columns
    /// [0, (n-1)*stride + cols) of the `rows` tap rows.
    void (*max_window_row)(const float* base, std::int64_t row_stride, int rows,
                           int cols, int stride, float* out, std::size_t n);
};

/// The table for the active dispatch level (dispatch.hpp).
[[nodiscard]] const KernelTable& kernels() noexcept;

/// Tables by capability; scalar_kernel_table() always exists,
/// avx2_kernel_table() returns null when the binary carries no AVX2 kernels.
[[nodiscard]] const KernelTable* scalar_kernel_table() noexcept;
[[nodiscard]] const KernelTable* avx2_kernel_table() noexcept;

}  // namespace dronet::simd
