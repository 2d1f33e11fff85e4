// Int8 GEMM with int32 accumulation.
//
// Backbone of the reduced-bitwidth inference path the paper lists as future
// work (§V: "performance improvements by applying finer-level optimizations
// to reduce bitwidth precisions"). Row-major, no transposition (the
// quantized conv path only needs the plain W x col product).
#pragma once

#include <cstdint>

namespace dronet {

/// C[m x n] = A[m x k] * B[k x n], int8 inputs, int32 accumulator/output.
/// ldX are row strides. Overflow-safe for k < 2^16 (worst case |a*b| <= 2^14
/// per term). Rows are sharded on the persistent ThreadPool when
/// set_gemm_threads() > 1; results are identical (integer math, each row
/// written by exactly one thread). The per-row inner loop dispatches through
/// the simd kernel table (scalar reference / AVX2 madd-paired) — bitwise
/// identical across levels.
void gemm_i8(int m, int n, int k, const std::int8_t* a, int lda,
             const std::int8_t* b, int ldb, std::int32_t* c, int ldc);

/// Symmetric quantization: q = clamp(round(x / scale), -127, 127), rounding
/// half away from zero. ±Inf saturates to ±127; NaN (which has no integer
/// value) maps to 0. The per-element reference for quantize_buffer.
[[nodiscard]] std::int8_t quantize_value(float x, float scale) noexcept;

/// Largest-magnitude-based scale for a buffer (returns a scale such that
/// max|x| maps to 127; 1.0 for an all-zero buffer). Non-finite inputs no
/// longer poison the scale: NaN elements are ignored by the max scan and Inf
/// clamps to FLT_MAX, keeping the returned scale finite — unless
/// DRONET_CHECK_NUMERICS is active, in which case a NumericsError pinpoints
/// the first non-finite element instead.
[[nodiscard]] float quantization_scale(const float* x, std::int64_t n);

/// Quantizes `n` floats into `out` with the given scale, element for element
/// equal to quantize_value (NaN -> 0 included). Dispatches to the simd
/// kernel table's quantize_row — bitwise identical across levels — so
/// weights and activations share one quantizer.
void quantize_buffer(const float* x, std::int64_t n, float scale, std::int8_t* out) noexcept;

}  // namespace dronet
