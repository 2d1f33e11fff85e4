// Scalar instantiation of the kernel templates — the always-available,
// bit-exact dispatch level. gemm_micro_rx16 stays null: tensor/gemm.cpp keeps
// its reference micro-kernel loop on this level.
#include "simd/kernels.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>

#include "simd/kernels_impl.hpp"
#include "simd/vec_base.hpp"

namespace dronet::simd {
namespace {

void gemm_i8_row_scalar(const std::int8_t* a_row, const std::int8_t* b,
                        std::int64_t ldb, int k, int n, std::int32_t* c_row) {
    std::fill(c_row, c_row + n, 0);
    for (int p = 0; p < k; ++p) {
        const std::int32_t a_p = a_row[p];
        if (a_p == 0) continue;
        const std::int8_t* brow = b + static_cast<std::int64_t>(p) * ldb;
        for (int j = 0; j < n; ++j) {
            c_row[j] += a_p * static_cast<std::int32_t>(brow[j]);
        }
    }
}

void quantize_row_scalar(const float* x, std::size_t n, float scale,
                         std::int8_t* out) {
    for (std::size_t i = 0; i < n; ++i) {
        const float q = x[i] / scale;
        if (std::isnan(q)) {  // no integer value: defined as 0 at every level
            out[i] = 0;
            continue;
        }
        // Round half away from zero. q - trunc(q) is exact, and an Inf q
        // gives NaN there, which fails the comparison and clamps below.
        float t = std::trunc(q);
        if (std::fabs(q - t) >= 0.5f) t += std::copysign(1.0f, q);
        out[i] = static_cast<std::int8_t>(std::clamp(t, -127.0f, 127.0f));
    }
}

void requant_row_scalar(const std::int32_t* acc, std::size_t n, float scale,
                        float bias, float* out) {
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<float>(acc[i]) * scale + bias;
    }
}

void max_window_row_scalar(const float* base, std::int64_t row_stride, int rows,
                           int cols, int stride, float* out, std::size_t n) {
    for (std::size_t o = 0; o < n; ++o) {
        const float* window = base + static_cast<std::int64_t>(o) * stride;
        float best = -FLT_MAX;
        for (int ky = 0; ky < rows; ++ky) {
            const float* taps = window + ky * row_stride;
            for (int kx = 0; kx < cols; ++kx) best = taps[kx] > best ? taps[kx] : best;
        }
        out[o] = best;
    }
}

constexpr KernelTable kScalarTable = {
    impl::copy_row<VecScalar>,
    impl::add_bias_row<VecScalar>,
    impl::scale_row<VecScalar>,
    impl::normalize_row<VecScalar>,
    impl::leaky_relu<VecScalar>,
    impl::relu<VecScalar>,
    impl::lerp_rows<VecScalar>,
    nullptr,  // gemm_micro_rx16: scalar level keeps the reference loop
    gemm_i8_row_scalar,
    quantize_row_scalar,
    requant_row_scalar,
    max_window_row_scalar,
};

}  // namespace

const KernelTable* scalar_kernel_table() noexcept { return &kScalarTable; }

}  // namespace dronet::simd
