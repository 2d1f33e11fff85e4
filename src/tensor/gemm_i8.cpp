#include "tensor/gemm_i8.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>

#include "analysis/numerics.hpp"
#include "simd/kernels.hpp"
#include "tensor/gemm.hpp"
#include "tensor/thread_pool.hpp"

namespace dronet {
namespace {

void gemm_i8_rows(int row_begin, int row_end, int n, int k, const std::int8_t* a,
                  int lda, const std::int8_t* b, int ldb, std::int32_t* c,
                  int ldc) {
    const auto row_kernel = simd::kernels().gemm_i8_row;
    for (int i = row_begin; i < row_end; ++i) {
        row_kernel(a + static_cast<std::int64_t>(i) * lda, b, ldb, k, n,
                   c + static_cast<std::int64_t>(i) * ldc);
    }
}

}  // namespace

void gemm_i8(int m, int n, int k, const std::int8_t* a, int lda,
             const std::int8_t* b, int ldb, std::int32_t* c, int ldc) {
    const int threads = gemm_threads();
    const std::int64_t macs = static_cast<std::int64_t>(m) * n * k;
    if (threads > 1 && macs >= 16 * 1024) {
        ThreadPool::instance().parallel_for(
            0, m, threads, 1, [&](int lo, int hi) {
                gemm_i8_rows(lo, hi, n, k, a, lda, b, ldb, c, ldc);
            });
        return;
    }
    gemm_i8_rows(0, m, n, k, a, lda, b, ldb, c, ldc);
}

std::int8_t quantize_value(float x, float scale) noexcept {
    const float q = std::round(x / scale);
    // Converting a NaN to an integer is undefined; define it as 0.
    if (std::isnan(q)) return 0;
    return static_cast<std::int8_t>(std::clamp(q, -127.0f, 127.0f));
}

float quantization_scale(const float* x, std::int64_t n) {
    const bool guard = numerics_checks_enabled();
    float mx = 0.0f;
    for (std::int64_t i = 0; i < n; ++i) {
        const float v = x[i];
        if (!std::isfinite(v)) {
            if (guard) throw NumericsError("quantization_scale input", i, v);
            // NaN carries no magnitude information — skip it; Inf saturates
            // the range, so the scale clamps to the largest finite max.
            if (std::isnan(v)) continue;
            mx = FLT_MAX;
            continue;
        }
        mx = std::max(mx, std::fabs(v));
    }
    return mx > 0.0f ? mx / 127.0f : 1.0f;
}

void quantize_buffer(const float* x, std::int64_t n, float scale, std::int8_t* out) noexcept {
    if (n <= 0) return;
    simd::kernels().quantize_row(x, static_cast<std::size_t>(n), scale, out);
}

}  // namespace dronet
