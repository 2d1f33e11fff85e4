// AVX2/FMA instantiation of the kernel templates plus the hand-written
// GEMM micro-kernel, int8 and maxpool kernels. This TU — and only this TU —
// is compiled with -mavx2 -mfma (src/simd/CMakeLists.txt); nothing here may
// be called before dispatch has confirmed the CPU capability.
#include "simd/kernels.hpp"

#include <cfloat>
#include <immintrin.h>

#include "simd/kernels_impl.hpp"
#include "simd/vec_avx2.hpp"

namespace dronet::simd {
namespace {

/// R x 16 C tile (R = 1..4) with FMA accumulators: 2R ymm accumulators
/// (R rows x 2 halves), one B-row load pair amortized over R broadcast A
/// values — the vector mirror of tensor/gemm.cpp's micro_full_direct/_packed.
/// Every row runs the same FMA chain and epilogue whatever R is, so a row's
/// result does not depend on how many rows its tile holds.
///
/// Each instantiation is aligned to 64 bytes and kept out of line: the speed
/// of the k loop depends on where it falls in the 64-byte instruction fetch
/// windows. Left to the linker, code added anywhere before this file moved
/// the 4-row loop by 16 bytes and cost the fp32 DroNet@224 forward ~12%.
/// The alignment pins only these instantiations; the compiler emits them
/// apart from the non-template functions below, which stay where the
/// linker puts them.
template <int R>
__attribute__((noinline, aligned(64)))
void gemm_tile_fma(const float* ap, const float* b, std::int64_t b_stride, int k,
                   float alpha, float beta, float* c, std::int64_t ldc) {
    __m256 acc[R][2];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) acc[r][0] = acc[r][1] = _mm256_setzero_ps();
    for (int kk = 0; kk < k; ++kk) {
        const float* brow = b + static_cast<std::int64_t>(kk) * b_stride;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        __m256 a[R];
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r) a[r] = _mm256_broadcast_ss(ap + r);
        ap += 4;
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            acc[r][0] = _mm256_fmadd_ps(a[r], b0, acc[r][0]);
            acc[r][1] = _mm256_fmadd_ps(a[r], b1, acc[r][1]);
        }
    }
    const __m256 va = _mm256_set1_ps(alpha);
    const __m256 vb = _mm256_set1_ps(beta);
    // Unrolled like the loops above: a variable index into acc would keep
    // it in memory, and the k loop would store every accumulator.
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
        float* crow = c + static_cast<std::int64_t>(r) * ldc;
#pragma GCC unroll 2
        for (int h = 0; h < 2; ++h) {
            float* cp = crow + 8 * h;
            // alpha*acc + beta*c, beta multiplying whatever C holds — the
            // same expression the scalar write_tile evaluates.
            const __m256 cv = _mm256_loadu_ps(cp);
            _mm256_storeu_ps(
                cp, _mm256_add_ps(_mm256_mul_ps(va, acc[r][h]),
                                  _mm256_mul_ps(vb, cv)));
        }
    }
}

void gemm_micro_rx16_fma(const float* ap, const float* b, std::int64_t b_stride,
                         int k, float alpha, float beta, float* c,
                         std::int64_t ldc, int rows) {
    switch (rows) {
        case 4: return gemm_tile_fma<4>(ap, b, b_stride, k, alpha, beta, c, ldc);
        case 3: return gemm_tile_fma<3>(ap, b, b_stride, k, alpha, beta, c, ldc);
        case 2: return gemm_tile_fma<2>(ap, b, b_stride, k, alpha, beta, c, ldc);
        default: return gemm_tile_fma<1>(ap, b, b_stride, k, alpha, beta, c, ldc);
    }
}

/// One int8 GEMM output row with paired-k madd accumulation. Two consecutive
/// B rows are byte-interleaved (unpacklo/hi), widened to int16, and folded by
/// _mm256_madd_epi16 against a broadcast (a[p], a[p+1]) int16 pair — so lane
/// i accumulates b[p][j+i]*a[p] + b[p+1][j+i]*a[p+1]. Pure integer math:
/// bitwise identical to the scalar reference. Odd k pairs the last row with
/// zeros; a scalar loop covers the n%16 column tail. Overflow-safe for
/// k < 2^16 (each madd pair <= 2*127*127, summed in int32 over k/2 steps).
void gemm_i8_row_avx2(const std::int8_t* a_row, const std::int8_t* b,
                      std::int64_t ldb, int k, int n, std::int32_t* c_row) {
    const __m128i zero128 = _mm_setzero_si128();
    int j = 0;
    for (; j + 16 <= n; j += 16) {
        __m256i acc_lo = _mm256_setzero_si256();
        __m256i acc_hi = _mm256_setzero_si256();
        for (int p = 0; p < k; p += 2) {
            const std::int32_t a0 = a_row[p];
            const std::int32_t a1 = (p + 1 < k) ? a_row[p + 1] : 0;
            if (a0 == 0 && a1 == 0) continue;
            const std::int8_t* bp = b + static_cast<std::int64_t>(p) * ldb + j;
            const __m128i b0 =
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(bp));
            const __m128i b1 =
                (p + 1 < k)
                    ? _mm_loadu_si128(
                          reinterpret_cast<const __m128i*>(bp + ldb))
                    : zero128;
            const __m256i apair =
                _mm256_set1_epi32((a1 << 16) | (a0 & 0xFFFF));
            const __m256i wlo =
                _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(b0, b1));
            const __m256i whi =
                _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(b0, b1));
            acc_lo = _mm256_add_epi32(acc_lo, _mm256_madd_epi16(wlo, apair));
            acc_hi = _mm256_add_epi32(acc_hi, _mm256_madd_epi16(whi, apair));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(c_row + j), acc_lo);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(c_row + j + 8), acc_hi);
    }
    for (; j < n; ++j) {
        std::int32_t sum = 0;
        for (int p = 0; p < k; ++p) {
            sum += static_cast<std::int32_t>(a_row[p]) *
                   static_cast<std::int32_t>(
                       b[static_cast<std::int64_t>(p) * ldb + j]);
        }
        c_row[j] = sum;
    }
}

/// Eight lanes of quantize_row_scalar's expression: the same divide, trunc,
/// +-1 bump by copysign(1, q) where |q - t| >= 0.5, and clamp. NaN lanes are
/// masked to 0 last (max/min would otherwise make them -127). Clamped lanes
/// are integral, so the truncating conversion and saturating packs are exact.
/// The n % 8 tail runs the scalar kernel itself.
void quantize_row_avx2(const float* x, std::size_t n, float scale,
                       std::int8_t* out) {
    const __m256 vs = _mm256_set1_ps(scale);
    const __m256 half = _mm256_set1_ps(0.5f);
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 lo = _mm256_set1_ps(-127.0f);
    const __m256 hi = _mm256_set1_ps(127.0f);
    const __m256 sign = _mm256_set1_ps(-0.0f);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 q = _mm256_div_ps(_mm256_loadu_ps(x + i), vs);
        const __m256 t = _mm256_round_ps(q, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
        const __m256 frac = _mm256_andnot_ps(sign, _mm256_sub_ps(q, t));
        const __m256 bump = _mm256_and_ps(_mm256_cmp_ps(frac, half, _CMP_GE_OQ),
                                          _mm256_or_ps(one, _mm256_and_ps(sign, q)));
        const __m256 clamped =
            _mm256_min_ps(_mm256_max_ps(_mm256_add_ps(t, bump), lo), hi);
        const __m256i v = _mm256_cvttps_epi32(
            _mm256_and_ps(clamped, _mm256_cmp_ps(q, q, _CMP_ORD_Q)));
        const __m128i w = _mm_packs_epi32(_mm256_castsi256_si128(v),
                                          _mm256_extracti128_si256(v, 1));
        _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i), _mm_packs_epi16(w, w));
    }
    if (i < n) scalar_kernel_table()->quantize_row(x + i, n - i, scale, out + i);
}

/// Exact int32 -> float conversion (round-to-nearest, as cvtsi2ss), then a
/// separate multiply and add — the scalar kernel's two roundings.
void requant_row_avx2(const std::int32_t* acc, std::size_t n, float scale,
                      float bias, float* out) {
    const __m256 vs = _mm256_set1_ps(scale);
    const __m256 vb = _mm256_set1_ps(bias);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 a = _mm256_cvtepi32_ps(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i)));
        _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_mul_ps(a, vs), vb));
    }
    if (i < n) scalar_kernel_table()->requant_row(acc + i, n - i, scale, bias, out + i);
}

/// Eight outputs per step, each a running _mm256_max_ps(v, best) over the
/// taps in scan order. MAXPS returns its second operand unless the first is
/// greater, so this is the scalar kernel's v > best ? v : best for NaN and
/// signed zeros too. Only stride 2 with an even tap count is vectorised —
/// DroNet's 2x2/2 pools. Each tap pair (kx, kx+1) loads the 16 floats under
/// it and splits them into even and odd lanes; the split leaves the lanes in
/// the 64-bit pair order 0 2 1 3 for every tap, so one permute before the
/// store restores it. The loads end at output o+7's last tap. Other
/// geometries, and the outputs left over, run the scalar kernel.
void max_window_row_avx2(const float* base, std::int64_t row_stride, int rows,
                         int cols, int stride, float* out, std::size_t n) {
    std::size_t o = 0;
    if (stride == 2 && cols % 2 == 0) {
        const __m256 lowest = _mm256_set1_ps(-FLT_MAX);
        for (; o + 8 <= n; o += 8) {
            __m256 best = lowest;
            for (int ky = 0; ky < rows; ++ky) {
                const float* taps = base + ky * row_stride + 2 * o;
                for (int kx = 0; kx < cols; kx += 2) {
                    const __m256 lo = _mm256_loadu_ps(taps + kx);
                    const __m256 hi = _mm256_loadu_ps(taps + kx + 8);
                    best = _mm256_max_ps(
                        _mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0)), best);
                    best = _mm256_max_ps(
                        _mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 1, 3, 1)), best);
                }
            }
            _mm256_storeu_ps(out + o, _mm256_castpd_ps(_mm256_permute4x64_pd(
                                          _mm256_castps_pd(best), _MM_SHUFFLE(3, 1, 2, 0))));
        }
    }
    if (o < n) {
        scalar_kernel_table()->max_window_row(
            base + static_cast<std::int64_t>(o) * stride, row_stride, rows, cols,
            stride, out + o, n - o);
    }
}

constexpr KernelTable kAvx2Table = {
    impl::copy_row<VecAvx2>,
    impl::add_bias_row<VecAvx2>,
    impl::scale_row<VecAvx2>,
    impl::normalize_row<VecAvx2>,
    impl::leaky_relu<VecAvx2>,
    impl::relu<VecAvx2>,
    impl::lerp_rows<VecAvx2>,
    gemm_micro_rx16_fma,
    gemm_i8_row_avx2,
    quantize_row_avx2,
    requant_row_avx2,
    max_window_row_avx2,
};

}  // namespace

const KernelTable* avx2_kernel_table() noexcept { return &kAvx2Table; }

}  // namespace dronet::simd
