// Vectorized compute backend (src/simd): dispatch level control, the
// bit-exactness contract of the row kernels across levels (including the
// int8 quantize and requantize kernels and the maxpool row kernel), and the
// tolerance gate for the AVX2 FMA GEMM micro-kernel (which fuses each
// multiply-add into one rounding and therefore may differ from the scalar
// reference by accumulated ULPs, never more).
#include <gtest/gtest.h>

#include <array>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_i8.hpp"
#include "tensor/rng.hpp"

namespace dronet {
namespace {

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<float> random_vec(Rng& rng, std::size_t n, float lo = -2.0f,
                              float hi = 2.0f) {
    std::vector<float> v(n);
    rng.fill_uniform(v, lo, hi);
    return v;
}

TEST(SimdDispatch, ScalarAlwaysInstallable) {
    const simd::ScopedSimdLevel scalar(simd::SimdLevel::kScalar);
    EXPECT_EQ(simd::active_level(), simd::SimdLevel::kScalar);
    EXPECT_EQ(simd::kernels().gemm_micro_rx16, nullptr);
    EXPECT_EQ(std::string(simd::to_string(simd::SimdLevel::kScalar)), "scalar");
}

TEST(SimdDispatch, Avx2RequestHonoredOrDowngraded) {
    const simd::SimdLevel prev = simd::active_level();
    const simd::SimdLevel got = simd::set_level(simd::SimdLevel::kAvx2);
    if (simd::cpu_supports_avx2()) {
        EXPECT_EQ(got, simd::SimdLevel::kAvx2);
        EXPECT_NE(simd::kernels().gemm_micro_rx16, nullptr);
    } else {
        EXPECT_EQ(got, simd::SimdLevel::kScalar);
        EXPECT_EQ(simd::kernels().gemm_micro_rx16, nullptr);
    }
    simd::set_level(prev);
}

TEST(SimdDispatch, ScopedLevelRestores) {
    const simd::SimdLevel before = simd::active_level();
    {
        const simd::ScopedSimdLevel scalar(simd::SimdLevel::kScalar);
        EXPECT_EQ(simd::active_level(), simd::SimdLevel::kScalar);
    }
    EXPECT_EQ(simd::active_level(), before);
}

// The row kernels (copies, epilogues, activations, lerp) perform identical
// per-element IEEE operations at both levels: their results must be bitwise
// equal, which is what keeps every pre-existing bit-exact test level-blind.
TEST(SimdKernels, RowKernelsBitwiseEqualAcrossLevels) {
    if (!simd::cpu_supports_avx2()) {
        GTEST_SKIP() << "CPU/build lacks AVX2; only one level to test";
    }
    const simd::KernelTable* scalar = simd::scalar_kernel_table();
    const simd::KernelTable* avx2 = simd::avx2_kernel_table();
    ASSERT_NE(avx2, nullptr);
    Rng rng(101);
    // Sizes straddling the 8-lane width: tails, exact multiples, tiny runs.
    for (const std::size_t n : {1u, 7u, 8u, 9u, 16u, 31u, 257u, 1024u}) {
        const std::vector<float> base = random_vec(rng, n, -3.0f, 3.0f);

        std::vector<float> a = base, b = base;
        scalar->add_bias_row(a.data(), n, 0.7f);
        avx2->add_bias_row(b.data(), n, 0.7f);
        EXPECT_TRUE(bitwise_equal(a, b)) << "add_bias_row n=" << n;

        a = base; b = base;
        scalar->scale_row(a.data(), n, -1.3f);
        avx2->scale_row(b.data(), n, -1.3f);
        EXPECT_TRUE(bitwise_equal(a, b)) << "scale_row n=" << n;

        a = base; b = base;
        scalar->normalize_row(a.data(), n, 0.25f, 1.7f);
        avx2->normalize_row(b.data(), n, 0.25f, 1.7f);
        EXPECT_TRUE(bitwise_equal(a, b)) << "normalize_row n=" << n;

        a = base; b = base;
        scalar->leaky_relu(a.data(), n);
        avx2->leaky_relu(b.data(), n);
        EXPECT_TRUE(bitwise_equal(a, b)) << "leaky_relu n=" << n;

        a = base; b = base;
        scalar->relu(a.data(), n);
        avx2->relu(b.data(), n);
        EXPECT_TRUE(bitwise_equal(a, b)) << "relu n=" << n;

        const std::vector<float> other = random_vec(rng, n, -3.0f, 3.0f);
        a.assign(n, 0.0f); b.assign(n, 0.0f);
        scalar->lerp_rows(base.data(), other.data(), 0.3125f, a.data(), n);
        avx2->lerp_rows(base.data(), other.data(), 0.3125f, b.data(), n);
        EXPECT_TRUE(bitwise_equal(a, b)) << "lerp_rows n=" << n;

        a.assign(n, -1.0f); b.assign(n, -1.0f);
        scalar->copy_row(a.data(), base.data(), n);
        avx2->copy_row(b.data(), base.data(), n);
        EXPECT_TRUE(bitwise_equal(a, b)) << "copy_row n=" << n;
    }
}

/// The kernel tables this build and CPU can run: scalar, plus AVX2 when
/// available.
std::vector<const simd::KernelTable*> available_tables() {
    std::vector<const simd::KernelTable*> tables = {simd::scalar_kernel_table()};
    if (simd::cpu_supports_avx2()) tables.push_back(simd::avx2_kernel_table());
    return tables;
}

/// Inputs where a vector quantizer could drift from the scalar reference:
/// +-(k + 0.5) * scale ties (exact when scale is a power of two), values past
/// +-127 * scale, signed zeros, subnormals, infinities, NaNs and
/// |x / scale| >= 2^23, then seeded noise.
std::vector<float> quantizer_edge_inputs(float scale) {
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float denorm = std::numeric_limits<float>::denorm_min();
    std::vector<float> x = {0.0f, -0.0f, denorm, -denorm, FLT_MIN / 3.0f,
                            -FLT_MIN / 3.0f, inf, -inf, nan, -nan,
                            8388608.0f * scale, -8388608.0f * scale,
                            8388609.0f * scale, -16777216.0f * scale,
                            FLT_MAX, -FLT_MAX, 0.49999997f * scale,
                            -0.49999997f * scale};
    for (int k = -140; k <= 140; ++k) {
        x.push_back((static_cast<float>(k) + 0.5f) * scale);
        x.push_back(static_cast<float>(k) * scale);
    }
    Rng rng(404);
    const std::vector<float> noise = random_vec(rng, 256, -200.0f * scale, 200.0f * scale);
    x.insert(x.end(), noise.begin(), noise.end());
    return x;
}

// quantize_row is the int8 path's one quantizer (weights and activations):
// every level must reproduce quantize_value — round half away from zero,
// clamp to +-127, NaN -> 0 — byte for byte, including vector tails, and
// must never write past n.
TEST(SimdKernels, QuantizeRowBitwiseEqualAcrossLevels) {
    constexpr std::int8_t kSentinel = 0x55;
    for (const float scale : {0.0625f, 0.037f}) {
        const std::vector<float> x = quantizer_edge_inputs(scale);
        std::vector<std::int8_t> want(x.size());
        for (std::size_t i = 0; i < x.size(); ++i) want[i] = quantize_value(x[i], scale);
        ASSERT_EQ(want[0], 0);
        ASSERT_EQ(want[6], 127);   // +Inf saturates
        ASSERT_EQ(want[7], -127);  // -Inf saturates
        ASSERT_EQ(want[8], 0);     // NaN is defined as 0
        for (const simd::KernelTable* table : available_tables()) {
            std::vector<std::int8_t> got(x.size(), kSentinel);
            table->quantize_row(x.data(), x.size(), scale, got.data());
            EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size()))
                << "scale " << scale << " whole buffer";
            // Lengths 0-17 at several offsets: every tail length, at and
            // around the 8-lane width.
            for (const std::size_t offset : {0u, 3u, 9u, 300u}) {
                for (std::size_t n = 0; n <= 17; ++n) {
                    std::vector<std::int8_t> part(n + 8, kSentinel);
                    table->quantize_row(x.data() + offset, n, scale, part.data());
                    EXPECT_EQ(0, std::memcmp(part.data(), want.data() + offset, n))
                        << "scale " << scale << " offset " << offset << " n " << n;
                    for (std::size_t i = n; i < part.size(); ++i) {
                        ASSERT_EQ(part[i], kSentinel) << "wrote past n=" << n;
                    }
                }
            }
        }
    }
}

// requant_row is the int8 conv epilogue: int32 -> float, then a multiply and
// an add rounded separately. A fused or differently-rounded conversion shows
// up on large and negative accumulators.
TEST(SimdKernels, RequantRowBitwiseEqualAcrossLevels) {
    if (!simd::cpu_supports_avx2()) {
        GTEST_SKIP() << "CPU/build lacks AVX2; only one level to test";
    }
    const simd::KernelTable* scalar = simd::scalar_kernel_table();
    const simd::KernelTable* avx2 = simd::avx2_kernel_table();
    constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
    constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
    std::vector<std::int32_t> acc = {kMin, kMax,      kMin + 1,  kMax - 1, -1,
                                     0,    1,         -16777217, 16777217, -16777215,
                                     -3,   -1048577, 2147483520, -2147483520};
    std::mt19937 gen(77);
    std::uniform_int_distribution<std::int32_t> any(kMin, kMax);
    std::uniform_int_distribution<std::int32_t> conv_range(-4'000'000, 4'000'000);
    for (int i = 0; i < 512; ++i) acc.push_back(i % 2 == 0 ? any(gen) : conv_range(gen));
    for (const auto [scale, bias] : {std::array<float, 2>{0.0123f, -0.5f},
                                     std::array<float, 2>{1.7e-7f, 3.25f},
                                     std::array<float, 2>{-2.5f, 0.0f}}) {
        std::vector<float> a(acc.size(), -1.0f), b(acc.size(), -2.0f);
        scalar->requant_row(acc.data(), acc.size(), scale, bias, a.data());
        avx2->requant_row(acc.data(), acc.size(), scale, bias, b.data());
        EXPECT_TRUE(bitwise_equal(a, b)) << "scale " << scale << " bias " << bias;
        for (std::size_t n = 0; n <= 17; ++n) {
            std::vector<float> pa(n + 8, -1.0f), pb(n + 8, -1.0f);
            scalar->requant_row(acc.data() + 1, n, scale, bias, pa.data());
            avx2->requant_row(acc.data() + 1, n, scale, bias, pb.data());
            EXPECT_TRUE(bitwise_equal(pa, pb)) << "n " << n;
            for (std::size_t i = n; i < pb.size(); ++i) ASSERT_EQ(pb[i], -1.0f) << "n " << n;
        }
    }
    const std::int32_t two = 2;
    float out = 0.0f;
    avx2->requant_row(&two, 1, 0.5f, 1.0f, &out);
    EXPECT_EQ(out, 2.0f);  // 2 * 0.5 + 1
}

// max_window_row is the maxpool forward: every level must apply
// v > best ? v : best over the taps in scan order from -FLT_MAX, so NaN taps
// never win and the first of equal taps (+0 and -0 included) does.
// Each case's input ends exactly at the last window's last tap, so a read
// past the windows leaves the buffer (ASan builds report it), and the output
// carries sentinels past n.
TEST(SimdKernels, MaxWindowRowBitwiseEqualAcrossLevels) {
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const std::vector<float> specials = {nan, -nan, 0.0f, -0.0f, inf, -inf,
                                         -FLT_MAX, FLT_MAX, 1.0f, -1.0f};
    constexpr float kSentinel = 12345.0f;
    Rng rng(808);
    for (const int stride : {1, 2}) {
        for (const int rows : {0, 1, 2, 3}) {
            for (const int cols : {0, 1, 2, 3, 4}) {
                for (std::size_t n = 0; n <= 17; ++n) {
                    const std::int64_t width =
                        n == 0 ? 0 : static_cast<std::int64_t>(n - 1) * stride + cols;
                    const std::int64_t row_stride = width + 3;
                    const std::size_t size =
                        rows == 0 ? 0
                                  : static_cast<std::size_t>((rows - 1) * row_stride + width);
                    std::vector<float> in = random_vec(rng, size, -1.0f, 1.0f);
                    // Seeded special values at seeded positions, half the
                    // taps in a small value set so ties are common.
                    for (std::size_t i = 0; i < in.size(); ++i) {
                        const float u = rng.uniform(0.0f, 1.0f);
                        if (u < 0.3f) {
                            in[i] = specials[i % specials.size()];
                        } else if (u < 0.5f) {
                            in[i] = (i % 3 == 0) ? -0.0f : 0.0f;
                        }
                    }
                    std::vector<float> want(n);
                    for (std::size_t o = 0; o < n; ++o) {
                        float best = -FLT_MAX;
                        for (int ky = 0; ky < rows; ++ky) {
                            for (int kx = 0; kx < cols; ++kx) {
                                const float v = in[static_cast<std::size_t>(
                                    ky * row_stride + static_cast<std::int64_t>(o) * stride + kx)];
                                if (v > best) best = v;
                            }
                        }
                        want[o] = best;
                    }
                    for (const simd::KernelTable* table : available_tables()) {
                        std::vector<float> got(n + 8, kSentinel);
                        table->max_window_row(in.data(), row_stride, rows, cols, stride,
                                              got.data(), n);
                        EXPECT_TRUE(n == 0 ||
                                    std::memcmp(got.data(), want.data(), n * sizeof(float)) == 0)
                            << "stride " << stride << " rows " << rows << " cols " << cols
                            << " n " << n;
                        for (std::size_t i = n; i < got.size(); ++i) {
                            ASSERT_EQ(got[i], kSentinel) << "wrote past n=" << n;
                        }
                    }
                }
            }
        }
    }
}

// Property sweep: the AVX2 FMA micro-kernel against the scalar packed kernel
// over random shapes, then the shipped checkpoint's convolutions at input
// 224 (filter_scale 0.6: 5, 10, 19, 38 and 30 filters, none a multiple of
// the 4-row tile). FMA skips one rounding per multiply-add, so error
// accumulates with k; the bound scales accordingly.
TEST(SimdGemm, Avx2WithinToleranceOfScalar) {
    if (!simd::cpu_supports_avx2()) {
        GTEST_SKIP() << "CPU/build lacks AVX2; nothing to compare";
    }
    Rng rng(2024);
    Rng shape_rng(77);
    std::vector<float> dims(3);
    struct Case {
        int m, n, k;
        bool trans_b;
        float alpha, beta;
    };
    std::vector<Case> cases;
    for (int trial = 0; trial < 24; ++trial) {
        shape_rng.fill_uniform(dims, 1.0f, 96.0f);
        cases.push_back({static_cast<int>(dims[0]), static_cast<int>(dims[1]),
                         static_cast<int>(dims[2]), (trial % 3) == 2,
                         (trial % 4 == 0) ? 0.5f : 1.0f, (trial % 5 == 0) ? 1.0f : 0.0f});
    }
    for (const auto [m, k, n] : {std::array<int, 3>{5, 27, 224 * 224},
                                 std::array<int, 3>{10, 45, 112 * 112},
                                 std::array<int, 3>{19, 90, 56 * 56},
                                 std::array<int, 3>{38, 171, 28 * 28},
                                 std::array<int, 3>{30, 38, 14 * 14}}) {
        cases.push_back({m, n, k, false, 1.0f, 0.0f});
    }
    for (std::size_t trial = 0; trial < cases.size(); ++trial) {
        const auto [m, n, k, trans_b, alpha, beta] = cases[trial];
        const auto a = random_vec(rng, static_cast<std::size_t>(m) * k, -1.0f, 1.0f);
        const auto b = random_vec(rng, static_cast<std::size_t>(k) * n, -1.0f, 1.0f);
        const auto c0 = random_vec(rng, static_cast<std::size_t>(m) * n, -1.0f, 1.0f);
        const int ldb = trans_b ? k : n;
        auto run = [&](simd::SimdLevel level) {
            const simd::ScopedSimdLevel pin(level);
            auto c = c0;
            gemm_blocked({false, trans_b, m, n, k, alpha, a.data(), k, b.data(),
                          ldb, beta, c.data(), n});
            return c;
        };
        const auto c_scalar = run(simd::SimdLevel::kScalar);
        const auto c_avx2 = run(simd::SimdLevel::kAvx2);
        const float tol = 2e-4f * (1.0f + static_cast<float>(k) / 256.0f);
        for (std::size_t i = 0; i < c_scalar.size(); ++i) {
            ASSERT_NEAR(c_scalar[i], c_avx2[i], tol)
                << "case " << trial << " (" << m << "x" << n << "x" << k
                << ") at " << i;
        }
    }
}

}  // namespace
}  // namespace dronet
