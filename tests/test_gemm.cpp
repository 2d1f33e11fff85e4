// GEMM kernels: blocked and threaded kernels must agree with the naive
// reference across transpose modes, alpha/beta values and shapes
// (parameterized property sweep). On the SCALAR dispatch level the packed
// kernels are required to be BIT-exact against gemm_naive (same accumulation
// order), which the *BitExact* tests check via memcmp after pinning the
// level. The AVX2 level's FMA micro-kernel fuses each multiply-add into one
// rounding and is tolerance-gated instead (test_simd.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "simd/dispatch.hpp"
#include "tensor/gemm.hpp"
#include "tensor/rng.hpp"

namespace dronet {
namespace {

std::vector<float> random_matrix(Rng& rng, int rows, int cols) {
    std::vector<float> m(static_cast<std::size_t>(rows) * cols);
    rng.fill_uniform(m, -1.0f, 1.0f);
    return m;
}

void expect_near(const std::vector<float>& a, const std::vector<float>& b,
                 float tol = 2e-4f) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_NEAR(a[i], b[i], tol) << "at " << i;
    }
}

struct GemmCase {
    int m, n, k;
    bool ta, tb;
    float alpha, beta;
};

class GemmAgreement : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmAgreement, BlockedMatchesNaive) {
    const GemmCase c = GetParam();
    Rng rng(11);
    const auto a = c.ta ? random_matrix(rng, c.k, c.m) : random_matrix(rng, c.m, c.k);
    const auto b = c.tb ? random_matrix(rng, c.n, c.k) : random_matrix(rng, c.k, c.n);
    auto c_ref = random_matrix(rng, c.m, c.n);
    auto c_blk = c_ref;
    const int lda = c.ta ? c.m : c.k;
    const int ldb = c.tb ? c.k : c.n;
    gemm_naive({c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), lda, b.data(), ldb,
                c.beta, c_ref.data(), c.n});
    gemm_blocked({c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), lda, b.data(), ldb,
                  c.beta, c_blk.data(), c.n});
    expect_near(c_ref, c_blk);
}

TEST_P(GemmAgreement, ThreadedMatchesNaive) {
    const GemmCase c = GetParam();
    Rng rng(13);
    const auto a = c.ta ? random_matrix(rng, c.k, c.m) : random_matrix(rng, c.m, c.k);
    const auto b = c.tb ? random_matrix(rng, c.n, c.k) : random_matrix(rng, c.k, c.n);
    auto c_ref = random_matrix(rng, c.m, c.n);
    auto c_thr = c_ref;
    const int lda = c.ta ? c.m : c.k;
    const int ldb = c.tb ? c.k : c.n;
    gemm_naive({c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), lda, b.data(), ldb,
                c.beta, c_ref.data(), c.n});
    gemm_threaded({c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), lda, b.data(), ldb,
                   c.beta, c_thr.data(), c.n},
                  3);
    expect_near(c_ref, c_thr);
}

// On the scalar level the packed kernels reproduce gemm_naive's exact
// accumulation order (full-k ascending into a fresh accumulator, then
// alpha*acc + beta*c), so the results must match bit for bit — not just
// within tolerance. This is what lets gemm() switch kernels without
// perturbing checkpoint evaluation.
TEST_P(GemmAgreement, BlockedBitExactVsNaive) {
    const simd::ScopedSimdLevel scalar(simd::SimdLevel::kScalar);
    const GemmCase c = GetParam();
    Rng rng(29);
    const auto a = c.ta ? random_matrix(rng, c.k, c.m) : random_matrix(rng, c.m, c.k);
    const auto b = c.tb ? random_matrix(rng, c.n, c.k) : random_matrix(rng, c.k, c.n);
    auto c_ref = random_matrix(rng, c.m, c.n);
    auto c_blk = c_ref;
    const int lda = c.ta ? c.m : c.k;
    const int ldb = c.tb ? c.k : c.n;
    gemm_naive({c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), lda, b.data(), ldb,
                c.beta, c_ref.data(), c.n});
    gemm_blocked({c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), lda, b.data(), ldb,
                  c.beta, c_blk.data(), c.n});
    ASSERT_EQ(std::memcmp(c_ref.data(), c_blk.data(), c_ref.size() * sizeof(float)), 0);
}

TEST_P(GemmAgreement, ThreadedBitExactVsNaive) {
    const simd::ScopedSimdLevel scalar(simd::SimdLevel::kScalar);
    const GemmCase c = GetParam();
    Rng rng(31);
    const auto a = c.ta ? random_matrix(rng, c.k, c.m) : random_matrix(rng, c.m, c.k);
    const auto b = c.tb ? random_matrix(rng, c.n, c.k) : random_matrix(rng, c.k, c.n);
    auto c_ref = random_matrix(rng, c.m, c.n);
    auto c_thr = c_ref;
    const int lda = c.ta ? c.m : c.k;
    const int ldb = c.tb ? c.k : c.n;
    gemm_naive({c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), lda, b.data(), ldb,
                c.beta, c_ref.data(), c.n});
    gemm_threaded({c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), lda, b.data(), ldb,
                   c.beta, c_thr.data(), c.n},
                  4);
    ASSERT_EQ(std::memcmp(c_ref.data(), c_thr.data(), c_ref.size() * sizeof(float)), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmAgreement,
    ::testing::Values(
        GemmCase{1, 1, 1, false, false, 1.0f, 0.0f},
        GemmCase{4, 5, 6, false, false, 1.0f, 0.0f},
        GemmCase{16, 33, 9, false, false, 1.0f, 1.0f},
        GemmCase{7, 7, 7, true, false, 1.0f, 0.0f},
        GemmCase{7, 7, 7, false, true, 1.0f, 0.0f},
        GemmCase{7, 7, 7, true, true, 1.0f, 0.0f},
        GemmCase{12, 20, 30, false, false, 0.5f, 2.0f},
        GemmCase{12, 20, 30, true, true, -1.0f, 0.5f},
        GemmCase{64, 100, 72, false, false, 1.0f, 0.0f},
        GemmCase{3, 300, 150, false, false, 1.0f, 0.0f},
        GemmCase{130, 5, 260, false, false, 1.0f, 1.0f},
        // Edge shapes around the 6x16 register tile: one under/over each
        // boundary, single rows/columns, and a DroNet-like wide-N case.
        GemmCase{5, 17, 3, false, false, 1.0f, 0.0f},
        GemmCase{4, 16, 1, false, false, 1.0f, 0.0f},
        GemmCase{3, 15, 8, false, false, 2.0f, -1.0f},
        GemmCase{65, 257, 7, false, false, 1.0f, 0.5f},
        GemmCase{1, 16, 32, false, true, 1.0f, 0.0f},
        GemmCase{4, 1, 64, true, false, 1.0f, 1.0f},
        GemmCase{8, 1024, 27, false, false, 1.0f, 0.0f},
        GemmCase{9, 31, 5, false, true, -0.5f, 2.0f}));

// A row of C must not depend on how many rows the call has or where the row
// falls in a register tile: the AVX2 level runs every row count through the
// same FMA sequence, and the scalar level runs the reference order. Each row
// of an m-row call must equal, bit for bit, the same row computed alone.
TEST(GemmRows, IndependentOfRowCountAndTilePosition) {
    for (const simd::SimdLevel level : {simd::SimdLevel::kScalar, simd::SimdLevel::kAvx2}) {
        const simd::ScopedSimdLevel pin(level);
        Rng rng(43);
        for (const int m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 19, 30, 38}) {
            for (const int k : {5, 27, 171}) {
                for (const int n : {16, 33, 80}) {
                    for (const bool tb : {false, true}) {
                        const auto a = random_matrix(rng, m, k);
                        const auto b = tb ? random_matrix(rng, n, k) : random_matrix(rng, k, n);
                        const int ldb = tb ? k : n;
                        std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
                        gemm_blocked({false, tb, m, n, k, 1.0f, a.data(), k, b.data(), ldb,
                                      0.0f, c.data(), n});
                        for (int i = 0; i < m; ++i) {
                            std::vector<float> row(static_cast<std::size_t>(n), 0.0f);
                            gemm_blocked({false, tb, 1, n, k, 1.0f,
                                          a.data() + static_cast<std::size_t>(i) * k, k,
                                          b.data(), ldb, 0.0f, row.data(), n});
                            ASSERT_EQ(std::memcmp(row.data(),
                                                  c.data() + static_cast<std::size_t>(i) * n,
                                                  row.size() * sizeof(float)),
                                      0)
                                << simd::to_string(simd::active_level()) << " m=" << m
                                << " k=" << k << " n=" << n << " trans_b=" << tb
                                << " row " << i;
                        }
                    }
                }
            }
        }
    }
}

TEST(Gemm, IdentityMultiplication) {
    // I * B = B for a 3x3 identity.
    const std::vector<float> eye = {1, 0, 0, 0, 1, 0, 0, 0, 1};
    const std::vector<float> b = {1, 2, 3, 4, 5, 6, 7, 8, 9};
    std::vector<float> c(9, 0.0f);
    gemm(false, false, 3, 3, 3, 1.0f, eye.data(), 3, b.data(), 3, 0.0f, c.data(), 3);
    expect_near(b, c);
}

// beta == 0 never reads C: a NaN or Inf an earlier call left there must not
// survive (0 * NaN is NaN). Checked at both levels on a 16-column tile and
// the n % 16 tail column, and for the degenerate k == 0.
TEST(Gemm, BetaZeroOverwritesGarbage) {
    const std::vector<float> a = {1, 2};
    const std::vector<float> b = {3, 4};
    std::vector<float> c = {1e30f};
    gemm(false, false, 1, 1, 2, 1.0f, a.data(), 2, b.data(), 1, 0.0f, c.data(), 1);
    EXPECT_FLOAT_EQ(c[0], 11.0f);

    constexpr int m = 5;
    constexpr int n = 17;
    const float garbage[] = {std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity(), 1e30f};
    for (const simd::SimdLevel level : {simd::SimdLevel::kScalar, simd::SimdLevel::kAvx2}) {
        const simd::ScopedSimdLevel pin(level);
        for (const int k : {0, 9}) {
            Rng rng(47);
            const auto am = random_matrix(rng, m, std::max(1, k));
            const auto bm = random_matrix(rng, std::max(1, k), n);
            const int lda = std::max(1, k);
            std::vector<float> clean(static_cast<std::size_t>(m) * n, 0.0f);
            std::vector<float> clean_naive = clean;
            gemm(false, false, m, n, k, 1.0f, am.data(), lda, bm.data(), n, 0.0f,
                 clean.data(), n);
            gemm_naive({false, false, m, n, k, 1.0f, am.data(), lda, bm.data(), n, 0.0f,
                        clean_naive.data(), n});
            for (const float g : garbage) {
                std::vector<float> dirty(clean.size(), g);
                std::vector<float> dirty_naive(clean.size(), g);
                gemm(false, false, m, n, k, 1.0f, am.data(), lda, bm.data(), n, 0.0f,
                     dirty.data(), n);
                gemm_naive({false, false, m, n, k, 1.0f, am.data(), lda, bm.data(), n,
                            0.0f, dirty_naive.data(), n});
                ASSERT_EQ(std::memcmp(clean.data(), dirty.data(), clean.size() * sizeof(float)),
                          0)
                    << simd::to_string(level) << " k=" << k << " C held " << g;
                ASSERT_EQ(std::memcmp(clean_naive.data(), dirty_naive.data(),
                                      clean.size() * sizeof(float)),
                          0)
                    << "gemm_naive k=" << k << " C held " << g;
            }
        }
    }
}

TEST(Gemm, AlphaScaling) {
    const std::vector<float> a = {2};
    const std::vector<float> b = {3};
    std::vector<float> c = {10};
    gemm(false, false, 1, 1, 1, 0.5f, a.data(), 1, b.data(), 1, 1.0f, c.data(), 1);
    EXPECT_FLOAT_EQ(c[0], 13.0f);
}

TEST(Gemm, RejectsNegativeDims) {
    std::vector<float> buf(4, 0.0f);
    EXPECT_THROW(gemm_blocked({false, false, -1, 2, 2, 1.0f, buf.data(), 2, buf.data(),
                               2, 0.0f, buf.data(), 2}),
                 std::invalid_argument);
}

TEST(Gemm, RejectsNullPointers) {
    std::vector<float> buf(4, 0.0f);
    EXPECT_THROW(gemm_blocked({false, false, 2, 2, 2, 1.0f, nullptr, 2, buf.data(), 2,
                               0.0f, buf.data(), 2}),
                 std::invalid_argument);
}

TEST(Gemm, ZeroSizedNoop) {
    std::vector<float> buf(4, 1.0f);
    gemm_blocked({false, false, 0, 0, 0, 1.0f, nullptr, 1, nullptr, 1, 0.0f, nullptr, 1});
    gemm_blocked({false, false, 2, 2, 0, 1.0f, nullptr, 1, nullptr, 1, 1.0f, buf.data(), 2});
    EXPECT_FLOAT_EQ(buf[0], 1.0f);  // beta=1, k=0 leaves C untouched
}

TEST(Gemm, GlobalThreadSetting) {
    set_gemm_threads(4);
    EXPECT_EQ(gemm_threads(), 4);
    set_gemm_threads(0);  // clamped to 1
    EXPECT_EQ(gemm_threads(), 1);
}

TEST(Gemm, FlopsFormula) {
    EXPECT_EQ(gemm_flops(2, 3, 4), 48);
    EXPECT_EQ(gemm_flops(0, 3, 4), 0);
}

}  // namespace
}  // namespace dronet
