// INT8 quantization path (§V future-work extension): int8 GEMM correctness
// and cross-SIMD-level bit-exactness, quantization helpers (including the
// non-finite-input regressions), calibrated QuantizedNetwork behavior across
// batch sizes and input resolutions (allocation-free, bit-stable per item),
// bit-exactness of the quantize-then-lower conv against the float-lowering
// order, fuzzed degenerate weights through calibration, the int8 serving
// tier, and the pretrained-checkpoint accuracy gate against fp32.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <vector>

#include "analysis/numerics.hpp"
#include "data/dataset.hpp"
#include "eval/evaluator.hpp"
#include "models/model_zoo.hpp"
#include "models/pretrained.hpp"
#include "nn/clone.hpp"
#include "nn/quantize.hpp"
#include "serve/detection_service.hpp"
#include "simd/dispatch.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_i8.hpp"
#include "tensor/im2col.hpp"
#include "tensor/rng.hpp"

namespace dronet {
namespace {

using serve::DetectionService;
using serve::ServeResult;
using serve::ServeStatus;

TEST(GemmI8, MatchesIntegerReference) {
    Rng rng(3);
    const int m = 5, n = 7, k = 9;
    std::vector<std::int8_t> a(static_cast<std::size_t>(m) * k);
    std::vector<std::int8_t> b(static_cast<std::size_t>(k) * n);
    for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    for (auto& v : b) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    std::vector<std::int32_t> c(static_cast<std::size_t>(m) * n);
    gemm_i8(m, n, k, a.data(), k, b.data(), n, c.data(), n);
    for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
            std::int32_t acc = 0;
            for (int p = 0; p < k; ++p) {
                acc += static_cast<std::int32_t>(a[static_cast<std::size_t>(i) * k + p]) *
                       static_cast<std::int32_t>(b[static_cast<std::size_t>(p) * n + j]);
            }
            EXPECT_EQ(c[static_cast<std::size_t>(i) * n + j], acc);
        }
    }
}

TEST(GemmI8, OverwritesOutput) {
    std::vector<std::int8_t> a = {1};
    std::vector<std::int8_t> b = {2};
    std::vector<std::int32_t> c = {999};
    gemm_i8(1, 1, 1, a.data(), 1, b.data(), 1, c.data(), 1);
    EXPECT_EQ(c[0], 2);
}

TEST(GemmI8, BitExactAcrossSimdLevels) {
    // Integer kernels are memcmp-identical across dispatch levels (unlike the
    // tolerance-gated float FMA kernels). Shapes deliberately hit the AVX2
    // kernel's odd-k pairing and the n % 16 scalar column tail.
    if (!simd::cpu_supports_avx2()) {
        GTEST_SKIP() << "CPU/build lacks AVX2; only one level to test";
    }
    Rng rng(21);
    for (const auto [m, n, k] : {std::array<int, 3>{4, 37, 13},
                                 std::array<int, 3>{3, 16, 8},
                                 std::array<int, 3>{7, 61, 27}}) {
        std::vector<std::int8_t> a(static_cast<std::size_t>(m) * k);
        std::vector<std::int8_t> b(static_cast<std::size_t>(k) * n);
        for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
        for (auto& v : b) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
        std::vector<std::int32_t> c_scalar(static_cast<std::size_t>(m) * n, -1);
        std::vector<std::int32_t> c_avx2(static_cast<std::size_t>(m) * n, -2);
        {
            const simd::ScopedSimdLevel pin(simd::SimdLevel::kScalar);
            gemm_i8(m, n, k, a.data(), k, b.data(), n, c_scalar.data(), n);
        }
        {
            const simd::ScopedSimdLevel pin(simd::SimdLevel::kAvx2);
            gemm_i8(m, n, k, a.data(), k, b.data(), n, c_avx2.data(), n);
        }
        EXPECT_EQ(0, std::memcmp(c_scalar.data(), c_avx2.data(),
                                 c_scalar.size() * sizeof(std::int32_t)))
            << m << "x" << n << "x" << k;
    }
}

TEST(Quantization, ScaleAndRoundTrip) {
    const std::vector<float> x = {-2.0f, 0.5f, 1.0f, 2.0f};
    const float scale = quantization_scale(x.data(), static_cast<std::int64_t>(x.size()));
    EXPECT_FLOAT_EQ(scale, 2.0f / 127.0f);
    std::vector<std::int8_t> q(x.size());
    quantize_buffer(x.data(), static_cast<std::int64_t>(x.size()), scale, q.data());
    EXPECT_EQ(q[0], -127);
    EXPECT_EQ(q[3], 127);
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_NEAR(static_cast<float>(q[i]) * scale, x[i], scale);
    }
}

TEST(Quantization, ZeroBufferScaleIsOne) {
    const std::vector<float> x(4, 0.0f);
    EXPECT_FLOAT_EQ(quantization_scale(x.data(), 4), 1.0f);
}

TEST(Quantization, ValueClamps) {
    EXPECT_EQ(quantize_value(1e9f, 1.0f), 127);
    EXPECT_EQ(quantize_value(-1e9f, 1.0f), -127);
    EXPECT_EQ(quantize_value(0.0f, 1.0f), 0);
}

TEST(Quantization, NonFiniteValuesHaveDefinedResults) {
    // Regression: a NaN reached static_cast<int8_t> (undefined behaviour).
    // NaN is defined as 0; infinities saturate like any out-of-range value.
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(quantize_value(std::numeric_limits<float>::quiet_NaN(), 0.5f), 0);
    EXPECT_EQ(quantize_value(-std::numeric_limits<float>::quiet_NaN(), 0.5f), 0);
    EXPECT_EQ(quantize_value(inf, 0.5f), 127);
    EXPECT_EQ(quantize_value(-inf, 0.5f), -127);
    const std::vector<float> x = {std::numeric_limits<float>::quiet_NaN(), inf, -inf, 1.0f};
    std::vector<std::int8_t> q(x.size());
    quantize_buffer(x.data(), static_cast<std::int64_t>(x.size()), 0.5f, q.data());
    EXPECT_EQ(q, (std::vector<std::int8_t>{0, 127, -127, 2}));
}

TEST(Quantization, NonFiniteThrowsUnderNumericsChecks) {
    // Regression: std::max(mx, fabs(NaN)) silently kept the old max (NaN
    // comparisons are false), so a poisoned buffer produced a plausible scale
    // and an Inf an Inf scale. Under the numerics guard both now throw.
    set_numerics_checks(true);
    const std::vector<float> with_nan = {1.0f, std::numeric_limits<float>::quiet_NaN()};
    const std::vector<float> with_inf = {1.0f, std::numeric_limits<float>::infinity()};
    EXPECT_THROW((void)quantization_scale(with_nan.data(), 2), NumericsError);
    EXPECT_THROW((void)quantization_scale(with_inf.data(), 2), NumericsError);
    set_numerics_checks(false);
}

TEST(Quantization, NonFiniteYieldsFiniteScaleWithoutChecks) {
    set_numerics_checks(false);
    // NaN carries no magnitude information: the scale comes from the finite
    // values alone.
    const std::vector<float> with_nan = {1.0f, std::numeric_limits<float>::quiet_NaN(),
                                         2.0f};
    EXPECT_FLOAT_EQ(quantization_scale(with_nan.data(), 3), 2.0f / 127.0f);
    // Inf saturates the range: the scale clamps to the largest finite max
    // instead of propagating Inf into every requantize multiplier.
    const std::vector<float> with_inf = {1.0f, -std::numeric_limits<float>::infinity()};
    const float s = quantization_scale(with_inf.data(), 2);
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_FLOAT_EQ(s, FLT_MAX / 127.0f);
}

TEST(QuantizedNetwork, SnapshotsEveryConvLayer) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    QuantizedNetwork q(net);
    EXPECT_EQ(q.layers().size(), 9u);  // DroNet's 9 convolutions
    EXPECT_LT(q.weight_bytes(), q.float_weight_bytes() / 2);
    EXPECT_GT(q.mean_weight_error(), 0.0f);  // const, forward-free diagnostic
}

TEST(QuantizedNetwork, SmallWeightQuantizationError) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    QuantizedNetwork q(net);
    for (const QuantizedConv& qc : q.layers()) {
        auto& conv = dynamic_cast<ConvolutionalLayer&>(net.layer(qc.layer_index));
        const float err = qc.mean_weight_error(conv);
        // Mean |error| bounded by half an LSB of the per-channel scale range.
        float max_scale = 0;
        for (float s : qc.scales) max_scale = std::max(max_scale, s);
        EXPECT_LE(err, max_scale);
    }
}

TEST(QuantizedNetwork, CalibrationLayerCountMismatchThrows) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    Int8Calibration short_calib;
    short_calib.max_abs.assign(3, 1.0f);  // DroNet has 9 convs
    EXPECT_THROW((QuantizedNetwork{net, short_calib}), std::invalid_argument);
    Int8Calibration long_calib;
    long_calib.max_abs.assign(12, 1.0f);
    EXPECT_THROW((QuantizedNetwork{net, long_calib}), std::invalid_argument);
}

TEST(QuantizedNetwork, BatchedForwardBitEqualsBatchOnePerItem) {
    // PR 4's batched serving contract, extended to int8: static calibrated
    // scales + integer accumulation make every batch item bit-identical to
    // its batch-1 forward. (The old path threw on re-batch instead.)
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    QuantizedNetwork q(net);

    constexpr int kBatch = 3;
    std::vector<Tensor> singles;
    std::vector<Tensor> expected;
    Rng rng(0xBA7C);
    for (int b = 0; b < kBatch; ++b) {
        Tensor in(net.input_shape());
        rng.fill_uniform(in.span(), 0.0f, 1.0f);
        expected.push_back(q.forward(in));  // copy of the batch-1 output
        singles.push_back(std::move(in));
    }

    net.set_batch(kBatch);
    Tensor batch(net.input_shape());
    const std::int64_t in_chw = singles[0].size();
    for (int b = 0; b < kBatch; ++b) {
        std::memcpy(batch.data() + b * in_chw, singles[static_cast<std::size_t>(b)].data(),
                    static_cast<std::size_t>(in_chw) * sizeof(float));
    }
    const Tensor& out = q.forward(batch);
    const std::int64_t out_chw = expected[0].size();
    ASSERT_EQ(out.size(), kBatch * out_chw);
    for (int b = 0; b < kBatch; ++b) {
        const Tensor& want = expected[static_cast<std::size_t>(b)];
        for (std::int64_t i = 0; i < out_chw; ++i) {
            ASSERT_EQ(out.data()[b * out_chw + i], want.data()[i])
                << "item " << b << " element " << i;
        }
    }
    // A stale batch-1 tensor no longer matches the live geometry.
    EXPECT_THROW((void)q.forward(singles[0]), std::invalid_argument);
    net.set_batch(1);
    EXPECT_NO_THROW((void)q.forward(singles[0]));
}

TEST(QuantizedNetwork, FollowsDegradedResize) {
    // The serving degrade path shrinks the live input; the quantized forward
    // follows the source network's geometry per call. fan_in is
    // resize-invariant, so no re-quantization happens on the way.
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    QuantizedNetwork q(net);
    net.resize_input(32, 32);
    Tensor small(net.input_shape());
    Rng rng(5);
    rng.fill_uniform(small.span(), 0.0f, 1.0f);
    EXPECT_NO_THROW((void)q.forward(small));
    EXPECT_EQ(q.decode().size(), 5u * 2 * 2);  // 5 anchors on the 2x2 grid
    EXPECT_EQ(q.scratch_grows(), 0);  // smaller geometry reuses scratch
    net.resize_input(64, 64);
    Tensor full(net.input_shape());
    rng.fill_uniform(full.span(), 0.0f, 1.0f);
    EXPECT_NO_THROW((void)q.forward(full));
    EXPECT_EQ(q.decode().size(), 5u * 4 * 4);
}

TEST(QuantizedNetwork, ForwardIsAllocationFree) {
    // Scratch is pre-sized at construction (grow-only, PR 4): forwards at the
    // construction geometry, any batch size, and smaller degraded inputs must
    // never reallocate. Growing the input is the one legitimate grow.
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    QuantizedNetwork q(net);
    EXPECT_EQ(q.scratch_grows(), 0);

    Rng rng(17);
    Tensor in(net.input_shape());
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    q.forward(in);
    EXPECT_EQ(q.scratch_grows(), 0);

    net.set_batch(4);  // per-item scratch: batch size never grows it
    Tensor batch(net.input_shape());
    rng.fill_uniform(batch.span(), 0.0f, 1.0f);
    q.forward(batch);
    EXPECT_EQ(q.scratch_grows(), 0);

    net.set_batch(1);
    net.resize_input(32, 32);
    Tensor small(net.input_shape());
    rng.fill_uniform(small.span(), 0.0f, 1.0f);
    q.forward(small);
    EXPECT_EQ(q.scratch_grows(), 0);

    net.resize_input(128, 128);  // larger than construction: must grow
    Tensor big(net.input_shape());
    rng.fill_uniform(big.span(), 0.0f, 1.0f);
    q.forward(big);
    EXPECT_GT(q.scratch_grows(), 0);

    // The int8 input scratch is pre-sized too. A 1x1 conv on a wide input
    // quantizes more bytes than its accumulators hold and lowers nothing, so
    // here the input scratch is the largest buffer.
    NetConfig nc;
    nc.channels = 32;
    nc.height = 16;
    nc.width = 16;
    nc.batch = 1;
    Network wide(nc);
    wide.add_conv({.filters = 2, .ksize = 1, .stride = 1, .pad = 0});
    QuantizedNetwork qw(wide);
    Tensor wide_in(wide.input_shape());
    rng.fill_uniform(wide_in.span(), 0.0f, 1.0f);
    qw.forward(wide_in);
    EXPECT_EQ(qw.scratch_grows(), 0);
    wide.set_batch(4);
    Tensor wide_batch(wide.input_shape());
    rng.fill_uniform(wide_batch.span(), 0.0f, 1.0f);
    qw.forward(wide_batch);
    EXPECT_EQ(qw.scratch_grows(), 0);
    wide.set_batch(1);
    wide.resize_input(8, 8);
    Tensor wide_small(wide.input_shape());
    rng.fill_uniform(wide_small.span(), 0.0f, 1.0f);
    qw.forward(wide_small);
    EXPECT_EQ(qw.scratch_grows(), 0);
    wide.resize_input(24, 24);
    Tensor wide_big(wide.input_shape());
    rng.fill_uniform(wide_big.span(), 0.0f, 1.0f);
    qw.forward(wide_big);
    EXPECT_GT(qw.scratch_grows(), 0);
}

// ---- exactness of quantize-then-lower ---------------------------------------

/// One conv layer in the order that lowers floats first, built from the
/// scalar reference pieces: float im2col, quantize_value on every col element,
/// gemm_i8, then activate(float(acc) * requant + bias) element by element.
/// Returns the outputs of every batch item of `input`, concatenated.
std::vector<float> reference_conv(const QuantizedConv& qc, const Tensor& input) {
    const Shape& s = input.shape();
    const ConvGeometry geo{s.c, s.h, s.w, qc.config.ksize, qc.config.stride, qc.config.pad};
    const int rows = geo.col_rows();
    const int cols = geo.col_cols();
    const int filters = qc.config.filters;
    std::vector<float> col(static_cast<std::size_t>(rows) * cols);
    std::vector<std::int8_t> col_q(col.size());
    std::vector<std::int32_t> acc(static_cast<std::size_t>(filters) * cols);
    std::vector<float> out;
    for (int b = 0; b < s.n; ++b) {
        im2col(input.data() + b * s.chw(), geo, col.data());
        for (std::size_t i = 0; i < col.size(); ++i) {
            col_q[i] = quantize_value(col[i], qc.input_scale);
        }
        gemm_i8(filters, cols, rows, qc.weights.data(), rows, col_q.data(), cols, acc.data(),
                cols);
        for (int f = 0; f < filters; ++f) {
            const auto fi = static_cast<std::size_t>(f);
            for (int j = 0; j < cols; ++j) {
                const float x = static_cast<float>(acc[fi * static_cast<std::size_t>(cols) +
                                                       static_cast<std::size_t>(j)]) *
                                    qc.requant[fi] +
                                qc.biases[fi];
                out.push_back(activate(qc.config.activation, x));
            }
        }
    }
    return out;
}

/// Runs q.forward(input) under each SIMD level the host has, and memcmps
/// every conv layer's output against reference_conv over that layer's own
/// input.
void expect_convs_match_reference(QuantizedNetwork& q, Network& net, const Tensor& input,
                                  const std::string& what) {
    std::vector<simd::SimdLevel> levels = {simd::SimdLevel::kScalar};
    if (simd::cpu_supports_avx2()) levels.push_back(simd::SimdLevel::kAvx2);
    for (const simd::SimdLevel level : levels) {
        const simd::ScopedSimdLevel pin(level);
        q.forward(input);
        for (const QuantizedConv& qc : q.layers()) {
            const Tensor& in =
                qc.layer_index == 0 ? input : net.layer(qc.layer_index - 1).output();
            const Tensor& got = net.layer(qc.layer_index).output();
            const std::vector<float> want = reference_conv(qc, in);
            ASSERT_EQ(static_cast<std::size_t>(got.size()), want.size());
            EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(float)))
                << what << ", " << simd::to_string(level) << ", conv layer "
                << qc.layer_index;
        }
    }
}

/// Synthetic benchmark scenes resampled to the network's live input shape,
/// one per batch item.
Tensor scene_batch(const Network& net, std::uint64_t seed) {
    Tensor batch(net.input_shape());
    const DetectionDataset scenes =
        generate_dataset(benchmark_scene_config(), batch.shape().n, seed);
    (void)scenes.fill_batch(batch, 0);
    return batch;
}

TEST(QuantizedExactness, PretrainedDroNetAt224MatchesFloatLowering) {
    auto net = load_pretrained(ModelId::kDroNet);
    if (!net) GTEST_SKIP() << "no DroNet checkpoint in weights/";
    net->set_batch(1);
    net->resize_input(224, 224);
    QuantizedNetwork q(*net);
    for (const int batch : {1, 4}) {
        net->set_batch(batch);
        expect_convs_match_reference(q, *net, scene_batch(*net, 0xD20),
                                     "DroNet@224 batch " + std::to_string(batch));
    }
}

TEST(QuantizedExactness, TinyYoloNetMatchesFloatLowering) {
    Network net = build_model(ModelId::kTinyYoloNet, {.input_size = 96, .filter_scale = 0.25f});
    QuantizedNetwork q(net);
    for (const int batch : {1, 4}) {
        net.set_batch(batch);
        expect_convs_match_reference(q, net, scene_batch(net, 0x7E1),
                                     "TinyYoloNet batch " + std::to_string(batch));
    }
}

TEST(QuantizedExactness, StridedConvMatchesFloatLowering) {
    // ksize 3 at stride 2 takes the int8 im2col's strided branch (pad 0: no
    // zero taps; pad 1: zero taps on it). Odd sizes leave a ragged border,
    // and inputs beyond the calibrated range saturate at +-127.
    for (const int pad : {0, 1}) {
        NetConfig nc;
        nc.channels = 3;
        nc.height = 17;
        nc.width = 23;
        nc.batch = 1;
        nc.seed = 7;
        Network net(nc);
        net.add_conv({.filters = 6, .ksize = 3, .stride = 2, .pad = pad});
        Rng rng(static_cast<std::uint64_t>(41 + pad));
        Tensor calib(net.input_shape());
        rng.fill_uniform(calib.span(), -1.0f, 1.0f);
        QuantizedNetwork q(net, QuantizedNetwork::calibrate(net, std::span(&calib, 1)));
        for (const int batch : {1, 4}) {
            net.set_batch(batch);
            Tensor in(net.input_shape());
            rng.fill_uniform(in.span(), -1.5f, 1.5f);
            expect_convs_match_reference(q, net, in,
                                         "3x3/2 pad " + std::to_string(pad) + " batch " +
                                             std::to_string(batch));
        }
    }
}

TEST(QuantizedNetwork, PerLayerConvToleranceAtDroNetStageShapes) {
    // Single-conv networks at the DroNet stage geometries (channels ->
    // filters per stage). With the calibration sample equal to the inference
    // input the activation scale is exact, so the remaining error is pure
    // int8 rounding — a tight per-stage bound.
    struct Stage { int channels, filters; };
    for (const Stage s : {Stage{3, 8}, Stage{8, 16}, Stage{16, 32}, Stage{32, 64}}) {
        NetConfig nc;
        nc.channels = s.channels;
        nc.height = 32;
        nc.width = 32;
        nc.batch = 1;
        nc.seed = 42;
        Network net(nc);
        net.add_conv({.filters = s.filters, .ksize = 3, .stride = 1, .pad = 1});

        Tensor in(net.input_shape());
        Rng rng(static_cast<std::uint64_t>(100 + s.channels));
        rng.fill_uniform(in.span(), -1.0f, 1.0f);

        QuantizedNetwork q(net, QuantizedNetwork::calibrate(net, std::span(&in, 1)));
        const Tensor q_out = q.forward(in);
        const Tensor& f_out = net.forward(in, /*train=*/false);
        ASSERT_EQ(q_out.shape(), f_out.shape());
        double err = 0, norm = 0;
        for (std::int64_t i = 0; i < f_out.size(); ++i) {
            err += std::fabs(q_out.data()[i] - f_out.data()[i]);
            norm += std::fabs(f_out.data()[i]);
        }
        EXPECT_LT(err / std::max(norm, 1e-6), 0.04)
            << s.channels << "ch -> " << s.filters << "f";
    }
}

void zero_conv_params(Network& net) {
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
        auto* conv = dynamic_cast<ConvolutionalLayer*>(&net.layer(static_cast<int>(i)));
        if (conv == nullptr) continue;
        std::fill(conv->weights().v.begin(), conv->weights().v.end(), 0.0f);
        std::fill(conv->biases().v.begin(), conv->biases().v.end(), 0.0f);
    }
}

TEST(QuantizedNetwork, AllZeroWeightsSurviveCalibration) {
    // Fuzz: every conv input downstream of layer 0 is all-zero, so every
    // calibrated range is empty. The zero-range fallback (scale 1.0) must
    // keep construction and inference finite instead of dividing by zero.
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    zero_conv_params(net);
    QuantizedNetwork q(net);
    for (const QuantizedConv& qc : q.layers()) {
        for (float s : qc.scales) EXPECT_FLOAT_EQ(s, 1.0f);
        EXPECT_TRUE(std::isfinite(qc.input_scale));
        EXPECT_GT(qc.input_scale, 0.0f);
    }
    Tensor in(net.input_shape());
    Rng rng(23);
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    const Tensor& out = q.forward(in);
    for (std::int64_t i = 0; i < out.size(); ++i) {
        ASSERT_TRUE(std::isfinite(out.data()[i])) << "element " << i;
    }
}

TEST(QuantizedNetwork, SingleHotChannelWeightsSurviveCalibration) {
    // Fuzz: one filter dominates the dynamic range of every downstream layer
    // (the worst case for per-tensor activation scales). Inference must stay
    // finite and track the float network.
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    zero_conv_params(net);
    auto* first = dynamic_cast<ConvolutionalLayer*>(&net.layer(0));
    ASSERT_NE(first, nullptr);
    const int fan_in = static_cast<int>(first->weights().size()) / first->config().filters;
    for (int p = 0; p < fan_in; ++p) first->weights().v[static_cast<std::size_t>(p)] = 10.0f;

    QuantizedNetwork q(net);
    Tensor in(net.input_shape());
    Rng rng(29);
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    const Tensor q_out = q.forward(in);
    const Tensor& f_out = net.forward(in, /*train=*/false);
    double err = 0, norm = 0;
    for (std::int64_t i = 0; i < f_out.size(); ++i) {
        ASSERT_TRUE(std::isfinite(q_out.data()[i])) << "element " << i;
        err += std::fabs(q_out.data()[i] - f_out.data()[i]);
        norm += std::fabs(f_out.data()[i]);
    }
    EXPECT_LT(err / std::max(norm, 1.0), 0.08);
}

class QuantizedAgreement : public ::testing::TestWithParam<ModelId> {};

TEST_P(QuantizedAgreement, CloseToFloatNetwork) {
    Network net = build_model(GetParam(), {.input_size = 64, .filter_scale = 0.25f});
    Tensor in(net.input_shape());
    Rng rng(9);
    rng.fill_uniform(in.span(), 0.0f, 1.0f);

    QuantizedNetwork q(net);  // folds BN in the float net too
    const Tensor& qout = q.forward(in);
    Tensor q_copy = qout;
    net.forward(in, /*train=*/false);
    const Tensor& fout = net.region()->output();

    ASSERT_EQ(q_copy.shape(), fout.shape());
    // Relative agreement: int8 inference stays close to float.
    double err = 0, norm = 0;
    for (std::int64_t i = 0; i < fout.size(); ++i) {
        err += std::fabs(q_copy[i] - fout[i]);
        norm += std::fabs(fout[i]);
    }
    EXPECT_LT(err / std::max(norm, 1.0), 0.08) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Models, QuantizedAgreement,
                         ::testing::Values(ModelId::kDroNet, ModelId::kSmallYoloV3),
                         [](const ::testing::TestParamInfo<ModelId>& info) {
                             return to_string(info.param);
                         });

TEST(QuantizedNetwork, DecodeProducesSameGridOfDetections) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    Tensor in(net.input_shape());
    Rng rng(11);
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    QuantizedNetwork q(net);
    q.forward(in);
    const Detections dets = q.decode();
    EXPECT_EQ(dets.size(), 5u * 4 * 4);  // 5 anchors on the 4x4 grid
}

// ---- int8 serving tier ------------------------------------------------------

TEST(QuantizedService, RejectsInt8OnFp16Prototype) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    net.set_fp16(true);
    serve::ServiceConfig sc;
    sc.int8 = true;
    EXPECT_THROW((DetectionService{net, sc}), std::invalid_argument);
}

TEST(QuantizedService, MicroBatchedInt8IsDeterministicAcrossReplicas) {
    // The same frame submitted many times through 2 int8 replicas with
    // micro-batching must resolve bit-identically everywhere: replicas share
    // one calibration, and the int8 forward is bit-stable per item at any
    // batch size.
    Network net = build_model(ModelId::kDroNet, {.input_size = 128, .filter_scale = 0.5f});
    serve::ServiceConfig sc;
    sc.workers = 2;
    sc.queue_capacity = 16;
    sc.max_batch = 4;
    sc.int8 = true;
    sc.pipeline.eval.score_threshold = 5e-4f;  // random weights: non-vacuous
    DetectionService service(net, sc);

    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(128), 2, /*seed=*/0x5eed);
    constexpr int kRepeats = 8;
    std::vector<std::future<ServeResult>> futures;
    for (int i = 0; i < kRepeats; ++i) {
        futures.push_back(service.submit(frames.image(0)));
    }
    service.drain();

    Detections want;
    for (int i = 0; i < kRepeats; ++i) {
        const ServeResult r = futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(r.status, ServeStatus::kOk) << "frame " << i;
        if (i == 0) {
            want = r.frame.detections;
            continue;
        }
        const Detections& got = r.frame.detections;
        ASSERT_EQ(got.size(), want.size()) << "frame " << i;
        for (std::size_t d = 0; d < want.size(); ++d) {
            EXPECT_EQ(got[d].box.x, want[d].box.x);
            EXPECT_EQ(got[d].box.y, want[d].box.y);
            EXPECT_EQ(got[d].box.w, want[d].box.w);
            EXPECT_EQ(got[d].box.h, want[d].box.h);
            EXPECT_EQ(got[d].objectness, want[d].objectness);
            EXPECT_EQ(got[d].class_id, want[d].class_id);
        }
    }
    EXPECT_FALSE(want.empty()) << "determinism test is vacuous: no detections";
}

TEST(QuantizedService, Int8ServesThroughDegradeCycle) {
    // int8 + graceful degradation: the quantized scratch was pre-sized at the
    // full geometry, so serving at the degraded size (and recovering) must
    // work and resolve every frame.
    Network net = build_model(ModelId::kDroNet, {.input_size = 128, .filter_scale = 0.25f});
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.queue_capacity = 32;
    sc.max_batch = 2;
    sc.int8 = true;
    sc.degrade_high_watermark = 4;
    sc.degrade_low_watermark = 1;
    sc.degraded_size = 64;
    DetectionService service(net, sc);

    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(128), 4, /*seed=*/31);
    std::vector<std::future<ServeResult>> futures;
    for (int i = 0; i < 24; ++i) {
        futures.push_back(service.submit(frames.image(static_cast<std::size_t>(i) % 4)));
    }
    service.drain();
    for (auto& f : futures) {
        EXPECT_EQ(f.get().status, ServeStatus::kOk);
    }
}

// ---- accuracy gate ----------------------------------------------------------

TEST(QuantizedNetwork, CheckpointMetricsCloseToFp32) {
    // The headline gate from ISSUE 9: on the shipped checkpoint, calibrated
    // int8 detection metrics must stay within a fixed tolerance of the fp32
    // evaluation (skipped on a fresh clone without weights/). Numbers are
    // recorded in docs/quantization.md.
    auto net = load_pretrained(ModelId::kDroNet);
    if (!net) GTEST_SKIP() << "no DroNet checkpoint in weights/";
    const DetectionDataset test_set = benchmark_test_set(16);
    net->set_batch(1);
    net->resize_input(224, 224);
    const DetectionMetrics fp32 = evaluate_detector(*net, test_set, {});

    std::vector<Image> calib_frames;
    for (std::size_t i = 0; i < test_set.size() && i < 8; ++i) {
        calib_frames.push_back(test_set.image(i));
    }
    QuantizedNetwork q(*net, calibrate_int8(*net, calib_frames, {}));
    const DetectionMetrics int8 = evaluate_detector(*net, test_set, {}, &q);

    // Int8 rounding may move individual scores across thresholds but must not
    // change the operating point materially.
    EXPECT_NEAR(int8.sensitivity(), fp32.sensitivity(), 0.05f);
    EXPECT_NEAR(int8.precision(), fp32.precision(), 0.05f);
    EXPECT_NEAR(int8.avg_iou(), fp32.avg_iou(), 0.05f);
    // And it must still clear the same conservative floors the fp32
    // checkpoint test pins.
    EXPECT_GE(int8.sensitivity(), 0.75f);
    EXPECT_GE(int8.precision(), 0.75f);
    EXPECT_GE(int8.avg_iou(), 0.6f);
}

}  // namespace
}  // namespace dronet
