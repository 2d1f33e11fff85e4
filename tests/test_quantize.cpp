// INT8 quantization path (§V future-work extension): int8 GEMM correctness
// and cross-SIMD-level bit-exactness, quantization helpers (including the
// non-finite-input regressions), Precision::kInt8 networks across batch
// sizes and input resolutions (allocation-free, bit-stable per item), the
// profiler and numerics guards on int8 forwards, bit-exactness of the
// quantize-then-lower conv against the float-lowering order, fuzzed
// degenerate weights through calibration, the benchmark's QuantizedNetwork
// handle, the int8 serving tier, and the pretrained-checkpoint accuracy gate
// against fp32.
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
#include "fault/fault.hpp"
#include "models/model_zoo.hpp"
#include "models/pretrained.hpp"
#include "nn/clone.hpp"
#include "nn/quantize.hpp"
#include "profile/profiler.hpp"
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

/// The conv layers of `net`, in order.
std::vector<ConvolutionalLayer*> conv_layers(Network& net) {
    std::vector<ConvolutionalLayer*> convs;
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
        if (auto* conv = dynamic_cast<ConvolutionalLayer*>(&net.layer(static_cast<int>(i)))) {
            convs.push_back(conv);
        }
    }
    return convs;
}

/// Mean |dequantized - float| weight of one int8 conv layer.
float mean_weight_error(const ConvolutionalLayer& conv) {
    const Int8Weights& q = conv.int8();
    const std::size_t fan_in = q.weights.size() / q.scales.size();
    double err = 0;
    for (std::size_t i = 0; i < q.weights.size(); ++i) {
        const float deq = static_cast<float>(q.weights[i]) * q.scales[i / fan_in];
        err += std::fabs(deq - conv.weights().v[i]);
    }
    return static_cast<float>(err / static_cast<double>(q.weights.size()));
}

Network int8_dronet64() {
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    net.set_precision(Precision::kInt8, self_calibrate(net));
    return net;
}

TEST(Int8Precision, QuantizesEveryConvLayer) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    const std::size_t float_bytes = net.weight_bytes();
    net.set_precision(Precision::kInt8, self_calibrate(net));
    EXPECT_EQ(net.precision(), Precision::kInt8);
    const auto convs = conv_layers(net);
    EXPECT_EQ(convs.size(), 9u);  // DroNet's 9 convolutions
    double error = 0;
    for (const ConvolutionalLayer* conv : convs) {
        EXPECT_EQ(conv->precision(), Precision::kInt8);
        error += mean_weight_error(*conv);
    }
    EXPECT_LT(net.weight_bytes(), float_bytes / 2);
    EXPECT_GT(error, 0.0);  // forward-free diagnostic
}

TEST(Int8Precision, SmallWeightQuantizationError) {
    Network net = int8_dronet64();
    for (const ConvolutionalLayer* conv : conv_layers(net)) {
        // Mean |error| bounded by half an LSB of the per-channel scale range.
        float max_scale = 0;
        for (float s : conv->int8().scales) max_scale = std::max(max_scale, s);
        EXPECT_LE(mean_weight_error(*conv), max_scale);
    }
}

TEST(Int8Precision, CalibrationLayerCountMismatchThrows) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    Int8Calibration short_calib;
    short_calib.max_abs.assign(3, 1.0f);  // DroNet has 9 convs
    EXPECT_THROW(net.set_precision(Precision::kInt8, short_calib), std::invalid_argument);
    Int8Calibration long_calib;
    long_calib.max_abs.assign(12, 1.0f);
    EXPECT_THROW(net.set_precision(Precision::kInt8, long_calib), std::invalid_argument);
    EXPECT_EQ(net.precision(), Precision::kF32);  // a rejected calibration changes nothing
}

TEST(Int8Precision, CalibrationNeedsAnFp32Network) {
    Network net = int8_dronet64();
    EXPECT_THROW((void)self_calibrate(net), std::logic_error);
    net.set_precision(Precision::kF16);
    Tensor in(net.input_shape());
    EXPECT_THROW((void)calibrate(net, std::span(&in, 1)), std::logic_error);
}

TEST(Int8Precision, BatchedForwardBitEqualsBatchOnePerItem) {
    // PR 4's batched serving contract, extended to int8: static calibrated
    // scales + integer accumulation make every batch item bit-identical to
    // its batch-1 forward.
    Network net = int8_dronet64();

    constexpr int kBatch = 3;
    std::vector<Tensor> singles;
    std::vector<Tensor> expected;
    Rng rng(0xBA7C);
    for (int b = 0; b < kBatch; ++b) {
        Tensor in(net.input_shape());
        rng.fill_uniform(in.span(), 0.0f, 1.0f);
        expected.push_back(net.forward(in));  // copy of the batch-1 output
        singles.push_back(std::move(in));
    }

    net.set_batch(kBatch);
    Tensor batch(net.input_shape());
    const std::int64_t in_chw = singles[0].size();
    for (int b = 0; b < kBatch; ++b) {
        std::memcpy(batch.data() + b * in_chw, singles[static_cast<std::size_t>(b)].data(),
                    static_cast<std::size_t>(in_chw) * sizeof(float));
    }
    const Tensor& out = net.forward(batch);
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
    EXPECT_THROW((void)net.forward(singles[0]), std::invalid_argument);
    net.set_batch(1);
    EXPECT_NO_THROW((void)net.forward(singles[0]));
}

TEST(Int8Precision, FollowsDegradedResize) {
    // The serving degrade path shrinks the live input; the int8 conv follows
    // the layer's geometry. fan_in is resize-invariant, so no re-quantization
    // happens on the way.
    Network net = int8_dronet64();
    const std::byte* workspace = net.workspace();
    net.resize_input(32, 32);
    Tensor small(net.input_shape());
    Rng rng(5);
    rng.fill_uniform(small.span(), 0.0f, 1.0f);
    EXPECT_NO_THROW((void)net.forward(small));
    EXPECT_EQ(net.region()->decode(0).size(), 5u * 2 * 2);  // 5 anchors on the 2x2 grid
    EXPECT_EQ(net.workspace(), workspace);  // smaller geometry reuses scratch
    net.resize_input(64, 64);
    Tensor full(net.input_shape());
    rng.fill_uniform(full.span(), 0.0f, 1.0f);
    EXPECT_NO_THROW((void)net.forward(full));
    EXPECT_EQ(net.region()->decode(0).size(), 5u * 4 * 4);
}

TEST(Int8Precision, ForwardIsAllocationFree) {
    // The workspace is sized, grow-only, when the precision or geometry
    // changes: forwards at the set-up geometry, any batch size, and smaller
    // degraded inputs must never move it. Growing the input is the one
    // legitimate grow.
    Network net = int8_dronet64();
    const std::byte* workspace = net.workspace();

    Rng rng(17);
    Tensor in(net.input_shape());
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    net.forward(in);
    EXPECT_EQ(net.workspace(), workspace);

    net.set_batch(4);  // per-item scratch: batch size never grows it
    Tensor batch(net.input_shape());
    rng.fill_uniform(batch.span(), 0.0f, 1.0f);
    net.forward(batch);
    EXPECT_EQ(net.workspace(), workspace);

    net.set_batch(1);
    net.resize_input(32, 32);
    Tensor small(net.input_shape());
    rng.fill_uniform(small.span(), 0.0f, 1.0f);
    net.forward(small);
    EXPECT_EQ(net.workspace(), workspace);

    net.resize_input(128, 128);  // larger than set-up: must grow
    Tensor big(net.input_shape());
    rng.fill_uniform(big.span(), 0.0f, 1.0f);
    net.forward(big);
    EXPECT_NE(net.workspace(), workspace);

    // The int8 input scratch is sized too. A 1x1 conv on a wide input
    // quantizes more bytes than its accumulators hold and lowers nothing, so
    // here the quantized input is the largest slot.
    NetConfig nc;
    nc.channels = 32;
    nc.height = 16;
    nc.width = 16;
    nc.batch = 1;
    Network wide(nc);
    wide.add_conv({.filters = 2, .ksize = 1, .stride = 1, .pad = 0});
    wide.set_precision(Precision::kInt8, self_calibrate(wide));
    EXPECT_GE(wide.layer(0).workspace_bytes(),
              static_cast<std::size_t>(wide.input_shape().chw()));
    const std::byte* wide_workspace = wide.workspace();
    Tensor wide_in(wide.input_shape());
    rng.fill_uniform(wide_in.span(), 0.0f, 1.0f);
    wide.forward(wide_in);
    EXPECT_EQ(wide.workspace(), wide_workspace);
    wide.set_batch(4);
    Tensor wide_batch(wide.input_shape());
    rng.fill_uniform(wide_batch.span(), 0.0f, 1.0f);
    wide.forward(wide_batch);
    EXPECT_EQ(wide.workspace(), wide_workspace);
    wide.set_batch(1);
    wide.resize_input(8, 8);
    Tensor wide_small(wide.input_shape());
    rng.fill_uniform(wide_small.span(), 0.0f, 1.0f);
    wide.forward(wide_small);
    EXPECT_EQ(wide.workspace(), wide_workspace);
    wide.resize_input(24, 24);
    Tensor wide_big(wide.input_shape());
    rng.fill_uniform(wide_big.span(), 0.0f, 1.0f);
    wide.forward(wide_big);
    EXPECT_NE(wide.workspace(), wide_workspace);
}

TEST(Int8Precision, CloneCarriesPrecisionAndCalibration) {
    Network net = int8_dronet64();
    Network copy = clone_network(net);
    EXPECT_EQ(copy.precision(), Precision::kInt8);
    EXPECT_EQ(copy.calibration().max_abs, net.calibration().max_abs);
    Tensor in(net.input_shape());
    Rng rng(0xC10);
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    const Tensor& want = net.forward(in);
    const Tensor& got = copy.forward(in);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             static_cast<std::size_t>(want.size()) * sizeof(float)));
}

// ---- the one forward loop: profiler, numerics guards -------------------------

TEST(Int8Precision, ProfilerCountsEveryForward) {
    Network net = int8_dronet64();
    Tensor in(net.input_shape());
    Rng rng(0x9F);
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    constexpr std::uint64_t kForwards = 3;
    profile::set_profiling(true);
    if (net.profiler() != nullptr) net.profiler()->reset();
    for (std::uint64_t i = 0; i < kForwards; ++i) net.forward(in);
    profile::set_profiling(false);
    ASSERT_NE(net.profiler(), nullptr);
    EXPECT_EQ(net.profiler()->forwards(), kForwards);
    const std::vector<profile::LayerStat> layers = net.profiler()->layers();
    ASSERT_EQ(layers.size(), net.num_layers());
    for (const profile::LayerStat& layer : layers) {
        EXPECT_EQ(layer.calls, kForwards) << "layer " << layer.index;
    }
}

TEST(Int8Precision, NumericsGuardNamesPoisonedConv) {
    Network net = int8_dronet64();
    auto& conv = dynamic_cast<ConvolutionalLayer&>(net.layer(3));  // DroNet's third conv
    conv.biases().v[0] = std::numeric_limits<float>::quiet_NaN();
    Tensor in(net.input_shape());
    Rng rng(0xBAD);
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    set_numerics_checks(true);
    try {
        net.forward(in);
        ADD_FAILURE() << "a NaN bias passed the numerics guard";
    } catch (const NumericsError& e) {
        EXPECT_NE(std::string(e.what()).find("forward layer 3 (conv"), std::string::npos)
            << e.what();
    }
    set_numerics_checks(false);
}

// ---- exactness of quantize-then-lower ---------------------------------------

/// One int8 conv layer in the order that lowers floats first, built from the
/// scalar reference pieces: float im2col, quantize_value on every col
/// element, gemm_i8, then activate(float(acc) * requant + bias) element by
/// element. Returns the outputs of every batch item of `input`, concatenated.
std::vector<float> reference_conv(const ConvolutionalLayer& conv, const Tensor& input) {
    const ConvConfig& config = conv.config();
    const Int8Weights& q = conv.int8();
    const Shape& s = input.shape();
    const ConvGeometry geo{s.c, s.h, s.w, config.ksize, config.stride, config.pad};
    const int rows = geo.col_rows();
    const int cols = geo.col_cols();
    const int filters = config.filters;
    std::vector<float> col(static_cast<std::size_t>(rows) * cols);
    std::vector<std::int8_t> col_q(col.size());
    std::vector<std::int32_t> acc(static_cast<std::size_t>(filters) * cols);
    std::vector<float> out;
    for (int b = 0; b < s.n; ++b) {
        im2col(input.data() + b * s.chw(), geo, col.data());
        for (std::size_t i = 0; i < col.size(); ++i) {
            col_q[i] = quantize_value(col[i], q.input_scale);
        }
        gemm_i8(filters, cols, rows, q.weights.data(), rows, col_q.data(), cols, acc.data(),
                cols);
        for (int f = 0; f < filters; ++f) {
            const auto fi = static_cast<std::size_t>(f);
            for (int j = 0; j < cols; ++j) {
                const float x = static_cast<float>(acc[fi * static_cast<std::size_t>(cols) +
                                                       static_cast<std::size_t>(j)]) *
                                    q.requant[fi] +
                                conv.biases().v[fi];
                out.push_back(activate(config.activation, x));
            }
        }
    }
    return out;
}

/// Runs net.forward(input) under each SIMD level the host has, and memcmps
/// every conv layer's output against reference_conv over that layer's own
/// input.
void expect_convs_match_reference(Network& net, const Tensor& input, const std::string& what) {
    std::vector<simd::SimdLevel> levels = {simd::SimdLevel::kScalar};
    if (simd::cpu_supports_avx2()) levels.push_back(simd::SimdLevel::kAvx2);
    for (const simd::SimdLevel level : levels) {
        const simd::ScopedSimdLevel pin(level);
        net.forward(input);
        for (std::size_t i = 0; i < net.num_layers(); ++i) {
            const auto* conv =
                dynamic_cast<const ConvolutionalLayer*>(&net.layer(static_cast<int>(i)));
            if (conv == nullptr) continue;
            const Tensor& in = i == 0 ? input : net.layer(static_cast<int>(i) - 1).output();
            const Tensor& got = conv->output();
            const std::vector<float> want = reference_conv(*conv, in);
            ASSERT_EQ(static_cast<std::size_t>(got.size()), want.size());
            EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(float)))
                << what << ", " << simd::to_string(level) << ", conv layer " << i;
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
    net->set_precision(Precision::kInt8, self_calibrate(*net));
    for (const int batch : {1, 4}) {
        net->set_batch(batch);
        expect_convs_match_reference(*net, scene_batch(*net, 0xD20),
                                     "DroNet@224 batch " + std::to_string(batch));
    }
}

TEST(QuantizedExactness, TinyYoloNetMatchesFloatLowering) {
    Network net = build_model(ModelId::kTinyYoloNet, {.input_size = 96, .filter_scale = 0.25f});
    net.set_precision(Precision::kInt8, self_calibrate(net));
    for (const int batch : {1, 4}) {
        net.set_batch(batch);
        expect_convs_match_reference(net, scene_batch(net, 0x7E1),
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
        net.set_precision(Precision::kInt8, calibrate(net, std::span(&calib, 1)));
        for (const int batch : {1, 4}) {
            net.set_batch(batch);
            Tensor in(net.input_shape());
            rng.fill_uniform(in.span(), -1.5f, 1.5f);
            expect_convs_match_reference(net, in,
                                         "3x3/2 pad " + std::to_string(pad) + " batch " +
                                             std::to_string(batch));
        }
    }
}

TEST(Int8Precision, PerLayerConvToleranceAtDroNetStageShapes) {
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

        const Int8Calibration calib = calibrate(net, std::span(&in, 1));
        const Tensor f_out = net.forward(in, /*train=*/false);
        net.set_precision(Precision::kInt8, calib);
        const Tensor& q_out = net.forward(in);
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
    for (ConvolutionalLayer* conv : conv_layers(net)) {
        std::fill(conv->weights().v.begin(), conv->weights().v.end(), 0.0f);
        std::fill(conv->biases().v.begin(), conv->biases().v.end(), 0.0f);
    }
}

TEST(Int8Precision, AllZeroWeightsSurviveCalibration) {
    // Fuzz: every conv input downstream of layer 0 is all-zero, so every
    // calibrated range is empty. The zero-range fallback (scale 1.0) must
    // keep set-up and inference finite instead of dividing by zero.
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    zero_conv_params(net);
    net.set_precision(Precision::kInt8, self_calibrate(net));
    for (const ConvolutionalLayer* conv : conv_layers(net)) {
        for (float s : conv->int8().scales) EXPECT_FLOAT_EQ(s, 1.0f);
        EXPECT_TRUE(std::isfinite(conv->int8().input_scale));
        EXPECT_GT(conv->int8().input_scale, 0.0f);
    }
    Tensor in(net.input_shape());
    Rng rng(23);
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    const Tensor& out = net.forward(in);
    for (std::int64_t i = 0; i < out.size(); ++i) {
        ASSERT_TRUE(std::isfinite(out.data()[i])) << "element " << i;
    }
}

TEST(Int8Precision, SingleHotChannelWeightsSurviveCalibration) {
    // Fuzz: one filter dominates the dynamic range of every downstream layer
    // (the worst case for per-tensor activation scales). Inference must stay
    // finite and track the float network.
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    zero_conv_params(net);
    ConvolutionalLayer* first = conv_layers(net).front();
    const int fan_in = static_cast<int>(first->weights().size()) / first->config().filters;
    for (int p = 0; p < fan_in; ++p) first->weights().v[static_cast<std::size_t>(p)] = 10.0f;

    const Int8Calibration calib = self_calibrate(net);  // folds BN in the float net
    Tensor in(net.input_shape());
    Rng rng(29);
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    const Tensor f_out = net.forward(in, /*train=*/false);
    net.set_precision(Precision::kInt8, calib);
    const Tensor& q_out = net.forward(in);
    double err = 0, norm = 0;
    for (std::int64_t i = 0; i < f_out.size(); ++i) {
        ASSERT_TRUE(std::isfinite(q_out.data()[i])) << "element " << i;
        err += std::fabs(q_out.data()[i] - f_out.data()[i]);
        norm += std::fabs(f_out.data()[i]);
    }
    EXPECT_LT(err / std::max(norm, 1.0), 0.08);
}

class Int8Agreement : public ::testing::TestWithParam<ModelId> {};

TEST_P(Int8Agreement, CloseToFloatNetwork) {
    Network net = build_model(GetParam(), {.input_size = 64, .filter_scale = 0.25f});
    Tensor in(net.input_shape());
    Rng rng(9);
    rng.fill_uniform(in.span(), 0.0f, 1.0f);

    const Int8Calibration calib = self_calibrate(net);  // folds BN in the float net
    net.forward(in, /*train=*/false);
    const Tensor fout = net.region()->output();
    net.set_precision(Precision::kInt8, calib);
    const Tensor& qout = net.forward(in);

    ASSERT_EQ(qout.shape(), fout.shape());
    // Relative agreement: int8 inference stays close to float.
    double err = 0, norm = 0;
    for (std::int64_t i = 0; i < fout.size(); ++i) {
        err += std::fabs(qout[i] - fout[i]);
        norm += std::fabs(fout[i]);
    }
    EXPECT_LT(err / std::max(norm, 1.0), 0.08) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Models, Int8Agreement,
                         ::testing::Values(ModelId::kDroNet, ModelId::kSmallYoloV3),
                         [](const ::testing::TestParamInfo<ModelId>& info) {
                             return to_string(info.param);
                         });

TEST(Int8Precision, DecodeProducesSameGridOfDetections) {
    Network net = int8_dronet64();
    Tensor in(net.input_shape());
    Rng rng(11);
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    net.forward(in);
    EXPECT_EQ(net.region()->decode(0).size(), 5u * 4 * 4);  // 5 anchors on the 4x4 grid
}

// ---- the benchmark's entry point --------------------------------------------

TEST(QuantizedNetwork, BenchmarkHandleIsSetPrecision) {
    // The repository benchmark still constructs QuantizedNetwork and passes
    // it to detect_image_timed; both must stay exactly the one int8 path.
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    Network other = clone_network(net);
    const Int8Calibration calib = self_calibrate(net);
    QuantizedNetwork q(net, calib);
    EXPECT_EQ(&q.source(), &net);
    Tensor in(net.input_shape());
    Rng rng(0xB3);
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    const Tensor want = q.forward(in);
    other.set_precision(Precision::kInt8, calib);
    const Tensor& got = other.forward(in);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             static_cast<std::size_t>(want.size()) * sizeof(float)));

    const DetectionDataset frames = generate_dataset(benchmark_scene_config(64), 1, 0xB4);
    EXPECT_THROW((void)detect_image_timed(other, frames.image(0), {}, nullptr, &q),
                 std::invalid_argument);
    EXPECT_NO_THROW((void)detect_image_timed(net, frames.image(0), {}, nullptr, &q));
}

// ---- int8 serving tier ------------------------------------------------------

TEST(Int8Service, RejectsNonFp32Prototype) {
    // The prototype is the reload source and canary baseline: replicas take
    // their precision from ServiceConfig::precision instead.
    Network fp16 = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    fp16.set_precision(Precision::kF16);
    serve::ServiceConfig sc;
    sc.precision = Precision::kInt8;
    EXPECT_THROW((DetectionService{fp16, sc}), std::invalid_argument);
    sc.precision = Precision::kF16;
    EXPECT_THROW((DetectionService{fp16, sc}), std::invalid_argument);
    const Network int8 = int8_dronet64();
    EXPECT_THROW((DetectionService{int8, sc}), std::invalid_argument);
}

void expect_same_detections(const Detections& got, const Detections& want,
                            const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t d = 0; d < want.size(); ++d) {
        EXPECT_EQ(got[d].box.x, want[d].box.x) << what;
        EXPECT_EQ(got[d].box.y, want[d].box.y) << what;
        EXPECT_EQ(got[d].box.w, want[d].box.w) << what;
        EXPECT_EQ(got[d].box.h, want[d].box.h) << what;
        EXPECT_EQ(got[d].objectness, want[d].objectness) << what;
        EXPECT_EQ(got[d].class_id, want[d].class_id) << what;
    }
}

TEST(Int8Service, MicroBatchedInt8IsDeterministicAcrossReplicas) {
    // The same frame submitted many times through 2 int8 replicas with
    // micro-batching must resolve bit-identically everywhere: replicas share
    // one calibration, and the int8 forward is bit-stable per item at any
    // batch size.
    Network net = build_model(ModelId::kDroNet, {.input_size = 128, .filter_scale = 0.5f});
    serve::ServiceConfig sc;
    sc.workers = 2;
    sc.queue_capacity = 16;
    sc.max_batch = 4;
    sc.precision = Precision::kInt8;
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
        expect_same_detections(r.frame.detections, want, "frame " + std::to_string(i));
    }
    EXPECT_FALSE(want.empty()) << "determinism test is vacuous: no detections";
}

TEST(Int8Service, DetectionsIndependentOfMaxBatch) {
    // Regression: replica 0 used to self-calibrate after set_batch(max_batch),
    // and the seeded-noise sample filled the whole batch, so the calibrated
    // ranges (and every frame's detections) changed with max_batch.
    Network net = build_model(ModelId::kDroNet, {.input_size = 128, .filter_scale = 0.5f});
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.queue_capacity = 16;
    sc.precision = Precision::kInt8;
    sc.pipeline.eval.score_threshold = 5e-4f;  // random weights: non-vacuous

    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(128), 4, /*seed=*/0x3a7);
    Network reference = clone_network(net);
    reference.set_precision(Precision::kInt8, self_calibrate(reference));
    std::vector<Detections> want;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        want.push_back(detect_image(reference, frames.image(i), sc.pipeline.eval));
        ASSERT_FALSE(want.back().empty()) << "vacuous: frame " << i << " has no detections";
    }
    for (const int max_batch : {1, 4}) {
        sc.max_batch = max_batch;
        DetectionService service(net, sc);
        std::vector<std::future<ServeResult>> futures;
        for (std::size_t i = 0; i < frames.size(); ++i) {
            futures.push_back(service.submit(frames.image(i)));
        }
        service.drain();
        for (std::size_t i = 0; i < frames.size(); ++i) {
            const ServeResult r = futures[i].get();
            ASSERT_EQ(r.status, ServeStatus::kOk);
            expect_same_detections(r.frame.detections, want[i],
                                   "max_batch " + std::to_string(max_batch) + ", frame " +
                                       std::to_string(i));
        }
    }
}

TEST(Int8Service, ForwardFaultIsRetriedToSuccess) {
    // int8 forwards now pass the network.forward fault site. The plan fails
    // the batch attempt and the first solo attempt; the one retry succeeds.
    if (!fault::compiled_in()) GTEST_SKIP() << "DRONET_FAULTS is off";
    Network net = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.max_retries = 1;
    sc.retry_backoff_ms = 1;
    sc.precision = Precision::kInt8;
    DetectionService service(net, sc);
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(96), 3, /*seed=*/7);
    {
        fault::ScopedFaultPlan plan("network.forward:throw:every=1:times=2");
        std::vector<std::future<ServeResult>> futures;
        for (std::size_t i = 0; i < frames.size(); ++i) {
            futures.push_back(service.submit(frames.image(i)));
        }
        for (auto& f : futures) EXPECT_EQ(f.get().status, ServeStatus::kOk);
    }
    const serve::ServeStatsSnapshot snap = service.stats();
    EXPECT_EQ(snap.completed, frames.size());
    EXPECT_EQ(snap.failed, 0u);
    EXPECT_EQ(snap.retries, 1u);
}

TEST(Int8Service, Int8ServesThroughDegradeCycle) {
    // int8 + graceful degradation: the workspace was sized at the full
    // geometry, so serving at the degraded size (and recovering) must work
    // and resolve every frame.
    Network net = build_model(ModelId::kDroNet, {.input_size = 128, .filter_scale = 0.25f});
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.queue_capacity = 32;
    sc.max_batch = 2;
    sc.precision = Precision::kInt8;
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

TEST(Int8Precision, CheckpointMetricsCloseToFp32) {
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
    net->set_precision(Precision::kInt8, calibrate_int8(*net, calib_frames, {}));
    const DetectionMetrics int8 = evaluate_detector(*net, test_set, {});

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
