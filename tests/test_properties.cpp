// Cross-module property tests: invariants that hold across the whole
// parameter space rather than at single points.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "detect/nms.hpp"
#include "eval/score.hpp"
#include "models/model_zoo.hpp"
#include "nn/cfg.hpp"
#include "platform/platform_model.hpp"
#include "simd/dispatch.hpp"
#include "tensor/gemm.hpp"
#include "tensor/rng.hpp"

namespace dronet {
namespace {

// --- NMS idempotence: applying NMS twice changes nothing. -------------------
class NmsIdempotence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NmsIdempotence, SecondPassIsIdentity) {
    Rng rng(GetParam());
    Detections dets;
    for (int i = 0; i < 40; ++i) {
        Detection d;
        d.box = {rng.uniform(0.2f, 0.8f), rng.uniform(0.2f, 0.8f),
                 rng.uniform(0.05f, 0.3f), rng.uniform(0.05f, 0.3f)};
        d.objectness = rng.uniform(0.01f, 1.0f);
        d.class_prob = 1.0f;
        dets.push_back(d);
    }
    const Detections once = nms(dets, 0.45f);
    const Detections twice = nms(once, 0.45f);
    ASSERT_EQ(once.size(), twice.size());
    for (std::size_t i = 0; i < once.size(); ++i) {
        EXPECT_FLOAT_EQ(once[i].objectness, twice[i].objectness);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NmsIdempotence, ::testing::Values(1u, 7u, 13u, 29u));

// --- FLOPs scale ~quadratically with input size (fully convolutional). ------
class FlopsScaling : public ::testing::TestWithParam<ModelId> {};

TEST_P(FlopsScaling, QuadraticInInputSize) {
    const std::int64_t f352 =
        build_model(GetParam(), {.input_size = 352}).total_flops();
    const std::int64_t f608 =
        build_model(GetParam(), {.input_size = 608}).total_flops();
    const double expected = (608.0 * 608.0) / (352.0 * 352.0);
    const double actual = static_cast<double>(f608) / static_cast<double>(f352);
    EXPECT_NEAR(actual, expected, 0.05 * expected);
}

TEST_P(FlopsScaling, ParamsIndependentOfInputSize) {
    EXPECT_EQ(build_model(GetParam(), {.input_size = 352}).total_params(),
              build_model(GetParam(), {.input_size = 608}).total_params());
}

// Resizing a built network reaches exactly the state of building at the
// target size (geometry-wise).
TEST_P(FlopsScaling, ResizeEquivalentToRebuild) {
    Network resized = build_model(GetParam(), {.input_size = 352});
    resized.resize_input(608, 608);
    Network rebuilt = build_model(GetParam(), {.input_size = 608});
    ASSERT_EQ(resized.num_layers(), rebuilt.num_layers());
    for (std::size_t i = 0; i < resized.num_layers(); ++i) {
        EXPECT_EQ(resized.layer(static_cast<int>(i)).output_shape(),
                  rebuilt.layer(static_cast<int>(i)).output_shape());
    }
    EXPECT_EQ(resized.total_flops(), rebuilt.total_flops());
}

INSTANTIATE_TEST_SUITE_P(AllModels, FlopsScaling, ::testing::ValuesIn(all_models()),
                         [](const ::testing::TestParamInfo<ModelId>& info) {
                             return to_string(info.param);
                         });

// --- Forward determinism: same weights + input => identical output. ---------
TEST(Determinism, ForwardIsReproducible) {
    Network a = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    Network b = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    Tensor in(a.input_shape());
    Rng rng(3);
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    const Tensor& oa = a.forward(in);
    const Tensor& ob = b.forward(in);
    for (std::int64_t i = 0; i < oa.size(); ++i) ASSERT_EQ(oa[i], ob[i]);
}

// --- Threaded GEMM does not change network output, bit for bit. -------------
// Each C row is computed by one thread, in the same order, and a row does not
// depend on the height of its tile; the lowering writes each row once.
TEST(Determinism, GemmThreadCountDoesNotChangeResults) {
    Network net = build_model(ModelId::kSmallYoloV3,
                              {.input_size = 64, .filter_scale = 0.25f});
    Tensor in(net.input_shape());
    Rng rng(5);
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    set_gemm_threads(1);
    net.forward(in);
    const Tensor serial = net.region()->output();
    for (const int threads : {2, 3, 4}) {
        set_gemm_threads(threads);
        net.forward(in);
        const Tensor& threaded = net.region()->output();
        set_gemm_threads(1);
        ASSERT_EQ(threaded.shape(), serial.shape());
        ASSERT_EQ(std::memcmp(serial.data(), threaded.data(),
                              static_cast<std::size_t>(serial.size()) * sizeof(float)),
                  0)
            << threads << " threads, " << simd::to_string(simd::active_level());
    }
}

// --- A non-finite frame does not poison later forwards. -----------------------
// Every conv writes its output with beta == 0 over the previous frame's values;
// reading them (0 * NaN is NaN) would carry one frame's NaN or Inf into every
// later forward of the same network.
TEST(Determinism, NonFiniteFrameDoesNotPoisonLaterForwards) {
    for (const simd::SimdLevel level : {simd::SimdLevel::kScalar, simd::SimdLevel::kAvx2}) {
        const simd::ScopedSimdLevel pin(level);
        Network fresh = build_model(ModelId::kDroNet, {.input_size = 64});
        Tensor clean(fresh.input_shape());
        Rng rng(9);
        rng.fill_uniform(clean.span(), 0.0f, 1.0f);
        const Tensor expected = fresh.forward(clean);
        for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                                std::numeric_limits<float>::infinity()}) {
            Network net = build_model(ModelId::kDroNet, {.input_size = 64});
            Tensor poisoned = clean;
            poisoned[1000] = bad;
            net.forward(poisoned);
            const Tensor& out = net.forward(clean);
            ASSERT_EQ(out.shape(), expected.shape());
            ASSERT_EQ(std::memcmp(out.data(), expected.data(),
                                  static_cast<std::size_t>(out.size()) * sizeof(float)),
                      0)
                << simd::to_string(level) << ", frame before held " << bad;
        }
    }
}

// --- Platform model monotonicity. --------------------------------------------
TEST(PlatformMonotonicity, FasterPlatformNeverSlower) {
    // Scaling a platform's compute and bandwidth up must not reduce FPS.
    PlatformSpec base = raspberry_pi3();
    PlatformSpec boosted = base;
    boosted.effective_gflops *= 2;
    boosted.bandwidth_gbps *= 2;
    for (ModelId id : all_models()) {
        Network net = build_model(id, {.input_size = 416});
        EXPECT_GE(estimate_fps(net, boosted), estimate_fps(net, base));
    }
}

TEST(PlatformMonotonicity, MoreFlopsNeverFaster) {
    // Within one platform, a strictly wider model is never faster.
    const PlatformSpec p = intel_i5_2520m();
    Network narrow = build_model(ModelId::kDroNet, {.input_size = 416, .filter_scale = 0.5f});
    Network wide = build_model(ModelId::kDroNet, {.input_size = 416, .filter_scale = 2.0f});
    EXPECT_GT(estimate_fps(narrow, p), estimate_fps(wide, p));
}

// --- Score metric properties. ------------------------------------------------
TEST(ScoreProperties, MonotoneInEachMetric) {
    const ScoreInputs base{0.5f, 0.5f, 0.5f, 0.5f};
    const float s0 = composite_score(base);
    for (int metric = 0; metric < 4; ++metric) {
        ScoreInputs up = base;
        (metric == 0 ? up.fps
         : metric == 1 ? up.iou
         : metric == 2 ? up.sensitivity
                       : up.precision) += 0.1f;
        EXPECT_GT(composite_score(up), s0) << "metric " << metric;
    }
}

TEST(ScoreProperties, BoundedByUnitInputs) {
    EXPECT_FLOAT_EQ(composite_score({1, 1, 1, 1}), 1.0f);
    EXPECT_FLOAT_EQ(composite_score({0, 0, 0, 0}), 0.0f);
}

// --- Weight-scale invariance of cfg round trip across models/sizes. ---------
class CfgRoundTrip : public ::testing::TestWithParam<ModelId> {};

TEST_P(CfgRoundTrip, ZooCfgReparsesToSameStructure) {
    for (int size : {352, 608}) {
        const std::string text = model_cfg(GetParam(), {.input_size = size});
        Network net = parse_cfg(text);
        Network direct = build_model(GetParam(), {.input_size = size});
        ASSERT_EQ(net.num_layers(), direct.num_layers());
        EXPECT_EQ(net.total_params(), direct.total_params());
        EXPECT_EQ(net.total_flops(), direct.total_flops());
    }
}

INSTANTIATE_TEST_SUITE_P(AllModels, CfgRoundTrip, ::testing::ValuesIn(all_models()),
                         [](const ::testing::TestParamInfo<ModelId>& info) {
                             return to_string(info.param);
                         });

}  // namespace
}  // namespace dronet
