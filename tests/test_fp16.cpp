// FP16 storage mode accuracy gates (docs/vectorization.md): half weight +
// activation storage is tolerance-gated, never assumed bit-exact. Layer
// outputs must stay within a max-abs-error bound of the fp32 forward, and on
// the shipped checkpoint the detection metrics must stay within a small
// delta of the fp32 evaluation (skipped on a fresh clone without weights/,
// matching test_pretrained_checkpoints).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "data/dataset.hpp"
#include "eval/evaluator.hpp"
#include "models/model_zoo.hpp"
#include "models/pretrained.hpp"
#include "nn/clone.hpp"
#include "nn/network.hpp"
#include "tensor/rng.hpp"

namespace dronet {
namespace {

TEST(Fp16Mode, LayerOutputsWithinTolerance) {
    // Random-weight DroNet at a small input: compare every layer's output
    // between the fp32 net and an fp16 clone. Activations are magnitude ~1,
    // so the half storage error per value is ~2^-11 with mild growth through
    // the stack.
    Network fp32 = build_model(ModelId::kDroNet, {.input_size = 128});
    Network fp16 = clone_network(fp32);
    fp32.set_batch(1);
    fp16.set_batch(1);
    fp16.set_precision(Precision::kF16);

    Tensor input(fp32.input_shape());
    Rng rng(0xF16);
    rng.fill_uniform(input.span(), 0.0f, 1.0f);
    fp32.forward(input);
    fp16.forward(input);

    for (std::size_t i = 0; i < fp32.num_layers(); ++i) {
        const Tensor& a = fp32.layer(static_cast<int>(i)).output();
        const Tensor& b = fp16.layer(static_cast<int>(i)).output();
        ASSERT_EQ(a.size(), b.size()) << "layer " << i;
        float max_abs = 0.0f;
        for (std::size_t j = 0; j < a.size(); ++j) {
            max_abs = std::max(max_abs, std::fabs(a[j] - b[j]));
        }
        // Generous ceiling: per-layer quantization is ~5e-3 for unit-scale
        // activations; catch real breakage (wrong kernel, stale halves), not
        // rounding noise.
        EXPECT_LT(max_abs, 0.05f) << "layer " << i << " ("
                                  << fp32.layer(static_cast<int>(i)).describe()
                                  << ")";
    }
}

TEST(Fp16Mode, TrainingThrows) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 64});
    net.set_batch(1);
    net.set_precision(Precision::kF16);
    Tensor input(net.input_shape());
    EXPECT_THROW(net.forward(input, /*train=*/true), std::logic_error);
    // Switching back to fp32 restores trainability.
    net.set_precision(Precision::kF32);
    EXPECT_NO_THROW(net.forward(input, /*train=*/true));
}

TEST(Fp16Mode, CloneCarriesFp16) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 64});
    net.set_precision(Precision::kF16);
    const Network copy = clone_network(net);
    EXPECT_EQ(copy.precision(), Precision::kF16);
}

TEST(Fp16Mode, CheckpointMetricsCloseToFp32) {
    auto net = load_pretrained(ModelId::kDroNet);
    if (!net) GTEST_SKIP() << "no DroNet checkpoint in weights/";
    const DetectionDataset test_set = benchmark_test_set(16);
    net->set_batch(1);
    net->resize_input(224, 224);
    const DetectionMetrics fp32 = evaluate_detector(*net, test_set, {});
    net->set_precision(Precision::kF16);
    const DetectionMetrics fp16 = evaluate_detector(*net, test_set, {});
    // Half storage may move individual scores across thresholds but must not
    // change the operating point materially.
    EXPECT_NEAR(fp16.sensitivity(), fp32.sensitivity(), 0.05f);
    EXPECT_NEAR(fp16.precision(), fp32.precision(), 0.05f);
    EXPECT_NEAR(fp16.avg_iou(), fp32.avg_iou(), 0.05f);
    // And it must still clear the same conservative floors the fp32
    // checkpoint test pins.
    EXPECT_GE(fp16.sensitivity(), 0.75f);
    EXPECT_GE(fp16.precision(), 0.75f);
    EXPECT_GE(fp16.avg_iou(), 0.6f);
}

}  // namespace
}  // namespace dronet
