// Network orchestration: forward chaining, backward accumulation, resize,
// batch switching, training buffers allocated on first use, describe,
// workspace sizing and batch-norm folding.
#include <gtest/gtest.h>

#include "nn/network.hpp"
#include "tensor/rng.hpp"

namespace dronet {
namespace {

NetConfig cfg(int c, int h, int w, int batch = 1) {
    NetConfig nc;
    nc.channels = c;
    nc.height = h;
    nc.width = w;
    nc.batch = batch;
    nc.seed = 123;
    return nc;
}

Network tiny_detector(int grid_in = 16, int batch = 1) {
    Network net(cfg(3, grid_in, grid_in, batch));
    net.add_conv({.filters = 8, .ksize = 3, .stride = 1, .pad = 1,
                  .batch_normalize = true});
    net.add_maxpool({.size = 2, .stride = 2});
    net.add_conv({.filters = 8, .ksize = 3, .stride = 1, .pad = 1,
                  .batch_normalize = true});
    net.add_maxpool({.size = 2, .stride = 2});
    RegionConfig rc;
    rc.classes = 1;
    rc.num = 2;
    rc.anchors = {1.0f, 1.0f, 2.0f, 2.0f};
    net.add_conv({.filters = rc.num * (5 + rc.classes), .ksize = 1, .stride = 1,
                  .pad = 0, .activation = Activation::kLinear});
    net.add_region(rc);
    return net;
}

TEST(Network, ForwardChainsShapes) {
    Network net = tiny_detector();
    Tensor in(net.input_shape());
    const Tensor& out = net.forward(in);
    EXPECT_EQ(out.shape(), (Shape{1, 12, 4, 4}));
}

TEST(Network, ForwardRejectsEmptyNetwork) {
    Network net(cfg(3, 8, 8));
    Tensor in(net.input_shape());
    EXPECT_THROW(net.forward(in), std::logic_error);
}

TEST(Network, RegionLookup) {
    Network net = tiny_detector();
    EXPECT_NE(net.region(), nullptr);
    Network plain(cfg(3, 8, 8));
    plain.add_conv({.filters = 2, .ksize = 3, .stride = 1, .pad = 1});
    EXPECT_EQ(plain.region(), nullptr);
}

TEST(Network, TotalsArePositiveAndAdditive) {
    Network net = tiny_detector();
    std::int64_t flops = 0, params = 0;
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
        flops += net.layer(static_cast<int>(i)).flops();
        params += net.layer(static_cast<int>(i)).param_count();
    }
    EXPECT_EQ(net.total_flops(), flops);
    EXPECT_EQ(net.total_params(), params);
    EXPECT_GT(net.total_memory_bytes(), 0);
}

TEST(Network, DescribeListsEveryLayer) {
    Network net = tiny_detector();
    const std::string desc = net.describe();
    EXPECT_NE(desc.find("conv"), std::string::npos);
    EXPECT_NE(desc.find("max"), std::string::npos);
    EXPECT_NE(desc.find("region"), std::string::npos);
    EXPECT_NE(desc.find("total params"), std::string::npos);
}

TEST(Network, ResizeInputPropagates) {
    Network net = tiny_detector(16);
    net.resize_input(32, 32);
    Tensor in(net.input_shape());
    const Tensor& out = net.forward(in);
    EXPECT_EQ(out.shape(), (Shape{1, 12, 8, 8}));
    EXPECT_THROW(net.resize_input(0, 32), std::invalid_argument);
}

TEST(Network, SetBatchPropagates) {
    Network net = tiny_detector(16);
    net.set_batch(3);
    Tensor in(net.input_shape());
    EXPECT_EQ(in.shape().n, 3);
    const Tensor& out = net.forward(in);
    EXPECT_EQ(out.shape().n, 3);
    EXPECT_THROW(net.set_batch(0), std::invalid_argument);
}

TEST(Network, TrainStepReducesLossOverTime) {
    Network net = tiny_detector(16, 2);
    net.region()->set_seen(1 << 20);  // skip the anchor-prior phase
    Rng rng(5);
    Tensor in(net.input_shape());
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    std::vector<std::vector<GroundTruth>> truths = {
        {GroundTruth{{0.3f, 0.3f, 0.3f, 0.3f}, 0}},
        {GroundTruth{{0.7f, 0.6f, 0.25f, 0.35f}, 0}}};
    float first = 0, last = 0;
    for (int i = 0; i < 30; ++i) {
        const float loss = net.train_step(in, truths);
        if (i == 0) first = loss;
        last = loss;
    }
    EXPECT_LT(last, first * 0.7f);
    EXPECT_EQ(net.batch_num(), 30);
}

TEST(Network, TrainStepRequiresRegion) {
    Network net(cfg(3, 8, 8));
    net.add_conv({.filters = 2, .ksize = 3, .stride = 1, .pad = 1});
    Tensor in(net.input_shape());
    EXPECT_THROW(net.train_step(in, {}), std::logic_error);
}

TEST(Network, BackwardAccumulatesIntoEarlierLayers) {
    Network net = tiny_detector();
    net.region()->set_ground_truth({{GroundTruth{{0.5f, 0.5f, 0.3f, 0.3f}, 0}}});
    Tensor in(net.input_shape());
    Rng rng(9);
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    net.forward(in, /*train=*/true);
    net.backward();
    // The first conv layer must have received gradient.
    auto* conv = dynamic_cast<ConvolutionalLayer*>(&net.layer(0));
    ASSERT_NE(conv, nullptr);
    float grad_norm = 0;
    for (float g : conv->weights().g) grad_norm += g * g;
    EXPECT_GT(grad_norm, 0.0f);
}

// Every layer kind that trains through a delta, plus the conv batch-norm
// buffer: conv (with batch norm), maxpool, dropout, upsample, route, region.
Network delta_probe_net(int batch) {
    Network net(cfg(3, 16, 16, batch));
    net.add_conv({.filters = 8, .ksize = 3, .stride = 1, .pad = 1,
                  .batch_normalize = true});                      // 0: 16x16x8
    net.add_maxpool({.size = 2, .stride = 2});                     // 1: 8x8x8
    net.add_conv({.filters = 8, .ksize = 3, .stride = 1, .pad = 1,
                  .batch_normalize = true});                      // 2: 8x8x8
    net.add_dropout(0.25f);                                        // 3
    net.add_upsample(2);                                           // 4: 16x16x8
    net.add_route({4, 0});                                         // 5: 16x16x16
    net.add_maxpool({.size = 2, .stride = 2});                     // 6: 8x8x16
    RegionConfig rc;
    rc.classes = 1;
    rc.num = 2;
    rc.anchors = {1.0f, 1.0f, 2.0f, 2.0f};
    net.add_conv({.filters = rc.num * (5 + rc.classes), .ksize = 1, .stride = 1,
                  .pad = 0, .activation = Activation::kLinear});
    net.add_region(rc);
    return net;
}

void infer_at(Network& net, int batch, int size) {
    net.set_batch(batch);
    net.resize_input(size, size);
    Tensor in(net.input_shape());
    Rng rng(static_cast<std::uint64_t>(batch * 1000 + size));
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    (void)net.forward(in);
}

// Deltas and the batch-norm buffer are allocated by the first training pass
// and resized on the way, so inference at other batch sizes and input sizes
// (before training and between steps) must leave training bit-identical.
TEST(Network, InferenceAtOtherShapesLeavesTrainingBitIdentical) {
    Network fresh = delta_probe_net(2);
    Network toggled = delta_probe_net(2);
    Rng rng(21);
    Tensor in(fresh.input_shape());
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    const std::vector<std::vector<GroundTruth>> truths = {
        {GroundTruth{{0.3f, 0.3f, 0.3f, 0.3f}, 0}},
        {GroundTruth{{0.7f, 0.6f, 0.25f, 0.35f}, 0}}};

    infer_at(toggled, 3, 32);
    infer_at(toggled, 1, 24);
    infer_at(toggled, 2, 16);
    for (int step = 0; step < 4; ++step) {
        if (step == 2) {
            infer_at(toggled, 4, 24);
            infer_at(toggled, 2, 16);
        }
        EXPECT_EQ(fresh.train_step(in, truths), toggled.train_step(in, truths))
            << "step " << step;
    }
    ASSERT_EQ(fresh.num_layers(), toggled.num_layers());
    for (int i = 0; i < static_cast<int>(fresh.num_layers()); ++i) {
        const auto a = fresh.layer(i).params();
        const auto b = toggled.layer(i).params();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t p = 0; p < a.size(); ++p) {
            EXPECT_EQ(a[p]->v, b[p]->v) << "layer " << i << " " << a[p]->name;
            EXPECT_EQ(a[p]->g, b[p]->g) << "layer " << i << " " << a[p]->name;
            EXPECT_EQ(a[p]->m, b[p]->m) << "layer " << i << " " << a[p]->name;
        }
        const auto sa = fresh.layer(i).serialized_stats();
        const auto sb = toggled.layer(i).serialized_stats();
        ASSERT_EQ(sa.size(), sb.size());
        for (std::size_t k = 0; k < sa.size(); ++k) EXPECT_EQ(*sa[k], *sb[k]) << "layer " << i;
    }
}

TEST(Network, FoldBatchnormKeepsEvalBehaviour) {
    Network net = tiny_detector();
    Rng rng(31);
    Tensor in(net.input_shape());
    // A few training passes to move the rolling statistics.
    net.region()->set_ground_truth({{GroundTruth{{0.5f, 0.5f, 0.3f, 0.3f}, 0}}});
    for (int i = 0; i < 4; ++i) {
        rng.fill_uniform(in.span(), 0.0f, 1.0f);
        net.forward(in, /*train=*/true);
    }
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    net.forward(in, /*train=*/false);
    const Tensor before = net.region()->output();
    net.fold_batchnorm();
    net.forward(in, /*train=*/false);
    const Tensor& after = net.region()->output();
    for (std::int64_t i = 0; i < before.size(); ++i) {
        EXPECT_NEAR(before[i], after[i], 2e-3f);
    }
}

TEST(Network, CurrentLrFollowsSchedule) {
    NetConfig nc = cfg(3, 8, 8);
    nc.learning_rate = 1.0f;
    nc.burn_in = 0;
    nc.lr_steps = {{10, 0.1f}};
    Network net(nc);
    EXPECT_FLOAT_EQ(net.current_lr(), 1.0f);
    net.set_batch_num(10);
    EXPECT_FLOAT_EQ(net.current_lr(), 0.1f);
}

TEST(Network, InvalidNetConfigRejected) {
    NetConfig nc;
    nc.width = 0;
    EXPECT_THROW(Network{nc}, std::invalid_argument);
}

}  // namespace
}  // namespace dronet
