// Model zoo: the four paper architectures satisfy the paper's structural
// constraints (9 conv layers, 4-6 maxpools), their compute/parameter
// ordering matches §IV.A, and every model builds at every paper input size.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "models/model_zoo.hpp"
#include "models/pretrained.hpp"
#include "nn/weights_io.hpp"

namespace dronet {
namespace {

std::map<LayerKind, int> layer_histogram(const Network& net) {
    std::map<LayerKind, int> hist;
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
        ++hist[net.layer(static_cast<int>(i)).kind()];
    }
    return hist;
}

TEST(ModelZoo, NamesRoundTrip) {
    for (ModelId id : all_models()) {
        EXPECT_EQ(model_from_string(to_string(id)), id);
    }
    EXPECT_THROW(static_cast<void>(model_from_string("YOLOv7")),
                 std::invalid_argument);
}

TEST(ModelZoo, FourModels) {
    EXPECT_EQ(all_models().size(), 4u);
}

class ModelStructure : public ::testing::TestWithParam<ModelId> {};

// Paper §III.C.1: "In total there are 9 convolutional layers in the models
// shown in Fig. 1, with the max-pooling layers ranging between 4-6."
TEST_P(ModelStructure, PaperLayerCounts) {
    Network net = build_model(GetParam(), {.input_size = 416});
    const auto hist = layer_histogram(net);
    EXPECT_EQ(hist.at(LayerKind::kConvolutional), 9) << to_string(GetParam());
    EXPECT_GE(hist.at(LayerKind::kMaxPool), 4);
    EXPECT_LE(hist.at(LayerKind::kMaxPool), 6);
    EXPECT_EQ(hist.at(LayerKind::kRegion), 1);
}

TEST_P(ModelStructure, BuildsAtEveryPaperInputSize) {
    for (int size : {352, 416, 480, 544, 608}) {
        // Paper sizes are multiples of 32 (hence of DroNet's 16 too).
        Network net = build_model(GetParam(), {.input_size = size});
        Tensor in(net.input_shape());
        const Tensor& out = net.forward(in);
        EXPECT_EQ(out.shape().w, size / model_stride(GetParam()));
    }
}

TEST_P(ModelStructure, GridStrideMatches) {
    Network net = build_model(GetParam(), {.input_size = 416});
    EXPECT_EQ(net.region()->grid_w(), 416 / model_stride(GetParam()));
}

TEST_P(ModelStructure, MultiClassHeadSizing) {
    Network net = build_model(GetParam(), {.input_size = 416, .classes = 3});
    EXPECT_EQ(net.region()->config().classes, 3);
    // Head channels = num*(5+classes).
    const int expected = net.region()->config().num * (5 + 3);
    EXPECT_EQ(net.region()->input_shape().c, expected);
}

TEST_P(ModelStructure, FilterScaleShrinksParams) {
    Network full = build_model(GetParam(), {.input_size = 416});
    Network half = build_model(GetParam(), {.input_size = 416, .filter_scale = 0.5f});
    EXPECT_LT(half.total_params(), full.total_params());
    EXPECT_LT(half.total_flops(), full.total_flops());
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelStructure,
                         ::testing::ValuesIn(all_models()),
                         [](const ::testing::TestParamInfo<ModelId>& info) {
                             return to_string(info.param);
                         });

TEST(ModelZoo, RejectsIndivisibleInputSize) {
    EXPECT_THROW(build_model(ModelId::kTinyYoloVoc, {.input_size = 400}),
                 std::invalid_argument);
    // 400 divides by 16 but not 32: DroNet accepts it, the tiny family not.
    Network net = build_model(ModelId::kDroNet, {.input_size = 400});
    EXPECT_EQ(net.region()->grid_w(), 25);
}

// Paper §IV.A compute ordering: TinyYoloVoc >> TinyYoloNet > DroNet >
// SmallYoloV3 in FLOPs; DroNet has by far the fewest parameters.
TEST(ModelZoo, ComputeOrderingMatchesPaper) {
    const auto flops = [](ModelId id) {
        return build_model(id, {.input_size = 416}).total_flops();
    };
    const auto params = [](ModelId id) {
        return build_model(id, {.input_size = 416}).total_params();
    };
    EXPECT_GT(flops(ModelId::kTinyYoloVoc), 5 * flops(ModelId::kTinyYoloNet));
    EXPECT_GT(flops(ModelId::kTinyYoloNet), flops(ModelId::kDroNet));
    EXPECT_GT(flops(ModelId::kDroNet), flops(ModelId::kSmallYoloV3));
    // DroNet vs TinyYoloVoc: paper reports ~30x performance gap at equal
    // input size; the FLOP gap alone must be >= 10x.
    EXPECT_GT(flops(ModelId::kTinyYoloVoc), 10 * flops(ModelId::kDroNet));
    EXPECT_LT(params(ModelId::kDroNet), params(ModelId::kSmallYoloV3));
    EXPECT_GT(params(ModelId::kTinyYoloVoc), 100 * params(ModelId::kDroNet));
}

TEST(ModelZoo, DroNetUsesAlternating3x3And1x1) {
    // Fig. 2: DroNet is "comprised of 3x3 and 1x1 convolutional layers".
    Network net = build_model(ModelId::kDroNet, {.input_size = 416});
    int k3 = 0, k1 = 0;
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
        if (auto* conv = dynamic_cast<const ConvolutionalLayer*>(&net.layer(static_cast<int>(i)))) {
            if (conv->config().ksize == 3) ++k3;
            if (conv->config().ksize == 1) ++k1;
        }
    }
    EXPECT_EQ(k3, 4);
    EXPECT_EQ(k1, 5);
}

TEST(ModelZoo, CfgTextParsesBack) {
    for (ModelId id : all_models()) {
        const std::string cfg = model_cfg(id, {.input_size = 416});
        EXPECT_NE(cfg.find("[net]"), std::string::npos);
        EXPECT_NE(cfg.find("[region]"), std::string::npos);
    }
}

TEST(Pretrained, MetaRoundTrip) {
    const auto path = std::filesystem::temp_directory_path() / "dronet_test.meta";
    write_meta(PretrainedMeta{0.4f, 2, 192}, path);
    const PretrainedMeta meta = read_meta(path);
    EXPECT_FLOAT_EQ(meta.filter_scale, 0.4f);
    EXPECT_EQ(meta.classes, 2);
    EXPECT_EQ(meta.input_size, 192);
    std::filesystem::remove(path);
}

TEST(Pretrained, ModelOptionsFromMeta) {
    const PretrainedMeta meta{0.6f, 3, 192};
    const ModelOptions trained = model_options(meta);
    EXPECT_FLOAT_EQ(trained.filter_scale, 0.6f);
    EXPECT_EQ(trained.classes, 3);
    EXPECT_EQ(trained.input_size, 192);
    EXPECT_EQ(model_options(meta, 224).input_size, 224);
}

TEST(Pretrained, LoadRoundTripThroughWeightsDir) {
    const auto dir = std::filesystem::temp_directory_path() / "dronet_test_weights";
    std::filesystem::create_directories(dir);
    Network net = build_model(ModelId::kSmallYoloV3,
                              {.input_size = 96, .filter_scale = 0.25f});
    save_weights(net, dir / "SmallYoloV3.weights");
    write_meta(PretrainedMeta{0.25f, 1, 96}, dir / "SmallYoloV3.meta");
    setenv("DRONET_WEIGHTS_DIR", dir.c_str(), 1);
    auto loaded = load_pretrained(ModelId::kSmallYoloV3);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->config().width, 96);
    EXPECT_EQ(loaded->total_params(), net.total_params());
    // Missing model -> nullopt.
    EXPECT_FALSE(load_pretrained(ModelId::kTinyYoloVoc).has_value());
    unsetenv("DRONET_WEIGHTS_DIR");
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dronet
