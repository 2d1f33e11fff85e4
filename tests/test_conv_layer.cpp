// Convolutional layer: geometry, im2col-GEMM forward vs the direct
// reference, the column-blocked forward vs one whole-matrix lowering (bit for
// bit), full numerical gradient checks (weights, bias, input; with and
// without batch norm), and batch-norm folding equivalence.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "nn/network.hpp"
#include "simd/dispatch.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace dronet {
namespace {

NetConfig tiny_net_config(int c, int h, int w, int batch = 1) {
    NetConfig nc;
    nc.channels = c;
    nc.height = h;
    nc.width = w;
    nc.batch = batch;
    nc.seed = 77;
    return nc;
}

void randomize_input(Tensor& t, std::uint64_t seed) {
    Rng rng(seed);
    rng.fill_uniform(t.span(), -1.0f, 1.0f);
}

double weighted_sum(const Tensor& out, const std::vector<float>& m) {
    double total = 0;
    for (std::int64_t i = 0; i < out.size(); ++i) total += static_cast<double>(out[i]) * m[static_cast<std::size_t>(i)];
    return total;
}

TEST(ConvLayer, OutputGeometry) {
    Network net(tiny_net_config(3, 16, 16));
    auto& conv = net.add_conv({.filters = 8, .ksize = 3, .stride = 1, .pad = 1});
    EXPECT_EQ(conv.output_shape(), (Shape{1, 8, 16, 16}));
    Network net2(tiny_net_config(3, 16, 16));
    auto& strided = net2.add_conv({.filters = 4, .ksize = 3, .stride = 2, .pad = 1});
    EXPECT_EQ(strided.output_shape(), (Shape{1, 4, 8, 8}));
}

TEST(ConvLayer, RejectsBadConfig) {
    Network net(tiny_net_config(3, 8, 8));
    EXPECT_THROW(net.add_conv({.filters = 0}), std::invalid_argument);
    EXPECT_THROW(net.add_conv({.filters = 4, .ksize = -1}), std::invalid_argument);
}

TEST(ConvLayer, ParamCount) {
    Network net(tiny_net_config(3, 8, 8));
    auto& conv = net.add_conv({.filters = 16, .ksize = 3, .stride = 1, .pad = 1,
                               .batch_normalize = true});
    // weights 16*3*9 + biases 16 + scales 16.
    EXPECT_EQ(conv.param_count(), 16 * 27 + 16 + 16);
}

TEST(ConvLayer, FlopsFormula) {
    Network net(tiny_net_config(3, 10, 10));
    auto& conv = net.add_conv({.filters = 4, .ksize = 3, .stride = 1, .pad = 1});
    // 2 * 100 * 4 * 27 MACs + 3 * 400 pointwise.
    EXPECT_EQ(conv.flops(), 2LL * 100 * 4 * 27 + 3LL * 400);
}

TEST(ConvLayer, GemmForwardMatchesDirect) {
    Network net(tiny_net_config(3, 9, 9));
    auto& conv = net.add_conv({.filters = 5, .ksize = 3, .stride = 2, .pad = 1,
                               .activation = Activation::kLeaky});
    Tensor in(net.input_shape());
    randomize_input(in, 5);
    net.forward(in);
    Tensor direct;
    conv.forward_direct(in, direct);
    ASSERT_EQ(direct.shape(), conv.output().shape());
    for (std::int64_t i = 0; i < direct.size(); ++i) {
        EXPECT_NEAR(direct[i], conv.output()[i], 1e-4f);
    }
}

TEST(ConvLayer, OneByOneFastPathMatchesDirect) {
    Network net(tiny_net_config(6, 7, 7));
    auto& conv = net.add_conv({.filters = 3, .ksize = 1, .stride = 1, .pad = 0,
                               .activation = Activation::kLinear});
    EXPECT_EQ(conv.workspace_bytes(), 0u);  // 1x1 path needs no im2col buffer
    Tensor in(net.input_shape());
    randomize_input(in, 6);
    net.forward(in);
    Tensor direct;
    conv.forward_direct(in, direct);
    for (std::int64_t i = 0; i < direct.size(); ++i) {
        EXPECT_NEAR(direct[i], conv.output()[i], 1e-4f);
    }
}

// The fp32 forward without column blocks: lower each batch item's whole col
// matrix with im2col, run one `gemm_fn` over it, then the layer's eval-mode
// epilogue (batch norm with the rolling statistics, bias, activation).
template <typename GemmFn>
Tensor whole_lowering_forward(ConvolutionalLayer& conv, const Tensor& in,
                              GemmFn gemm_fn) {
    const ConvConfig& cfg = conv.config();
    const Shape& is = in.shape();
    const Shape& os = conv.output_shape();
    const ConvGeometry geo{is.c, is.h, is.w, cfg.ksize, cfg.stride, cfg.pad};
    const int k = geo.col_rows();
    const int n = geo.col_cols();
    std::vector<float> col(static_cast<std::size_t>(k) * n);
    Tensor out(os);
    for (int b = 0; b < is.n; ++b) {
        im2col(in.data() + b * is.chw(), geo, col.data());
        gemm_fn(GemmArgs{false, false, cfg.filters, n, k, 1.0f, conv.weights().v.data(), k,
                         col.data(), n, 0.0f, out.data() + b * os.chw(), n});
    }
    const int spatial = static_cast<int>(os.hw());
    if (cfg.batch_normalize) {
        normalize_channels(out.span(), conv.rolling_mean(), conv.rolling_variance(), os.n,
                           os.c, spatial, 1e-5f);  // the layer's batch-norm epsilon
        scale_channels(out.span(), conv.scales().v, os.n, os.c, spatial);
    }
    add_channel_bias(out.span(), conv.biases().v, os.n, os.c, spatial);
    apply_activation(cfg.activation, out.span());
    return out;
}

struct BlockCase {
    int c, h, w;
    int ksize, stride, pad;
};

// The forward lowers and multiplies one cache-sized column block at a time.
// Its output must be the bits of one whole-matrix lowering and gemm (and, on
// the scalar level, of gemm_naive): blocks start at multiples of 16, so every
// column keeps its 16-column GEMM tile. Shapes cover n below 16, n = 16q +- 1,
// and n spanning several blocks whose edges fall inside an output row, with a
// short last block.
TEST(ConvLayer, BlockedForwardMatchesWholeLowering) {
    const BlockCase cases[] = {
        {3, 64, 64, 3, 1, 1},  // 27 x 4096: blocks of 2416, last 1680
        {3, 63, 65, 3, 1, 1},  // 27 x 4095: last block 1679, a 15-column tail
        {8, 64, 62, 3, 2, 1},  // 72 x 992: blocks of 896 at stride 2
        {5, 40, 40, 5, 1, 2},  // 125 x 1600: four blocks, 5x5 taps
        {2, 3, 3, 3, 1, 1},    // n = 9
        {4, 7, 7, 1, 1, 1},    // padded 1x1: n = 81 = 16*5 + 1
        {3, 7, 9, 3, 1, 1},    // n = 63 = 16*4 - 1
        {2, 13, 13, 5, 2, 2},  // n = 49 = 16*3 + 1
        {3, 17, 17, 3, 2, 0},  // n = 64, stride 2 without padding
        {3, 10, 10, 3, 1, 0},  // n = 64
        {2, 6, 6, 3, 1, 2},    // pad 2 on a 3x3: rows and runs wholly in padding
    };
    for (const simd::SimdLevel level : {simd::SimdLevel::kScalar, simd::SimdLevel::kAvx2}) {
        const simd::ScopedSimdLevel pin(level);
        std::uint64_t seed = 300;
        for (const BlockCase& bc : cases) {
            for (const int filters : {1, 5, 6, 7, 12, 13}) {
                for (const int batch : {1, 3}) {
                    for (const bool bn : {false, true}) {
                        Network net(tiny_net_config(bc.c, bc.h, bc.w, batch));
                        auto& conv = net.add_conv({.filters = filters, .ksize = bc.ksize,
                                                   .stride = bc.stride, .pad = bc.pad,
                                                   .batch_normalize = bn,
                                                   .activation = Activation::kLeaky});
                        Rng rng(++seed);
                        rng.fill_uniform(conv.biases().v, -0.5f, 0.5f);
                        if (bn) {
                            rng.fill_uniform(conv.rolling_mean(), -0.5f, 0.5f);
                            rng.fill_uniform(conv.rolling_variance(), 0.5f, 1.5f);
                            rng.fill_uniform(conv.scales().v, 0.5f, 1.5f);
                        }
                        Tensor in(net.input_shape());
                        randomize_input(in, seed);
                        net.forward(in);
                        const Tensor& got = conv.output();
                        const auto bytes = static_cast<std::size_t>(got.size()) * sizeof(float);
                        const Tensor whole = whole_lowering_forward(
                            conv, in, [](const GemmArgs& g) { gemm_blocked(g); });
                        ASSERT_EQ(std::memcmp(got.data(), whole.data(), bytes), 0)
                            << simd::to_string(level) << " " << conv.describe()
                            << " batch " << batch;
                        if (level == simd::SimdLevel::kScalar) {
                            const Tensor naive = whole_lowering_forward(
                                conv, in, [](const GemmArgs& g) { gemm_naive(g); });
                            ASSERT_EQ(std::memcmp(got.data(), naive.data(), bytes), 0)
                                << "gemm_naive " << conv.describe() << " batch " << batch;
                        }
                    }
                }
            }
        }
    }
}

struct GradCase {
    bool batch_norm;
    Activation act;
    int ksize;
    int stride;
    int pad;
    int batch;
};

class ConvGradient : public ::testing::TestWithParam<GradCase> {};

// Full numerical gradient check of dLoss/dInput, dLoss/dWeights, dLoss/dBias
// where Loss = <output, M> for a fixed random M.
TEST_P(ConvGradient, MatchesFiniteDifferences) {
    const GradCase p = GetParam();
    Network net(tiny_net_config(2, 6, 6, p.batch));
    auto& conv = net.add_conv({.filters = 3, .ksize = p.ksize, .stride = p.stride,
                               .pad = p.pad, .batch_normalize = p.batch_norm,
                               .activation = p.act});
    Tensor in(net.input_shape());
    randomize_input(in, 42);
    Rng mrng(43);
    std::vector<float> m(static_cast<std::size_t>(conv.output_shape().size()));
    mrng.fill_uniform(m, -1.0f, 1.0f);

    // Analytic gradients.
    net.forward(in, /*train=*/true);
    for (std::int64_t i = 0; i < conv.delta().size(); ++i) {
        conv.delta()[i] = m[static_cast<std::size_t>(i)];
    }
    Tensor in_delta(in.shape());
    conv.backward(in, &in_delta, net);

    // Small eps keeps finite differences away from the leaky-ReLU kink; the
    // tolerance absorbs the rare unit that still straddles it.
    const float eps = 1e-3f;
    const auto tol = [](double numeric) {
        return std::max(0.05, 0.08 * std::abs(numeric));
    };
    auto loss_at = [&]() {
        net.forward(in, /*train=*/true);
        return weighted_sum(conv.output(), m);
    };

    // Input gradient (spot-check a spread of positions).
    for (std::int64_t i = 0; i < in.size(); i += 7) {
        const float saved = in[i];
        in[i] = saved + eps;
        const double up = loss_at();
        in[i] = saved - eps;
        const double down = loss_at();
        in[i] = saved;
        const double numeric = (up - down) / (2.0 * eps);
        EXPECT_NEAR(in_delta[i], numeric, tol(numeric))
            << "input grad at " << i;
    }
    // Weight gradient.
    for (std::size_t i = 0; i < conv.weights().size(); i += 5) {
        const float saved = conv.weights().v[i];
        conv.weights().v[i] = saved + eps;
        const double up = loss_at();
        conv.weights().v[i] = saved - eps;
        const double down = loss_at();
        conv.weights().v[i] = saved;
        const double numeric = (up - down) / (2.0 * eps);
        EXPECT_NEAR(conv.weights().g[i], numeric, tol(numeric))
            << "weight grad at " << i;
    }
    // Bias gradient.
    for (std::size_t i = 0; i < conv.biases().size(); ++i) {
        const float saved = conv.biases().v[i];
        conv.biases().v[i] = saved + eps;
        const double up = loss_at();
        conv.biases().v[i] = saved - eps;
        const double down = loss_at();
        conv.biases().v[i] = saved;
        const double numeric = (up - down) / (2.0 * eps);
        EXPECT_NEAR(conv.biases().g[i], numeric, tol(numeric))
            << "bias grad at " << i;
    }
    // Batch-norm scale gradient.
    if (p.batch_norm) {
        for (std::size_t i = 0; i < conv.scales().size(); ++i) {
            const float saved = conv.scales().v[i];
            conv.scales().v[i] = saved + eps;
            const double up = loss_at();
            conv.scales().v[i] = saved - eps;
            const double down = loss_at();
            conv.scales().v[i] = saved;
            const double numeric = (up - down) / (2.0 * eps);
            EXPECT_NEAR(conv.scales().g[i], numeric, tol(numeric))
                << "scale grad at " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConvGradient,
    ::testing::Values(GradCase{false, Activation::kLinear, 3, 1, 1, 1},
                      GradCase{false, Activation::kLeaky, 3, 1, 1, 2},
                      GradCase{false, Activation::kLinear, 1, 1, 0, 1},
                      GradCase{true, Activation::kLinear, 3, 1, 1, 2},
                      GradCase{true, Activation::kLeaky, 3, 1, 1, 2},
                      GradCase{false, Activation::kLinear, 3, 2, 1, 1}));

TEST(ConvLayer, BatchNormFoldingPreservesEvalOutput) {
    Network net(tiny_net_config(3, 8, 8));
    auto& conv = net.add_conv({.filters = 6, .ksize = 3, .stride = 1, .pad = 1,
                               .batch_normalize = true});
    // Give the rolling stats non-trivial values via a few training passes.
    Tensor in(net.input_shape());
    for (int pass = 0; pass < 5; ++pass) {
        randomize_input(in, 100 + static_cast<std::uint64_t>(pass));
        net.forward(in, /*train=*/true);
    }
    randomize_input(in, 200);
    net.forward(in, /*train=*/false);
    const Tensor before = conv.output();
    conv.fold_batchnorm();
    EXPECT_FALSE(conv.config().batch_normalize);
    net.forward(in, /*train=*/false);
    for (std::int64_t i = 0; i < before.size(); ++i) {
        EXPECT_NEAR(before[i], conv.output()[i], 1e-3f);
    }
}

TEST(ConvLayer, ResizePreservesWeights) {
    Network net(tiny_net_config(3, 8, 8));
    auto& conv = net.add_conv({.filters = 4, .ksize = 3, .stride = 1, .pad = 1});
    const std::vector<float> w = conv.weights().v;
    net.resize_input(12, 12);
    EXPECT_EQ(conv.output_shape(), (Shape{1, 4, 12, 12}));
    EXPECT_EQ(conv.weights().v, w);
}

TEST(ConvLayer, ForwardRejectsWrongShape) {
    Network net(tiny_net_config(3, 8, 8));
    net.add_conv({.filters = 4, .ksize = 3, .stride = 1, .pad = 1});
    Tensor wrong(1, 3, 9, 9);
    EXPECT_THROW(net.forward(wrong), std::invalid_argument);
}

}  // namespace
}  // namespace dronet
