// MaxPool, Upsample and Route layers: geometry, values, backward routing.
// MaxPool's forward and backward are also checked bit for bit against a
// per-element window scan at both SIMD dispatch levels.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/cfg.hpp"
#include "nn/network.hpp"
#include "simd/dispatch.hpp"
#include "tensor/rng.hpp"

namespace dronet {
namespace {

NetConfig cfg(int c, int h, int w, int batch = 1) {
    NetConfig nc;
    nc.channels = c;
    nc.height = h;
    nc.width = w;
    nc.batch = batch;
    return nc;
}

TEST(MaxPool, HalvesWithStride2) {
    Network net(cfg(2, 8, 8));
    auto& pool = net.add_maxpool({.size = 2, .stride = 2});
    EXPECT_EQ(pool.output_shape(), (Shape{1, 2, 4, 4}));
}

TEST(MaxPool, Stride1KeepsSize) {
    // darknet's tiny-yolo trick: size 2, stride 1, default padding keeps HxW.
    Network net(cfg(2, 13, 13));
    auto& pool = net.add_maxpool({.size = 2, .stride = 1});
    EXPECT_EQ(pool.output_shape(), (Shape{1, 2, 13, 13}));
}

TEST(MaxPool, PicksMaximum) {
    Network net(cfg(1, 4, 4));
    auto& pool = net.add_maxpool({.size = 2, .stride = 2});
    Tensor in(1, 1, 4, 4);
    for (std::int64_t i = 0; i < 16; ++i) in[i] = static_cast<float>(i);
    net.forward(in);
    EXPECT_FLOAT_EQ(pool.output()[0], 5.0f);
    EXPECT_FLOAT_EQ(pool.output()[1], 7.0f);
    EXPECT_FLOAT_EQ(pool.output()[2], 13.0f);
    EXPECT_FLOAT_EQ(pool.output()[3], 15.0f);
}

TEST(MaxPool, NegativeInputsHandled) {
    Network net(cfg(1, 2, 2));
    auto& pool = net.add_maxpool({.size = 2, .stride = 2});
    Tensor in(1, 1, 2, 2);
    in[0] = -5;
    in[1] = -3;
    in[2] = -8;
    in[3] = -9;
    net.forward(in);
    EXPECT_FLOAT_EQ(pool.output()[0], -3.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
    Network net(cfg(1, 4, 4));
    auto& pool = net.add_maxpool({.size = 2, .stride = 2});
    Tensor in(1, 1, 4, 4);
    for (std::int64_t i = 0; i < 16; ++i) in[i] = static_cast<float>(i);
    net.forward(in);
    pool.delta().fill(1.0f);
    Tensor in_delta(in.shape());
    pool.backward(in, &in_delta, net);
    // Each window's max (indices 5,7,13,15) receives the gradient.
    EXPECT_FLOAT_EQ(in_delta[5], 1.0f);
    EXPECT_FLOAT_EQ(in_delta[7], 1.0f);
    EXPECT_FLOAT_EQ(in_delta[13], 1.0f);
    EXPECT_FLOAT_EQ(in_delta[15], 1.0f);
    EXPECT_FLOAT_EQ(in_delta[0], 0.0f);
}

/// Per-element reference scan: for each output, the first tap in (ky, kx)
/// order strictly greater than everything before it, starting from
/// -FLT_MAX. Returns the outputs and each output's winning input index (-1
/// when no tap exceeds -FLT_MAX).
struct PoolReference {
    std::vector<float> out;
    std::vector<std::int64_t> winner;
};

PoolReference reference_maxpool(const Tensor& in, int size, int stride, int pad,
                                const Shape& out_shape) {
    PoolReference ref;
    const Shape& s = in.shape();
    const int offset = -pad / 2;
    for (int b = 0; b < s.n; ++b) {
        for (int c = 0; c < s.c; ++c) {
            for (int oy = 0; oy < out_shape.h; ++oy) {
                for (int ox = 0; ox < out_shape.w; ++ox) {
                    float best = -FLT_MAX;
                    std::int64_t best_idx = -1;
                    for (int ky = 0; ky < size; ++ky) {
                        const int iy = offset + oy * stride + ky;
                        if (iy < 0 || iy >= s.h) continue;
                        for (int kx = 0; kx < size; ++kx) {
                            const int ix = offset + ox * stride + kx;
                            if (ix < 0 || ix >= s.w) continue;
                            const std::int64_t idx = in.index(b, c, iy, ix);
                            if (in[idx] > best) {
                                best = in[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    ref.out.push_back(best);
                    ref.winner.push_back(best_idx);
                }
            }
        }
    }
    return ref;
}

/// Seeded input mixing noise with NaN, signed zeros, infinities, -FLT_MAX
/// and repeated values, so ties and non-finite taps occur in most windows.
Tensor pool_input(const Shape& shape, std::uint64_t seed) {
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float specials[] = {nan, 0.0f, -0.0f, inf, -inf, -FLT_MAX, 0.5f, -0.5f};
    Tensor in(shape);
    Rng rng(seed);
    rng.fill_uniform(in.span(), -1.0f, 1.0f);
    for (std::int64_t i = 0; i < in.size(); ++i) {
        const int pick = rng.uniform_int(0, 15);
        if (pick < 8) in[i] = specials[pick];
    }
    return in;
}

struct PoolGeometry {
    int size, stride, padding;
};

// Every geometry the zoo uses plus padding 0, over odd and even sizes from a
// single pixel up, batch 2: forward must reproduce the reference scan bit for
// bit at both dispatch levels, and backward after a training forward must
// route each output's delta to the reference winner (first tap in scan order
// among ties; nowhere when no tap exceeds -FLT_MAX).
TEST(MaxPool, MatchesReferenceScanAtBothLevels) {
    const PoolGeometry geometries[] = {{2, 2, -1}, {2, 1, -1}, {3, 2, -1}, {3, 1, -1},
                                       {2, 2, 0},  {2, 1, 0},  {3, 2, 0},  {3, 1, 0}};
    const int sizes[] = {1, 2, 3, 7, 13, 16, 17, 33};
    int checked = 0;
    for (const simd::SimdLevel level : {simd::SimdLevel::kScalar, simd::SimdLevel::kAvx2}) {
        const simd::ScopedSimdLevel pin(level);
        for (const PoolGeometry& geo : geometries) {
            for (const int h : sizes) {
                for (const int w : sizes) {
                    const int pad = geo.padding >= 0 ? geo.padding : geo.size - 1;
                    if ((h + pad - geo.size) / geo.stride + 1 <= 0 ||
                        (w + pad - geo.size) / geo.stride + 1 <= 0) {
                        continue;  // the layer rejects geometries with no output
                    }
                    Network net(cfg(3, h, w, 2));
                    auto& pool = net.add_maxpool(
                        {.size = geo.size, .stride = geo.stride, .padding = geo.padding});
                    const Tensor in = pool_input(net.input_shape(),
                                                 static_cast<std::uint64_t>(h * 100 + w));
                    const PoolReference ref =
                        reference_maxpool(in, geo.size, geo.stride, pad, pool.output_shape());
                    const std::string where = std::string(simd::to_string(simd::active_level())) +
                                              " " + std::to_string(geo.size) + "/" +
                                              std::to_string(geo.stride) + " pad " +
                                              std::to_string(pad) + " " + std::to_string(h) +
                                              "x" + std::to_string(w);

                    net.forward(in, /*train=*/true);
                    ASSERT_EQ(static_cast<std::size_t>(pool.output().size()), ref.out.size());
                    ASSERT_EQ(std::memcmp(pool.output().data(), ref.out.data(),
                                          ref.out.size() * sizeof(float)),
                              0)
                        << where;

                    for (std::int64_t i = 0; i < pool.delta().size(); ++i) {
                        pool.delta()[i] = static_cast<float>(i % 7 + 1);
                    }
                    Tensor want_delta(in.shape());
                    for (std::size_t i = 0; i < ref.winner.size(); ++i) {
                        if (ref.winner[i] >= 0) {
                            want_delta[ref.winner[i]] += pool.delta()[static_cast<std::int64_t>(i)];
                        }
                    }
                    Tensor got_delta(in.shape());
                    pool.backward(in, &got_delta, net);
                    ASSERT_EQ(std::memcmp(got_delta.data(), want_delta.data(),
                                          static_cast<std::size_t>(in.size()) * sizeof(float)),
                              0)
                        << where << " backward";
                    ++checked;
                }
            }
        }
    }
    EXPECT_GT(checked, 400);
}

// Ties go to the first tap in scan order and a window whose taps are all
// -FLT_MAX, -Inf or NaN routes its delta nowhere.
TEST(MaxPool, BackwardTieAndEmptyWindowRouting) {
    Network net(cfg(1, 2, 4));
    auto& pool = net.add_maxpool({.size = 2, .stride = 2});
    Tensor in(1, 1, 2, 4);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    // Window 0: 3 at (0,1) and (1,0) tie; window 1: nothing above -FLT_MAX.
    const float values[] = {1.0f, 3.0f, -FLT_MAX, nan,
                            3.0f, 2.0f, -std::numeric_limits<float>::infinity(), -FLT_MAX};
    for (int i = 0; i < 8; ++i) in[i] = values[i];
    net.forward(in, /*train=*/true);
    EXPECT_EQ(pool.output()[0], 3.0f);
    EXPECT_EQ(pool.output()[1], -FLT_MAX);
    pool.delta().fill(1.0f);
    Tensor in_delta(in.shape());
    pool.backward(in, &in_delta, net);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(in_delta[i], i == 1 ? 1.0f : 0.0f) << "input " << i;
    }
}

TEST(MaxPool, RejectsBadConfig) {
    Network net(cfg(1, 4, 4));
    EXPECT_THROW(net.add_maxpool({.size = 0, .stride = 2}), std::invalid_argument);
}

TEST(Upsample, DoublesSpatial) {
    Network net(cfg(2, 3, 3));
    auto& up = net.add_upsample(2);
    EXPECT_EQ(up.output_shape(), (Shape{1, 2, 6, 6}));
    Tensor in(1, 2, 3, 3);
    in[in.index(0, 1, 1, 2)] = 4.0f;
    net.forward(in);
    EXPECT_FLOAT_EQ(up.output()[up.output().index(0, 1, 2, 4)], 4.0f);
    EXPECT_FLOAT_EQ(up.output()[up.output().index(0, 1, 3, 5)], 4.0f);
}

TEST(Upsample, BackwardSumsWindow) {
    Network net(cfg(1, 2, 2));
    auto& up = net.add_upsample(2);
    Tensor in(1, 1, 2, 2);
    net.forward(in);
    up.delta().fill(1.0f);
    Tensor in_delta(in.shape());
    up.backward(in, &in_delta, net);
    for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(in_delta[i], 4.0f);
}

TEST(Route, ConcatenatesChannels) {
    Network net(cfg(3, 6, 6));
    net.add_conv({.filters = 4, .ksize = 1, .stride = 1, .pad = 0,
                  .activation = Activation::kLinear});
    net.add_conv({.filters = 2, .ksize = 1, .stride = 1, .pad = 0,
                  .activation = Activation::kLinear});
    auto& route = net.add_route({0, 1});
    EXPECT_EQ(route.output_shape(), (Shape{1, 6, 6, 6}));
    Tensor in(net.input_shape());
    Rng rng(3);
    rng.fill_uniform(in.span(), -1.0f, 1.0f);
    net.forward(in);
    // First 4 channels must equal layer 0's output, next 2 layer 1's.
    const Tensor& a = net.layer(0).output();
    const Tensor& b = net.layer(1).output();
    for (std::int64_t i = 0; i < a.size(); ++i) EXPECT_EQ(route.output()[i], a[i]);
    for (std::int64_t i = 0; i < b.size(); ++i) {
        EXPECT_EQ(route.output()[a.size() + i], b[i]);
    }
}

TEST(Route, BackwardScattersToSources) {
    Network net(cfg(3, 4, 4));
    net.add_conv({.filters = 2, .ksize = 1, .stride = 1, .pad = 0,
                  .activation = Activation::kLinear});
    auto& route = net.add_route({0});
    Tensor in(net.input_shape());
    net.forward(in);
    route.delta().fill(2.0f);
    net.layer(0).delta().zero();
    route.backward(net.layer(0).output(), &net.layer(0).delta(), net);
    for (std::int64_t i = 0; i < net.layer(0).delta().size(); ++i) {
        EXPECT_FLOAT_EQ(net.layer(0).delta()[i], 2.0f);
    }
}

TEST(Route, RejectsBadSources) {
    Network net(cfg(3, 4, 4));
    net.add_conv({.filters = 2, .ksize = 1, .stride = 1, .pad = 0});
    EXPECT_THROW(net.add_route({5}), std::invalid_argument);
    EXPECT_THROW(net.add_route({}), std::invalid_argument);
}

TEST(Route, RejectsMismatchedSpatialShapes) {
    Network net(cfg(3, 8, 8));
    net.add_conv({.filters = 2, .ksize = 1, .stride = 1, .pad = 0});
    net.add_maxpool({.size = 2, .stride = 2});
    EXPECT_THROW(net.add_route({0, 1}), std::invalid_argument);
}


TEST(AvgPool, GlobalAverage) {
    Network net(cfg(2, 4, 4));
    auto& avg = net.add_avgpool();
    EXPECT_EQ(avg.output_shape(), (Shape{1, 2, 1, 1}));
    Tensor in(1, 2, 4, 4);
    for (std::int64_t i = 0; i < 16; ++i) in[i] = 2.0f;          // channel 0
    for (std::int64_t i = 16; i < 32; ++i) in[i] = static_cast<float>(i - 16);  // 0..15
    net.forward(in);
    EXPECT_FLOAT_EQ(avg.output()[0], 2.0f);
    EXPECT_FLOAT_EQ(avg.output()[1], 7.5f);
}

TEST(AvgPool, BackwardSpreadsEvenly) {
    Network net(cfg(1, 2, 2));
    auto& avg = net.add_avgpool();
    Tensor in(1, 1, 2, 2);
    net.forward(in);
    avg.delta()[0] = 4.0f;
    Tensor in_delta(in.shape());
    avg.backward(in, &in_delta, net);
    for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(in_delta[i], 1.0f);
}

TEST(Dropout, IdentityAtInference) {
    Network net(cfg(2, 3, 3));
    auto& drop = net.add_dropout(0.5f);
    Tensor in(1, 2, 3, 3);
    Rng rng(4);
    rng.fill_uniform(in.span(), -1.0f, 1.0f);
    net.forward(in, /*train=*/false);
    for (std::int64_t i = 0; i < in.size(); ++i) EXPECT_EQ(drop.output()[i], in[i]);
}

TEST(Dropout, TrainZerosSomeAndScalesRest) {
    Network net(cfg(1, 16, 16));
    auto& drop = net.add_dropout(0.5f);
    Tensor in(1, 1, 16, 16);
    in.fill(1.0f);
    net.forward(in, /*train=*/true);
    int zeros = 0, scaled = 0;
    for (std::int64_t i = 0; i < in.size(); ++i) {
        if (drop.output()[i] == 0.0f) ++zeros;
        else if (std::fabs(drop.output()[i] - 2.0f) < 1e-6f) ++scaled;
    }
    EXPECT_EQ(zeros + scaled, 256);
    EXPECT_GT(zeros, 64);   // ~128 expected
    EXPECT_GT(scaled, 64);
}

TEST(Dropout, BackwardUsesSameMask) {
    Network net(cfg(1, 8, 8));
    auto& drop = net.add_dropout(0.5f);
    Tensor in(1, 1, 8, 8);
    in.fill(1.0f);
    net.forward(in, /*train=*/true);
    drop.delta().fill(1.0f);
    Tensor in_delta(in.shape());
    drop.backward(in, &in_delta, net);
    for (std::int64_t i = 0; i < in.size(); ++i) {
        // Gradient passes exactly where the activation passed.
        EXPECT_FLOAT_EQ(in_delta[i], drop.output()[i]);
    }
}

TEST(Dropout, RejectsBadProbability) {
    Network net(cfg(1, 4, 4));
    EXPECT_THROW(net.add_dropout(1.0f), std::invalid_argument);
    EXPECT_THROW(net.add_dropout(-0.1f), std::invalid_argument);
}

TEST(MiscLayers, CfgRoundTrip) {
    Network net = parse_cfg(
        "[net]\nwidth=8\nheight=8\nchannels=3\n"
        "[convolutional]\nfilters=2\nsize=1\nstride=1\nactivation=linear\n"
        "[dropout]\nprobability=0.25\n[avgpool]\n");
    EXPECT_EQ(net.layer(1).kind(), LayerKind::kDropout);
    EXPECT_EQ(net.layer(2).kind(), LayerKind::kAvgPool);
    EXPECT_EQ(net.layer(2).output_shape(), (Shape{1, 2, 1, 1}));
    const std::string emitted = network_to_cfg(net);
    EXPECT_NE(emitted.find("[dropout]"), std::string::npos);
    EXPECT_NE(emitted.find("probability=0.25"), std::string::npos);
    EXPECT_NE(emitted.find("[avgpool]"), std::string::npos);
    Network again = parse_cfg(emitted);
    EXPECT_EQ(network_to_cfg(again), emitted);
}

}  // namespace
}  // namespace dronet
