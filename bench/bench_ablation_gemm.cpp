// GEMM / convolution-lowering ablation (DESIGN.md §5, knobs 1-2): naive vs
// blocked vs threaded GEMM on DroNet-shaped problems, persistent-pool
// sharding, and im2col+GEMM vs direct convolution — the execution strategy
// darknet (and hence the paper's deployment) relies on.
//
// BM_GemmPooledPacked shards the packed kernel over the persistent pool at
// 512-input DroNet shapes with 4 threads; pool_threads_delta must stay 0
// across the timed iterations (zero per-call thread creation).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "models/model_zoo.hpp"
#include "nn/network.hpp"
#include "nn/quantize.hpp"
#include "simd/dispatch.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_i8.hpp"
#include "tensor/rng.hpp"
#include "tensor/thread_pool.hpp"

namespace {

using namespace dronet;

// DroNet stage shapes at input 416: (filters, in_c*k*k, out_h*out_w).
struct GemmShape {
    int m, k, n;
};
const GemmShape kDroNetStages[] = {
    {8, 27, 208 * 208},   // stem 3x3 on RGB (per the 208 post-pool plane)
    {16, 72, 104 * 104},  // stage-2 3x3
    {32, 144, 52 * 52},   // stage-3 3x3
    {64, 288, 26 * 26},   // stage-4 3x3
};

// The same four stages at the paper's 512 input (docs/performance.md).
const GemmShape kDroNetStages512[] = {
    {8, 27, 256 * 256},
    {16, 72, 128 * 128},
    {32, 144, 64 * 64},
    {64, 288, 32 * 32},
};

// The shipped checkpoint (filter_scale 0.6) at input 224, stages 1-4: 5, 10,
// 19 and 38 filters, none a multiple of the 4-row register tile.
const GemmShape kShippedStages224[] = {
    {5, 27, 224 * 224},
    {10, 45, 112 * 112},
    {19, 90, 56 * 56},
    {38, 171, 28 * 28},
};

void fill_random(std::vector<float>& v, std::uint64_t seed) {
    Rng rng(seed);
    rng.fill_uniform(v, -1.0f, 1.0f);
}

void BM_GemmNaive(benchmark::State& state) {
    const GemmShape s = kDroNetStages[state.range(0)];
    std::vector<float> a(static_cast<std::size_t>(s.m) * s.k);
    std::vector<float> b(static_cast<std::size_t>(s.k) * s.n);
    std::vector<float> c(static_cast<std::size_t>(s.m) * s.n);
    fill_random(a, 1);
    fill_random(b, 2);
    for (auto _ : state) {
        gemm_naive({false, false, s.m, s.n, s.k, 1.0f, a.data(), s.k, b.data(), s.n,
                    0.0f, c.data(), s.n});
        benchmark::DoNotOptimize(c.data());
    }
    state.counters["GFLOP/s"] = benchmark::Counter(
        static_cast<double>(gemm_flops(s.m, s.n, s.k)) * state.iterations() * 1e-9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmNaive)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_GemmBlocked(benchmark::State& state) {
    const GemmShape s = kDroNetStages[state.range(0)];
    std::vector<float> a(static_cast<std::size_t>(s.m) * s.k);
    std::vector<float> b(static_cast<std::size_t>(s.k) * s.n);
    std::vector<float> c(static_cast<std::size_t>(s.m) * s.n);
    fill_random(a, 1);
    fill_random(b, 2);
    for (auto _ : state) {
        gemm_blocked({false, false, s.m, s.n, s.k, 1.0f, a.data(), s.k, b.data(), s.n,
                      0.0f, c.data(), s.n});
        benchmark::DoNotOptimize(c.data());
    }
    state.counters["GFLOP/s"] = benchmark::Counter(
        static_cast<double>(gemm_flops(s.m, s.n, s.k)) * state.iterations() * 1e-9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmBlocked)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_GemmThreaded(benchmark::State& state) {
    const GemmShape s = kDroNetStages[3];
    const int threads = static_cast<int>(state.range(0));
    std::vector<float> a(static_cast<std::size_t>(s.m) * s.k);
    std::vector<float> b(static_cast<std::size_t>(s.k) * s.n);
    std::vector<float> c(static_cast<std::size_t>(s.m) * s.n);
    fill_random(a, 1);
    fill_random(b, 2);
    for (auto _ : state) {
        gemm_threaded({false, false, s.m, s.n, s.k, 1.0f, a.data(), s.k, b.data(), s.n,
                       0.0f, c.data(), s.n},
                      threads);
        benchmark::DoNotOptimize(c.data());
    }
}
BENCHMARK(BM_GemmThreaded)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

// Packed 4x16 kernel sharded over the persistent worker pool.
// pool_threads_delta counts OS threads created during the timed loop — the
// acceptance criterion is that it is exactly 0 (the pool is warmed before
// timing and never grows again).
void BM_GemmPooledPacked(benchmark::State& state) {
    const GemmShape s = kDroNetStages512[state.range(0)];
    std::vector<float> a(static_cast<std::size_t>(s.m) * s.k);
    std::vector<float> b(static_cast<std::size_t>(s.k) * s.n);
    std::vector<float> c(static_cast<std::size_t>(s.m) * s.n);
    fill_random(a, 1);
    fill_random(b, 2);
    const GemmArgs g{false, false, s.m, s.n, s.k, 1.0f, a.data(), s.k,
                     b.data(), s.n, 0.0f, c.data(), s.n};
    gemm_threaded(g, 4);  // warm the pool outside the timed region
    const std::uint64_t threads_before = ThreadPool::instance().stats().threads_created;
    for (auto _ : state) {
        gemm_threaded(g, 4);
        benchmark::DoNotOptimize(c.data());
    }
    state.counters["GFLOP/s"] = benchmark::Counter(
        static_cast<double>(gemm_flops(s.m, s.n, s.k)) * state.iterations() * 1e-9,
        benchmark::Counter::kIsRate);
    state.counters["pool_threads_delta"] = benchmark::Counter(static_cast<double>(
        ThreadPool::instance().stats().threads_created - threads_before));
}
BENCHMARK(BM_GemmPooledPacked)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

// SIMD dispatch ablation (docs/vectorization.md): the same blocked GEMM with
// the kernel level pinned, so the scalar vs AVX2 delta is the micro-kernel
// alone (identical blocking, packing, and threading either way). Args:
// (shape, level) with level 0=scalar, 1=avx2; shapes 0-3 are the full-width
// 512-input stages, 4-7 the shipped checkpoint's stages at 224, whose row
// counts leave remainder rows below the 4-row tile.
void BM_GemmSimdLevel(benchmark::State& state) {
    const auto shape = state.range(0);
    const GemmShape s = shape < 4 ? kDroNetStages512[shape] : kShippedStages224[shape - 4];
    const auto want = state.range(1) == 0 ? simd::SimdLevel::kScalar
                                          : simd::SimdLevel::kAvx2;
    if (want == simd::SimdLevel::kAvx2 && !simd::cpu_supports_avx2()) {
        state.SkipWithError("CPU/build lacks AVX2");
        return;
    }
    const simd::ScopedSimdLevel pin(want);
    std::vector<float> a(static_cast<std::size_t>(s.m) * s.k);
    std::vector<float> b(static_cast<std::size_t>(s.k) * s.n);
    std::vector<float> c(static_cast<std::size_t>(s.m) * s.n);
    fill_random(a, 1);
    fill_random(b, 2);
    for (auto _ : state) {
        gemm_blocked({false, false, s.m, s.n, s.k, 1.0f, a.data(), s.k, b.data(),
                      s.n, 0.0f, c.data(), s.n});
        benchmark::DoNotOptimize(c.data());
    }
    state.SetLabel(simd::to_string(simd::active_level()));
    state.counters["GFLOP/s"] = benchmark::Counter(
        static_cast<double>(gemm_flops(s.m, s.n, s.k)) * state.iterations() * 1e-9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmSimdLevel)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5, 6, 7}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// Int8 GEMM across dispatch levels at the same shapes (docs/quantization.md):
// the integer kernel is bit-exact between levels, so the delta here is pure
// throughput. Args mirror BM_GemmSimdLevel: (stage, level) with 0=scalar.
void BM_GemmI8SimdLevel(benchmark::State& state) {
    const GemmShape s = kDroNetStages512[state.range(0)];
    const auto want = state.range(1) == 0 ? simd::SimdLevel::kScalar
                                          : simd::SimdLevel::kAvx2;
    if (want == simd::SimdLevel::kAvx2 && !simd::cpu_supports_avx2()) {
        state.SkipWithError("CPU/build lacks AVX2");
        return;
    }
    const simd::ScopedSimdLevel pin(want);
    Rng rng(5);
    std::vector<std::int8_t> a(static_cast<std::size_t>(s.m) * s.k);
    std::vector<std::int8_t> b(static_cast<std::size_t>(s.k) * s.n);
    std::vector<std::int32_t> c(static_cast<std::size_t>(s.m) * s.n);
    for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    for (auto& v : b) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    for (auto _ : state) {
        gemm_i8(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, c.data(), s.n);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetLabel(simd::to_string(simd::active_level()));
    state.counters["GOP/s"] = benchmark::Counter(
        static_cast<double>(gemm_flops(s.m, s.n, s.k)) * state.iterations() * 1e-9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmI8SimdLevel)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// End-to-end: DroNet forward through the calibrated int8 conv path vs the
// fp32 baseline at the same sizes (docs/quantization.md records the numbers).
void BM_DroNetForwardInt8(benchmark::State& state) {
    Network net = build_model(ModelId::kDroNet,
                              {.input_size = static_cast<int>(state.range(0))});
    net.set_precision(Precision::kInt8, self_calibrate(net));  // folds BN
    Tensor in(net.input_shape());
    Rng rng(13);
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.forward(in).data());
    }
}
BENCHMARK(BM_DroNetForwardInt8)->Arg(352)->Arg(512)->Unit(benchmark::kMillisecond);

// im2col+GEMM (production path) vs direct convolution (reference path) on a
// real DroNet stage-3 layer.
Network conv_stage_net(bool fold) {
    NetConfig nc;
    nc.channels = 32;
    nc.height = 52;
    nc.width = 52;
    Network net(nc);
    net.add_conv({.filters = 64, .ksize = 3, .stride = 1, .pad = 1,
                  .batch_normalize = true, .activation = Activation::kLeaky});
    if (fold) net.fold_batchnorm();
    return net;
}

void BM_ConvIm2colGemm(benchmark::State& state) {
    Network net = conv_stage_net(false);
    Tensor in(net.input_shape());
    Rng rng(7);
    rng.fill_uniform(in.span(), -1.0f, 1.0f);
    for (auto _ : state) {
        net.forward(in);
        benchmark::DoNotOptimize(net.layer(0).output().data());
    }
}
BENCHMARK(BM_ConvIm2colGemm)->Unit(benchmark::kMillisecond);

void BM_ConvDirect(benchmark::State& state) {
    Network net = conv_stage_net(true);  // folding required by forward_direct
    auto& conv = dynamic_cast<ConvolutionalLayer&>(net.layer(0));
    Tensor in(net.input_shape());
    Rng rng(7);
    rng.fill_uniform(in.span(), -1.0f, 1.0f);
    Tensor out;
    for (auto _ : state) {
        conv.forward_direct(in, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_ConvDirect)->Unit(benchmark::kMillisecond);

// Full-network forward at paper input sizes (the quantity behind every FPS
// number in the reproduction).
void BM_DroNetForward(benchmark::State& state) {
    Network net = build_model(ModelId::kDroNet,
                              {.input_size = static_cast<int>(state.range(0))});
    Tensor in(net.input_shape());
    for (auto _ : state) {
        net.forward(in);
        benchmark::DoNotOptimize(net.region());
    }
}
BENCHMARK(BM_DroNetForward)->Arg(352)->Arg(512)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
