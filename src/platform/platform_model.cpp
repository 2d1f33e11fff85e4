#include "platform/platform_model.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "simd/dispatch.hpp"
#include "tensor/gemm.hpp"

namespace dronet {

PlatformSpec intel_i5_2520m() {
    // 2C/4T Sandy Bridge @ 3.2 GHz turbo, AVX: ~51 GFLOP/s peak; darknet's
    // CPU GEMM sustains ~10% of that. 3 MB LLC with aggressive hardware
    // prefetch keeps the cache-thrash floor mild (0.5); ~21 GB/s DDR3 at
    // ~30% sustained efficiency.
    return PlatformSpec{"Intel i5-2520M", 5.2, 6.3, 3e6, 0.5, 2.0};
}

PlatformSpec odroid_xu4() {
    // Exynos 5422 big.LITTLE (4x A15 @ 2 GHz + 4x A7). The paper observed
    // darknet spreading across all eight cores at ~50% utilization; in that
    // regime the NEON clusters sustain ~8 GFLOP/s on cache-resident GEMM but
    // collapse hard (floor 0.05) once weight panels spill the 2 MB big-
    // cluster L2 into slow LPDDR3.
    return PlatformSpec{"Odroid-XU4", 8.1, 2.0, 2e6, 0.05, 8.0};
}

PlatformSpec raspberry_pi3() {
    // 4x Cortex-A53 @ 1.2 GHz, in-order NEON: ~4.6 GFLOP/s sustained on
    // cache-resident kernels; 512 KB shared L2 and a slow LPDDR2 interface.
    return PlatformSpec{"Raspberry Pi 3", 4.6, 1.5, 5.12e5, 0.08, 12.0};
}

std::vector<PlatformSpec> paper_platforms() {
    return {intel_i5_2520m(), odroid_xu4(), raspberry_pi3()};
}

double cache_scale(const PlatformSpec& platform, double weights_bytes) {
    if (weights_bytes <= platform.cache_bytes) return 1.0;
    return std::max(platform.min_cache_scale, platform.cache_bytes / weights_bytes);
}

LayerCost estimate_layer_cost(const Layer& layer, const PlatformSpec& platform) {
    LayerCost cost;
    cost.description = layer.describe();
    double scale = 1.0;
    if (layer.kind() == LayerKind::kConvolutional) {
        const double weight_bytes =
            static_cast<double>(layer.param_count()) * sizeof(float);
        scale = cache_scale(platform, weight_bytes);
    }
    cost.compute_ms = static_cast<double>(layer.flops()) /
                      (platform.effective_gflops * scale) * 1e-6;
    cost.memory_ms =
        static_cast<double>(layer.memory_bytes()) / platform.bandwidth_gbps * 1e-6;
    return cost;
}

double estimate_latency_ms(const Network& net, const PlatformSpec& platform) {
    double total = platform.framework_overhead_ms;
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
        total += estimate_layer_cost(net.layer(static_cast<int>(i)), platform).total_ms();
    }
    return total;
}

double estimate_fps(const Network& net, const PlatformSpec& platform) {
    const double ms = estimate_latency_ms(net, platform);
    return ms > 0 ? 1000.0 / ms : 0.0;
}

std::vector<LayerCost> cost_breakdown(const Network& net, const PlatformSpec& platform) {
    std::vector<LayerCost> out;
    out.reserve(net.num_layers());
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
        out.push_back(estimate_layer_cost(net.layer(static_cast<int>(i)), platform));
    }
    return out;
}

PlatformSpec calibrate_host_platform() {
    // Time a conv-shaped GEMM (DroNet stage 3 at 416 input) with the
    // production kernel, the way the fp32 conv forward runs it: one
    // cache-sized column block of the col matrix at a time (nb columns of
    // k floats fit its 256 KiB block), each multiplied while in cache.
    constexpr int m = 64, k = 32 * 9, n = 52 * 52, nb = 224;
    std::vector<float> a(static_cast<std::size_t>(m) * k, 0.5f);
    std::vector<float> b(static_cast<std::size_t>(k) * nb, 0.25f);
    std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
    const auto run = [&] {
        for (int j0 = 0; j0 < n; j0 += nb) {
            const int w = std::min(nb, n - j0);
            gemm(false, false, m, w, k, 1.0f, a.data(), k, b.data(), w, 0.0f, c.data() + j0,
                 n);
        }
    };
    run();  // warm-up
    const auto begin = std::chrono::steady_clock::now();
    constexpr int reps = 10;
    for (int i = 0; i < reps; ++i) run();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
    const double gflops =
        static_cast<double>(gemm_flops(m, n, k)) * reps / (seconds > 0 ? seconds : 1e-9) * 1e-9;
    // The measured figure depends on which kernel level ran; record it.
    const std::string name =
        std::string("host (measured, ") + simd::to_string(simd::active_level()) + ")";
    PlatformSpec spec{name, std::max(0.1, gflops), 8.0, 4e6, 0.12, 1.0};
    return spec;
}

}  // namespace dronet
