#include "simd/dispatch.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "simd/kernels.hpp"

namespace dronet::simd {

#ifndef DRONET_SIMD_HAS_AVX2
// Built without AVX2 kernels (non-x86 or disabled): kernels_avx2.cpp is not
// in the build, so provide the "no table" answer here.
const KernelTable* avx2_kernel_table() noexcept { return nullptr; }
#endif

namespace {

bool detect_cpu_avx2() noexcept {
#if defined(DRONET_SIMD_HAS_AVX2) && (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

// The active table pointer IS the dispatch state: kernels() reads it with one
// acquire load, set_level() swaps it. Initialized before main() by the
// EnvInit constructor below (single-threaded at that point).
std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<SimdLevel> g_level{SimdLevel::kScalar};

void install(SimdLevel level) noexcept {
    const KernelTable* table = level == SimdLevel::kAvx2
                                   ? avx2_kernel_table()
                                   : scalar_kernel_table();
    if (table == nullptr) {  // AVX2 requested but not compiled in
        table = scalar_kernel_table();
        level = SimdLevel::kScalar;
    }
    g_level.store(level, std::memory_order_relaxed);
    g_table.store(table, std::memory_order_release);
}

SimdLevel startup_level() noexcept {
    const char* env = std::getenv("DRONET_SIMD");
    if (env != nullptr && *env != '\0') {
        if (std::strcmp(env, "scalar") == 0) return SimdLevel::kScalar;
        if (std::strcmp(env, "avx2") == 0) {
            if (detect_cpu_avx2()) return SimdLevel::kAvx2;
            std::fprintf(stderr,
                         "# DRONET_SIMD=avx2 requested but this CPU/build "
                         "lacks AVX2+FMA; using scalar kernels\n");
            return SimdLevel::kScalar;
        }
        std::fprintf(stderr,
                     "# DRONET_SIMD=%s not recognized (scalar|avx2); using "
                     "CPU detection\n",
                     env);
    }
    return detect_cpu_avx2() ? SimdLevel::kAvx2 : SimdLevel::kScalar;
}

struct EnvInit {
    EnvInit() noexcept { install(startup_level()); }
};
const EnvInit g_env_init;

}  // namespace

const char* to_string(SimdLevel level) noexcept {
    return level == SimdLevel::kAvx2 ? "avx2" : "scalar";
}

bool cpu_supports_avx2() noexcept { return detect_cpu_avx2(); }

SimdLevel active_level() noexcept {
    // Covers calls from other dynamic initializers that might run before
    // g_env_init (link order is unspecified).
    if (g_table.load(std::memory_order_acquire) == nullptr) {
        install(startup_level());
    }
    return g_level.load(std::memory_order_relaxed);
}

SimdLevel set_level(SimdLevel level) noexcept {
    if (level == SimdLevel::kAvx2 && !detect_cpu_avx2()) {
        level = SimdLevel::kScalar;
    }
    install(level);
    return level;
}

const KernelTable& kernels() noexcept {
    const KernelTable* t = g_table.load(std::memory_order_acquire);
    if (t == nullptr) {
        install(startup_level());
        t = g_table.load(std::memory_order_acquire);
    }
    return *t;
}

}  // namespace dronet::simd
