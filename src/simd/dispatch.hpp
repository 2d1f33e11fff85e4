// Runtime CPU-capability dispatch for the vectorized compute backend.
//
// The level is decided exactly once, before main() runs:
//
//     DRONET_SIMD env set?  ── "scalar" ──────────────► kScalar
//            │                  "avx2" ── CPU has it? ─► kAvx2
//            │                              └─ no ─────► kScalar (+ stderr note)
//            └─ unset ── CPUID: AVX2+FMA? ── yes ─► kAvx2
//                                         └─ no ──► kScalar
//
// Every dispatched kernel (kernels.hpp) reads the level through one atomic
// table pointer, so changing the level is race-free and costs one acquire
// load per kernel call. set_level() exists for tests and benchmarks that
// compare levels inside one process (the DRONET_SIMD matrix in
// scripts/run_all.sh covers the from-startup path).
#pragma once

namespace dronet::simd {

enum class SimdLevel {
    kScalar,  ///< portable reference kernels; bit-exact vs the naive paths
    kAvx2,    ///< AVX2 + FMA; tolerance-gated
};

[[nodiscard]] const char* to_string(SimdLevel level) noexcept;

/// True when this binary carries AVX2 kernels AND the CPU reports AVX2 + FMA.
[[nodiscard]] bool cpu_supports_avx2() noexcept;

/// The level dispatched kernels currently run at.
[[nodiscard]] SimdLevel active_level() noexcept;

/// Forces a level; returns the level actually installed (a kAvx2 request on
/// hardware without AVX2 stays at kScalar). Test/bench hook.
SimdLevel set_level(SimdLevel level) noexcept;

/// RAII level override for tests: restores the previous level on scope exit.
class ScopedSimdLevel {
  public:
    explicit ScopedSimdLevel(SimdLevel level) noexcept
        : previous_(active_level()) {
        set_level(level);
    }
    ~ScopedSimdLevel() { set_level(previous_); }
    ScopedSimdLevel(const ScopedSimdLevel&) = delete;
    ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

  private:
    SimdLevel previous_;
};

}  // namespace dronet::simd
