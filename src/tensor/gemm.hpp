// Single-precision GEMM kernels.
//
// The convolution layers lower to matrix multiplication via im2col, exactly
// as the darknet framework the paper deployed on its CPU targets. Kernels:
//
//   * gemm_naive          - reference triple loop, used by tests as ground
//                           truth and by the ablation bench (DESIGN.md #2).
//   * gemm_blocked        - packed micro-kernel; the production kernel. Packs
//                           A panels (and B panels when trans_b) into
//                           thread-local scratch and runs a 4x16
//                           register-tiled inner loop. Bit-exact with
//                           gemm_naive: each C element accumulates over k in
//                           the same order, so the results are identical
//                           floats, not merely close.
//   * gemm_threaded       - gemm_blocked sharded over row ranges on the
//                           persistent ThreadPool (tensor/thread_pool.hpp).
//                           No threads are created per call.
//
// All kernels compute, for row-major matrices:
//   C = alpha * op(A) * op(B) + beta * C
// where op transposes when the corresponding flag is set.
// A is M x K, B is K x N, C is M x N (after op).
#pragma once

#include <cstdint>

namespace dronet {

struct GemmArgs {
    bool trans_a = false;
    bool trans_b = false;
    int m = 0;
    int n = 0;
    int k = 0;
    float alpha = 1.0f;
    const float* a = nullptr;
    int lda = 0;
    const float* b = nullptr;
    int ldb = 0;
    float beta = 1.0f;
    float* c = nullptr;
    int ldc = 0;
};

/// Reference implementation; O(mnk) with no blocking. Ground truth in tests.
void gemm_naive(const GemmArgs& args);

/// Packed micro-kernel (the default used by the conv layers). Bit-exact with
/// gemm_naive for identical inputs.
void gemm_blocked(const GemmArgs& args);

/// gemm_blocked parallelized over row ranges of C with up to `threads` ways
/// on the shared persistent ThreadPool. threads <= 1 runs the serial packed
/// kernel. Results are bit-exact with gemm_naive regardless of thread count
/// (each C row is computed by exactly one thread, in the same order).
void gemm_threaded(const GemmArgs& args, int threads);

/// Convenience wrapper matching darknet's historic signature. Dispatches to
/// the packed kernel (pool-threaded when set_gemm_threads() > 1).
void gemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
          const float* a, int lda, const float* b, int ldb, float beta, float* c,
          int ldc);

/// Global thread count used by gemm(); defaults to 1. Values > 1 shard work
/// on the persistent pool; see docs/performance.md for how this interacts
/// with DetectionService workers.
void set_gemm_threads(int threads);
int gemm_threads();

/// FLOP count of a gemm call (2*m*n*k), for the platform cost model.
[[nodiscard]] std::int64_t gemm_flops(int m, int n, int k) noexcept;

}  // namespace dronet
