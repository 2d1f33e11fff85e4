#include "tensor/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "simd/kernels.hpp"
#include "tensor/thread_pool.hpp"

namespace dronet {
namespace {

std::atomic<int> g_gemm_threads{1};

// Micro-kernel tile: up to kMr rows of C by kNr columns, accumulators held
// in registers. Six rows fit the AVX2 tile's register budget
// (simd::kGemmTileRows) and let a 5- or 6-filter conv pass over each B panel
// once.
constexpr int kMr = simd::kGemmTileRows;
constexpr int kNr = 16;

// Problems below this many multiply-accumulates run serially: a trip through
// the pool queue costs a few microseconds, which such calls finish in anyway.
constexpr std::int64_t kMinParallelMacs = 16 * 1024;

inline float a_elem(const GemmArgs& g, int i, int p) {
    return g.trans_a ? g.a[static_cast<std::int64_t>(p) * g.lda + i]
                     : g.a[static_cast<std::int64_t>(i) * g.lda + p];
}

inline float b_elem(const GemmArgs& g, int p, int j) {
    return g.trans_b ? g.b[static_cast<std::int64_t>(j) * g.ldb + p]
                     : g.b[static_cast<std::int64_t>(p) * g.ldb + j];
}

void validate(const GemmArgs& g) {
    if (g.m < 0 || g.n < 0 || g.k < 0) {
        throw std::invalid_argument("gemm: negative dimension");
    }
    if ((g.m > 0 && g.k > 0 && g.a == nullptr) ||
        (g.k > 0 && g.n > 0 && g.b == nullptr) ||
        (g.m > 0 && g.n > 0 && g.c == nullptr)) {
        throw std::invalid_argument("gemm: null matrix pointer");
    }
}

// ---- packing ---------------------------------------------------------------
// Panels are packed into thread-local scratch so worker threads never share
// buffers. Layout is k-major with a fixed tile stride (kMr / kNr); pad lanes
// of edge tiles are zero-filled so the fast kernels may read them.

float* a_scratch(std::size_t floats) {
    thread_local std::vector<float> buf;
    if (buf.size() < floats) buf.resize(floats);
    return buf.data();
}

float* b_scratch(std::size_t floats) {
    thread_local std::vector<float> buf;
    if (buf.size() < floats) buf.resize(floats);
    return buf.data();
}

/// dst[kk*kMr + ii] = op(A)(i0+ii, kk) for ii < mr, 0 for pad lanes.
void pack_a(const GemmArgs& g, int i0, int mr, float* dst) {
    if (!g.trans_a) {
        for (int kk = 0; kk < g.k; ++kk) {
            float* out = dst + static_cast<std::int64_t>(kk) * kMr;
            for (int ii = 0; ii < mr; ++ii) {
                out[ii] = g.a[static_cast<std::int64_t>(i0 + ii) * g.lda + kk];
            }
            for (int ii = mr; ii < kMr; ++ii) out[ii] = 0.0f;
        }
    } else {
        for (int kk = 0; kk < g.k; ++kk) {
            const float* src = g.a + static_cast<std::int64_t>(kk) * g.lda + i0;
            float* out = dst + static_cast<std::int64_t>(kk) * kMr;
            for (int ii = 0; ii < mr; ++ii) out[ii] = src[ii];
            for (int ii = mr; ii < kMr; ++ii) out[ii] = 0.0f;
        }
    }
}

/// dst[kk*kNr + jj] = op(B)(kk, j0+jj) for jj < nr (trans_b layout only).
void pack_b(const GemmArgs& g, int j0, int nr, float* dst) {
    for (int kk = 0; kk < g.k; ++kk) {
        float* out = dst + static_cast<std::int64_t>(kk) * kNr;
        for (int jj = 0; jj < nr; ++jj) {
            out[jj] = g.b[static_cast<std::int64_t>(j0 + jj) * g.ldb + kk];
        }
        for (int jj = nr; jj < kNr; ++jj) out[jj] = 0.0f;
    }
}

// ---- micro-kernels ---------------------------------------------------------
// Every kernel accumulates each C element over the full k range in ascending
// order into a fresh float accumulator and finishes with
//   c = alpha * acc + beta * c,  or  c = alpha * acc  when beta == 0
// which is the exact operation sequence of gemm_naive — hence bit-exact
// results, independent of tiling and thread count. beta == 0 never reads C
// (the BLAS convention): 0 * NaN is NaN, so reading it would let whatever C
// held before leak into the result.

void write_tile(const GemmArgs& g, const float acc[kMr][kNr], int i0, int j0,
                int mr, int nr) {
    for (int ii = 0; ii < mr; ++ii) {
        float* crow = g.c + static_cast<std::int64_t>(i0 + ii) * g.ldc + j0;
        if (g.beta == 0.0f) {
            for (int jj = 0; jj < nr; ++jj) crow[jj] = g.alpha * acc[ii][jj];
        } else {
            for (int jj = 0; jj < nr; ++jj) {
                crow[jj] = g.alpha * acc[ii][jj] + g.beta * crow[jj];
            }
        }
    }
}

/// Tile of mr rows by nr columns in the reference loop order: every tile on
/// the scalar level, and the n % kNr column tail on every level. Full tiles
/// instantiate NR = kNr, a fixed-width inner loop the compiler vectorizes
/// (separate multiplies and adds, so the same roundings); NR = 0 runs nr
/// columns. Row kk of the B panel starts at b + kk * b_stride: B in place
/// (stride ldb, !trans_b) or a packed panel (stride kNr, trans_b).
template <int NR>
void micro_tile(const GemmArgs& g, const float* ap, const float* b,
                std::int64_t b_stride, int i0, int j0, int mr, int nr) {
    const int width = NR > 0 ? NR : nr;
    float acc[kMr][kNr] = {};
    for (int kk = 0; kk < g.k; ++kk) {
        const float* brow = b + kk * b_stride;
        const float* av = ap + static_cast<std::int64_t>(kk) * kMr;
        for (int ii = 0; ii < mr; ++ii) {
            const float a = av[ii];
#pragma GCC unroll 16
            for (int jj = 0; jj < width; ++jj) acc[ii][jj] += a * brow[jj];
        }
    }
    write_tile(g, acc, i0, j0, mr, width);
}

/// Height of row tile t when `rows` rows are split into the fewest tiles of
/// at most kMr rows, spread evenly: 5 -> 5, 10 -> 5+5, 19 -> 5+5+5+4,
/// 38 -> 6+6+6+5+5+5+5.
int tile_rows(int rows, int t) {
    const int tiles = (rows + kMr - 1) / kMr;
    return rows / tiles + (t < rows % tiles ? 1 : 0);
}

/// Packed kernel over a row range [row_begin, row_end) of C.
void packed_rows(const GemmArgs& g, int row_begin, int row_end) {
    if (row_begin >= row_end || g.n <= 0) return;
    if (g.k <= 0) {
        // Degenerate k: acc is 0; the same expressions as gemm_naive.
        for (int i = row_begin; i < row_end; ++i) {
            float* crow = g.c + static_cast<std::int64_t>(i) * g.ldc;
            for (int j = 0; j < g.n; ++j) {
                crow[j] = g.beta == 0.0f ? g.alpha * 0.0f
                                         : g.alpha * 0.0f + g.beta * crow[j];
            }
        }
        return;
    }
    // Fetched once per row range: null on the scalar level (the reference
    // loop below stays the kernel), the FMA tile on AVX2. Every tile with 16
    // full columns dispatches, whatever its row count; only the n % 16 column
    // tail takes the scalar loop.
    const auto micro_simd = simd::kernels().gemm_micro_rx16;
    const int rows = row_end - row_begin;
    float* ap = a_scratch(static_cast<std::size_t>(kMr) * std::max(1, g.k));
    if (!g.trans_b) {
        for (int i0 = row_begin, t = 0; i0 < row_end; ++t) {
            const int mr = tile_rows(rows, t);
            pack_a(g, i0, mr, ap);
            int j0 = 0;
            if (micro_simd != nullptr) {
                for (; j0 + kNr <= g.n; j0 += kNr) {
                    micro_simd(ap, g.b + j0, g.ldb, g.k, g.alpha, g.beta,
                               g.c + static_cast<std::int64_t>(i0) * g.ldc + j0,
                               g.ldc, mr);
                }
            } else {
                for (; j0 + kNr <= g.n; j0 += kNr) {
                    micro_tile<kNr>(g, ap, g.b + j0, g.ldb, i0, j0, mr, kNr);
                }
            }
            if (j0 < g.n) micro_tile<0>(g, ap, g.b + j0, g.ldb, i0, j0, mr, g.n - j0);
            i0 += mr;
        }
    } else {
        // op(B) columns are strided in memory; pack one k x kNr panel at a
        // time and sweep the row range against it. A is repacked per panel —
        // ~1/kNr of the multiply work, which the contiguous inner loop repays.
        float* bp = b_scratch(static_cast<std::size_t>(kNr) * std::max(1, g.k));
        for (int j0 = 0; j0 < g.n; j0 += kNr) {
            const int nr = std::min(kNr, g.n - j0);
            pack_b(g, j0, nr, bp);
            for (int i0 = row_begin, t = 0; i0 < row_end; ++t) {
                const int mr = tile_rows(rows, t);
                pack_a(g, i0, mr, ap);
                if (nr == kNr && micro_simd != nullptr) {
                    micro_simd(ap, bp, kNr, g.k, g.alpha, g.beta,
                               g.c + static_cast<std::int64_t>(i0) * g.ldc + j0,
                               g.ldc, mr);
                } else if (nr == kNr) {
                    micro_tile<kNr>(g, ap, bp, kNr, i0, j0, mr, kNr);
                } else {
                    micro_tile<0>(g, ap, bp, kNr, i0, j0, mr, nr);
                }
                i0 += mr;
            }
        }
    }
}

}  // namespace

void gemm_naive(const GemmArgs& g) {
    validate(g);
    for (int i = 0; i < g.m; ++i) {
        for (int j = 0; j < g.n; ++j) {
            float acc = 0.0f;
            for (int p = 0; p < g.k; ++p) acc += a_elem(g, i, p) * b_elem(g, p, j);
            float& c = g.c[static_cast<std::int64_t>(i) * g.ldc + j];
            c = g.beta == 0.0f ? g.alpha * acc : g.alpha * acc + g.beta * c;
        }
    }
}

void gemm_blocked(const GemmArgs& g) {
    validate(g);
    packed_rows(g, 0, g.m);
}

void gemm_threaded(const GemmArgs& g, int threads) {
    validate(g);
    if (g.m <= 0) return;
    threads = std::max(1, threads);
    const std::int64_t macs = static_cast<std::int64_t>(g.m) * g.n * g.k;
    if (threads == 1 || macs < kMinParallelMacs) {
        packed_rows(g, 0, g.m);
        return;
    }
    ThreadPool::instance().parallel_for(
        0, g.m, threads, kMr,
        [&g](int lo, int hi) { packed_rows(g, lo, hi); });
}

void gemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
          const float* a, int lda, const float* b, int ldb, float beta, float* c,
          int ldc) {
    const GemmArgs g{trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc};
    gemm_threaded(g, g_gemm_threads.load(std::memory_order_relaxed));
}

void set_gemm_threads(int threads) {
    g_gemm_threads.store(std::max(1, threads), std::memory_order_relaxed);
}

int gemm_threads() { return g_gemm_threads.load(std::memory_order_relaxed); }

std::int64_t gemm_flops(int m, int n, int k) noexcept {
    return 2LL * m * n * k;
}

}  // namespace dronet
