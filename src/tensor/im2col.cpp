#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "simd/kernels.hpp"
#include "tensor/thread_pool.hpp"

namespace dronet {
namespace {

/// The stride-1 contiguous run copy: the dispatched row kernel for floats
/// (fetched once per call), a plain memcpy for bytes.
auto run_copier(const float* /*tag*/) { return simd::kernels().copy_row; }
auto run_copier(const std::int8_t* /*tag*/) {
    return [](std::int8_t* dst, const std::int8_t* src, std::size_t n) {
        std::memcpy(dst, src, n);
    };
}

/// One lowering for every element type: it only copies or zero-fills, so the
/// int8 col matrix of a quantized input equals the quantized float col matrix.
/// Writes rows [row_begin, row_end) of the col matrix's column block
/// [col_begin, col_end): row r starts at col + r * (col_end - col_begin).
template <typename T>
void im2col_rows(const T* im, const ConvGeometry& geo, T* col, int row_begin,
                 int row_end, int col_begin, int col_end) {
    const int ow = geo.out_w();
    const int width = col_end - col_begin;
    // The block starts at column x_begin of output row y_begin; every later
    // output row it holds starts at column 0.
    const int y_begin = col_begin / ow;
    const int x_begin = col_begin - y_begin * ow;
    const auto copy_row = run_copier(im);
    for (int r = row_begin; r < row_end; ++r) {
        const int kw = r % geo.ksize;
        const int kh = (r / geo.ksize) % geo.ksize;
        const int ch = r / (geo.ksize * geo.ksize);
        const T* plane = im + static_cast<std::int64_t>(ch) * geo.height * geo.width;
        T* out = col + static_cast<std::int64_t>(r) * width;
        // One run per output row y: its columns [x0, x1) inside the block.
        for (int y = y_begin, x0 = x_begin, left = width; left > 0; ++y, x0 = 0) {
            const int x1 = std::min(ow, x0 + left);
            left -= x1 - x0;
            T* run = out;  // run[x - x0] is output column x of row y
            out += x1 - x0;
            const int iy = y * geo.stride + kh - geo.pad;
            if (iy < 0 || iy >= geo.height) {
                for (int x = x0; x < x1; ++x) run[x - x0] = T{};
                continue;
            }
            const T* in_row = plane + static_cast<std::int64_t>(iy) * geo.width;
            if (geo.stride == 1) {
                // Stride-1 runs are a contiguous copy once the left/right
                // padding edges are zero-filled: out x maps to ix = x+kw-pad,
                // inside the image for x in [x_lo, x_hi).
                const int x_lo = std::clamp(geo.pad - kw, x0, x1);
                const int x_hi = std::clamp(geo.width - kw + geo.pad, x_lo, x1);
                for (int x = x0; x < x_lo; ++x) run[x - x0] = T{};
                if (x_hi > x_lo) {
                    copy_row(run + (x_lo - x0), in_row + x_lo + kw - geo.pad,
                             static_cast<std::size_t>(x_hi - x_lo));
                }
                for (int x = x_hi; x < x1; ++x) run[x - x0] = T{};
                continue;
            }
            for (int x = x0; x < x1; ++x) {
                const int ix = x * geo.stride + kw - geo.pad;
                run[x - x0] = (ix >= 0 && ix < geo.width) ? in_row[ix] : T{};
            }
        }
    }
}

template <typename T>
void im2col_sharded(const T* im, const ConvGeometry& geo, int col_begin, int col_end,
                    T* col, int ways) {
    const int rows = geo.col_rows();
    // Below ~16k written elements the unroll is too cheap to shard.
    const std::int64_t cells = static_cast<std::int64_t>(rows) * (col_end - col_begin);
    if (ways <= 1 || cells < 16 * 1024) {
        im2col_rows(im, geo, col, 0, rows, col_begin, col_end);
        return;
    }
    ThreadPool::instance().parallel_for(0, rows, ways, 1, [&](int lo, int hi) {
        im2col_rows(im, geo, col, lo, hi, col_begin, col_end);
    });
}

}  // namespace

void im2col(const float* im, const ConvGeometry& geo, float* col) {
    im2col_rows(im, geo, col, 0, geo.col_rows(), 0, geo.col_cols());
}

void im2col_mt(const float* im, const ConvGeometry& geo, int col_begin, int col_end,
               float* col, int ways) {
    im2col_sharded(im, geo, col_begin, col_end, col, ways);
}

void im2col_mt(const std::int8_t* im, const ConvGeometry& geo, int col_begin,
               int col_end, std::int8_t* col, int ways) {
    im2col_sharded(im, geo, col_begin, col_end, col, ways);
}

void col2im(const float* col, const ConvGeometry& geo, float* im) {
    const int oh = geo.out_h();
    const int ow = geo.out_w();
    const int rows = geo.col_rows();
    for (int r = 0; r < rows; ++r) {
        const int kw = r % geo.ksize;
        const int kh = (r / geo.ksize) % geo.ksize;
        const int ch = r / (geo.ksize * geo.ksize);
        float* plane = im + static_cast<std::int64_t>(ch) * geo.height * geo.width;
        const float* in_row = col + static_cast<std::int64_t>(r) * oh * ow;
        for (int y = 0; y < oh; ++y) {
            const int iy = y * geo.stride + kh - geo.pad;
            if (iy < 0 || iy >= geo.height) continue;
            float* out_row = plane + static_cast<std::int64_t>(iy) * geo.width;
            for (int x = 0; x < ow; ++x) {
                const int ix = x * geo.stride + kw - geo.pad;
                if (ix >= 0 && ix < geo.width) out_row[ix] += in_row[y * ow + x];
            }
        }
    }
}

}  // namespace dronet
