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
template <typename T>
void im2col_rows(const T* im, const ConvGeometry& geo, T* col, int row_begin,
                 int row_end) {
    const int oh = geo.out_h();
    const int ow = geo.out_w();
    const auto copy_row = run_copier(im);
    for (int r = row_begin; r < row_end; ++r) {
        const int kw = r % geo.ksize;
        const int kh = (r / geo.ksize) % geo.ksize;
        const int ch = r / (geo.ksize * geo.ksize);
        const T* plane = im + static_cast<std::int64_t>(ch) * geo.height * geo.width;
        T* out_row = col + static_cast<std::int64_t>(r) * oh * ow;
        for (int y = 0; y < oh; ++y) {
            const int iy = y * geo.stride + kh - geo.pad;
            if (iy < 0 || iy >= geo.height) {
                for (int x = 0; x < ow; ++x) out_row[y * ow + x] = T{};
                continue;
            }
            const T* in_row = plane + static_cast<std::int64_t>(iy) * geo.width;
            if (geo.stride == 1) {
                // Stride-1 rows are a contiguous copy once the left/right
                // padding edges are zero-filled: out x maps to ix = x+kw-pad.
                const int x_lo = std::max(0, geo.pad - kw);
                const int x_hi = std::min(ow, geo.width - kw + geo.pad);
                T* orow = out_row + static_cast<std::int64_t>(y) * ow;
                for (int x = 0; x < x_lo; ++x) orow[x] = T{};
                if (x_hi > x_lo) {
                    copy_row(orow + x_lo, in_row + x_lo + kw - geo.pad,
                             static_cast<std::size_t>(x_hi - x_lo));
                }
                for (int x = std::max(x_lo, x_hi); x < ow; ++x) orow[x] = T{};
                continue;
            }
            for (int x = 0; x < ow; ++x) {
                const int ix = x * geo.stride + kw - geo.pad;
                out_row[y * ow + x] = (ix >= 0 && ix < geo.width) ? in_row[ix] : T{};
            }
        }
    }
}

template <typename T>
void im2col_sharded(const T* im, const ConvGeometry& geo, T* col, int ways) {
    const int rows = geo.col_rows();
    // Below ~16k written elements the unroll is too cheap to shard.
    const std::int64_t cells = static_cast<std::int64_t>(rows) * geo.col_cols();
    if (ways <= 1 || cells < 16 * 1024) {
        im2col_rows(im, geo, col, 0, rows);
        return;
    }
    ThreadPool::instance().parallel_for(0, rows, ways, 1, [&](int lo, int hi) {
        im2col_rows(im, geo, col, lo, hi);
    });
}

}  // namespace

void im2col(const float* im, const ConvGeometry& geo, float* col) {
    im2col_rows(im, geo, col, 0, geo.col_rows());
}

void im2col_mt(const float* im, const ConvGeometry& geo, float* col, int ways) {
    im2col_sharded(im, geo, col, ways);
}

void im2col_mt(const std::int8_t* im, const ConvGeometry& geo, std::int8_t* col,
               int ways) {
    im2col_sharded(im, geo, col, ways);
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
