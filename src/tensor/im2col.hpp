// im2col / col2im lowering.
//
// Convolution is executed as GEMM over an unrolled patch matrix, the darknet
// strategy the paper relies on for CPU deployment. col2im is the adjoint
// operation used by the backward pass during training.
#pragma once

#include <cstdint>

namespace dronet {

struct ConvGeometry {
    int channels = 0;   ///< input channels
    int height = 0;     ///< input height
    int width = 0;      ///< input width
    int ksize = 1;      ///< square kernel size
    int stride = 1;
    int pad = 0;

    [[nodiscard]] int out_h() const noexcept {
        return (height + 2 * pad - ksize) / stride + 1;
    }
    [[nodiscard]] int out_w() const noexcept {
        return (width + 2 * pad - ksize) / stride + 1;
    }
    /// Rows of the unrolled matrix: channels * ksize * ksize.
    [[nodiscard]] int col_rows() const noexcept { return channels * ksize * ksize; }
    /// Columns of the unrolled matrix: out_h * out_w.
    [[nodiscard]] int col_cols() const noexcept { return out_h() * out_w(); }
};

/// Unrolls `im` (CHW, geometry `geo`) into `col`, a row-major matrix of
/// col_rows() x col_cols(). Out-of-image taps read as zero (zero padding).
void im2col(const float* im, const ConvGeometry& geo, float* col);

/// im2col with its rows sharded across the persistent ThreadPool in up to
/// `ways` chunks. Output is identical to im2col (each row is written by
/// exactly one thread); `ways <= 1` or a small unroll runs serially. The conv
/// layers pass set_gemm_threads() here so one knob controls both lowering
/// and GEMM parallelism.
void im2col_mt(const float* im, const ConvGeometry& geo, float* col, int ways);

/// The same lowering over int8 (the quantized conv path, nn/quantize):
/// im2col only copies or zero-pads and quantize(0) == 0, so lowering a
/// quantized input gives exactly the bytes of quantizing the float col matrix.
void im2col_mt(const std::int8_t* im, const ConvGeometry& geo, std::int8_t* col,
               int ways);

/// Adjoint of im2col: accumulates `col` back into `im` (im must be
/// pre-initialized; contributions are added, matching gradient semantics).
void col2im(const float* col, const ConvGeometry& geo, float* im);

}  // namespace dronet
