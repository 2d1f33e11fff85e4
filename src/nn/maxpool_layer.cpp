#include "nn/maxpool_layer.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "simd/kernels.hpp"

namespace dronet {

MaxPoolLayer::MaxPoolLayer(const MaxPoolConfig& config, const Shape& input)
    : config_(config) {
    if (config.size <= 0 || config.stride <= 0) {
        throw std::invalid_argument("MaxPoolLayer: invalid config");
    }
    pad_ = config.padding >= 0 ? config.padding : config.size - 1;
    setup(input);
}

void MaxPoolLayer::setup(const Shape& input) {
    input_shape_ = input;
    const int out_h = (input.h + pad_ - config_.size) / config_.stride + 1;
    const int out_w = (input.w + pad_ - config_.size) / config_.stride + 1;
    if (out_h <= 0 || out_w <= 0) {
        throw std::invalid_argument("MaxPoolLayer: output collapses to zero for input " +
                                    input.str());
    }
    output_shape_ = Shape{input.n, input.c, out_h, out_w};
    output_.resize(output_shape_);
}

std::string MaxPoolLayer::describe() const {
    std::ostringstream os;
    os << "max " << config_.size << "x" << config_.size << "/" << config_.stride << "  "
       << input_shape_.w << "x" << input_shape_.h << "x" << input_shape_.c << " -> "
       << output_shape_.w << "x" << output_shape_.h << "x" << output_shape_.c;
    return os.str();
}

std::int64_t MaxPoolLayer::flops() const {
    return output_shape_.chw() * config_.size * config_.size;
}

void MaxPoolLayer::forward(const Tensor& input, Network&, bool) {
    if (input.shape() != input_shape_) {
        throw std::invalid_argument("MaxPoolLayer::forward: shape mismatch");
    }
    const int offset = -pad_ / 2;
    const int size = config_.size;
    const int stride = config_.stride;
    const int in_h = input_shape_.h;
    const int in_w = input_shape_.w;
    const int out_h = output_shape_.h;
    const int out_w = output_shape_.w;
    // Output columns [ox_lo, ox_hi) have every tap inside the row and go to
    // the kernel as one call; the border columns go one at a time with their
    // taps clipped to the row.
    const int ox_lo = std::min(out_w, (stride - 1 - offset) / stride);
    const int ox_hi = in_w - size - offset >= 0
                          ? std::clamp((in_w - size - offset) / stride + 1, ox_lo, out_w)
                          : ox_lo;
    const auto max_window_row = simd::kernels().max_window_row;
    const std::int64_t planes = static_cast<std::int64_t>(input_shape_.n) * input_shape_.c;
    for (std::int64_t p = 0; p < planes; ++p) {
        const float* plane = input.data() + p * in_h * in_w;
        float* out_plane = output_.data() + p * out_h * out_w;
        for (int oy = 0; oy < out_h; ++oy) {
            const int iy = offset + oy * stride;
            const int y0 = std::clamp(iy, 0, in_h);
            const int rows = std::clamp(iy + size, 0, in_h) - y0;
            // A window row wholly inside the padding (rows == 0) reads
            // nothing; min() only keeps its pointer inside the plane.
            const float* top =
                plane + static_cast<std::int64_t>(std::min(y0, in_h - 1)) * in_w;
            float* out_row = out_plane + static_cast<std::int64_t>(oy) * out_w;
            const auto pool = [&](int ox, int count) {
                const int ix = offset + ox * stride;
                const int x0 = std::clamp(ix, 0, in_w);
                max_window_row(top + x0, in_w, rows, std::clamp(ix + size, 0, in_w) - x0,
                               stride, out_row + ox, static_cast<std::size_t>(count));
            };
            for (int ox = 0; ox < ox_lo; ++ox) pool(ox, 1);
            if (ox_hi > ox_lo) pool(ox_lo, ox_hi - ox_lo);
            for (int ox = ox_hi; ox < out_w; ++ox) pool(ox, 1);
        }
    }
}

void MaxPoolLayer::backward(const Tensor& input, Tensor* input_delta, Network&) {
    if (input_delta == nullptr) return;
    // Re-finds each window's winner the way forward() picks it (first
    // strictly greater tap in scan order, from -FLT_MAX); a window with no
    // tap above -FLT_MAX routes nowhere.
    const int offset = -pad_ / 2;
    std::int64_t out_idx = 0;
    for (int b = 0; b < input_shape_.n; ++b) {
        for (int c = 0; c < input_shape_.c; ++c) {
            for (int oy = 0; oy < output_shape_.h; ++oy) {
                for (int ox = 0; ox < output_shape_.w; ++ox, ++out_idx) {
                    float best = -std::numeric_limits<float>::max();
                    std::int64_t best_idx = -1;
                    for (int ky = 0; ky < config_.size; ++ky) {
                        const int iy = offset + oy * config_.stride + ky;
                        if (iy < 0 || iy >= input_shape_.h) continue;
                        for (int kx = 0; kx < config_.size; ++kx) {
                            const int ix = offset + ox * config_.stride + kx;
                            if (ix < 0 || ix >= input_shape_.w) continue;
                            const std::int64_t idx = input.index(b, c, iy, ix);
                            if (input[idx] > best) {
                                best = input[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    if (best_idx >= 0) (*input_delta)[best_idx] += delta_[out_idx];
                }
            }
        }
    }
}

}  // namespace dronet
