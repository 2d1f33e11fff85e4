#include "nn/conv_layer.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "nn/network.hpp"
#include "simd/kernels.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_i8.hpp"
#include "tensor/ops.hpp"

namespace dronet {

ConvolutionalLayer::ConvolutionalLayer(const ConvConfig& config, const Shape& input,
                                       Rng& rng)
    : config_(config) {
    if (config.filters <= 0 || config.ksize <= 0 || config.stride <= 0 || config.pad < 0) {
        throw std::invalid_argument("ConvolutionalLayer: invalid config");
    }
    const int fan_in = input.c * config.ksize * config.ksize;
    weights_ = Param(static_cast<std::size_t>(config.filters) * fan_in, true, "weights");
    biases_ = Param(static_cast<std::size_t>(config.filters), false, "biases");
    rng.fill_he(weights_.v, fan_in);
    if (config.batch_normalize) {
        scales_ = Param(static_cast<std::size_t>(config.filters), false, "scales");
        std::fill(scales_.v.begin(), scales_.v.end(), 1.0f);
        rolling_mean_.assign(static_cast<std::size_t>(config.filters), 0.0f);
        rolling_variance_.assign(static_cast<std::size_t>(config.filters), 1.0f);
        mean_.assign(static_cast<std::size_t>(config.filters), 0.0f);
        variance_.assign(static_cast<std::size_t>(config.filters), 0.0f);
    }
    setup(input);
}

void ConvolutionalLayer::setup(const Shape& input) {
    input_shape_ = input;
    geo_ = ConvGeometry{input.c, input.h, input.w, config_.ksize, config_.stride,
                        config_.pad};
    if (geo_.out_h() <= 0 || geo_.out_w() <= 0) {
        throw std::invalid_argument("ConvolutionalLayer: output collapses to zero for input " +
                                    input.str());
    }
    output_shape_ = Shape{input.n, config_.filters, geo_.out_h(), geo_.out_w()};
    output_.resize(output_shape_);
}

std::string ConvolutionalLayer::describe() const {
    std::ostringstream os;
    os << "conv " << config_.filters << " " << config_.ksize << "x" << config_.ksize
       << "/" << config_.stride << "  " << input_shape_.w << "x" << input_shape_.h
       << "x" << input_shape_.c << " -> " << output_shape_.w << "x" << output_shape_.h
       << "x" << output_shape_.c;
    if (config_.batch_normalize) os << " bn";
    os << " " << to_string(config_.activation);
    return os.str();
}

std::vector<Param*> ConvolutionalLayer::params() {
    std::vector<Param*> out{&weights_, &biases_};
    if (config_.batch_normalize) out.push_back(&scales_);
    return out;
}

std::vector<std::vector<float>*> ConvolutionalLayer::serialized_stats() {
    if (!config_.batch_normalize) return {};
    return {&rolling_mean_, &rolling_variance_};
}

std::int64_t ConvolutionalLayer::flops() const {
    // 2 MACs-per-multiply convention; plus per-element bias/BN/activation.
    const std::int64_t out_hw = output_shape_.hw();
    const std::int64_t macs = out_hw * config_.filters *
                              static_cast<std::int64_t>(input_shape_.c) *
                              config_.ksize * config_.ksize;
    return 2 * macs + 3 * out_hw * config_.filters;
}

std::size_t ConvolutionalLayer::workspace_bytes() const {
    const auto cols = static_cast<std::size_t>(geo_.col_cols());
    const std::size_t col_bytes =
        is_1x1() ? 0 : static_cast<std::size_t>(geo_.col_rows()) * cols;
    if (precision_ == Precision::kInt8) {
        // forward_int8's int32 accumulators, quantized input and col matrix.
        return sizeof(std::int32_t) * static_cast<std::size_t>(config_.filters) * cols +
               static_cast<std::size_t>(input_shape_.chw()) + col_bytes;
    }
    return sizeof(float) * col_bytes;
}

std::int64_t ConvolutionalLayer::memory_bytes() const {
    return Layer::memory_bytes() +
           static_cast<std::int64_t>(sizeof(float)) *
               static_cast<std::int64_t>(weights_.size() + 3 * biases_.size());
}

void ConvolutionalLayer::batchnorm_forward(bool train) {
    const int batch = output_shape_.n;
    const int channels = output_shape_.c;
    const int spatial = static_cast<int>(output_shape_.hw());
    auto out = output_.span();
    if (train) {
        channel_mean(out, batch, channels, spatial, mean_);
        channel_variance(out, mean_, batch, channels, spatial, variance_);
        for (int c = 0; c < channels; ++c) {
            rolling_mean_[static_cast<std::size_t>(c)] =
                kBnMomentum * rolling_mean_[static_cast<std::size_t>(c)] +
                (1 - kBnMomentum) * mean_[static_cast<std::size_t>(c)];
            rolling_variance_[static_cast<std::size_t>(c)] =
                kBnMomentum * rolling_variance_[static_cast<std::size_t>(c)] +
                (1 - kBnMomentum) * variance_[static_cast<std::size_t>(c)];
        }
        normalize_channels(out, mean_, variance_, batch, channels, spatial, kBnEps);
        x_norm_.resize(output_shape_);  // allocated by the first training pass
        copy(out, x_norm_.span());
    } else {
        normalize_channels(out, rolling_mean_, rolling_variance_, batch, channels,
                           spatial, kBnEps);
    }
    scale_channels(out, scales_.v, batch, channels, spatial);
}

void ConvolutionalLayer::forward(const Tensor& input, Network& net, bool train) {
    if (input.shape() != input_shape_) {
        throw std::invalid_argument("ConvolutionalLayer::forward: shape mismatch");
    }
    if (train && precision_ != Precision::kF32) {
        throw std::logic_error("ConvolutionalLayer::forward: int8 is inference-only");
    }
    if (precision_ == Precision::kInt8) {
        forward_int8(input, net);
        return;
    }
    const int out_hw = static_cast<int>(output_shape_.hw());
    const int col_rows = geo_.col_rows();
    for (int b = 0; b < input.shape().n; ++b) {
        const float* in_b = input.data() + static_cast<std::int64_t>(b) * input.shape().chw();
        float* out_b = output_.data() + static_cast<std::int64_t>(b) * output_shape_.chw();
        const float* col = in_b;
        if (!is_1x1()) {
            auto* ws = reinterpret_cast<float*>(net.workspace());
            im2col_mt(in_b, geo_, ws, gemm_threads());
            col = ws;
        }
        gemm(false, false, config_.filters, out_hw, col_rows, 1.0f, weights_.v.data(),
             col_rows, col, out_hw, 0.0f, out_b, out_hw);
    }
    if (config_.batch_normalize) batchnorm_forward(train);
    add_channel_bias(output_.span(), biases_.v, output_shape_.n, output_shape_.c,
                     static_cast<int>(output_shape_.hw()));
    apply_activation(config_.activation, output_.span());
}

// Per batch item: quantize the input once with the calibrated static scale,
// lower the bytes (im2col only copies or zero-pads and quantize(0) == 0, so
// this col matrix is bit-identical to quantizing a float col matrix, at
// 1/ksize^2 of the quantize work), gemm_i8 into int32, then requantize each
// output row (acc * requant[f] + bias[f]) and apply the activation.
void ConvolutionalLayer::forward_int8(const Tensor& input, Network& net) {
    const int out_hw = geo_.col_cols();
    const int col_rows = geo_.col_rows();
    const std::int64_t in_chw = input_shape_.chw();
    const std::int64_t out_chw = output_shape_.chw();
    // Workspace layout (workspace_bytes): accumulators, input, col matrix.
    auto* acc = reinterpret_cast<std::int32_t*>(net.workspace());
    auto* in_q =
        reinterpret_cast<std::int8_t*>(acc + static_cast<std::int64_t>(config_.filters) * out_hw);
    std::int8_t* col_q = in_q + in_chw;
    const auto requant_row = simd::kernels().requant_row;
    for (int b = 0; b < input.shape().n; ++b) {
        quantize_buffer(input.data() + b * in_chw, in_chw, int8_.input_scale, in_q);
        const std::int8_t* col = in_q;
        if (!is_1x1()) {
            im2col_mt(in_q, geo_, col_q, gemm_threads());
            col = col_q;
        }
        gemm_i8(config_.filters, out_hw, col_rows, int8_.weights.data(), col_rows, col,
                out_hw, acc, out_hw);
        float* out_b = output_.data() + b * out_chw;
        for (int f = 0; f < config_.filters; ++f) {
            const auto fi = static_cast<std::size_t>(f);
            requant_row(acc + static_cast<std::int64_t>(f) * out_hw,
                        static_cast<std::size_t>(out_hw), int8_.requant[fi], biases_.v[fi],
                        out_b + static_cast<std::int64_t>(f) * out_hw);
        }
        apply_activation(config_.activation,
                         std::span<float>(out_b, static_cast<std::size_t>(out_chw)));
    }
}

void ConvolutionalLayer::batchnorm_backward() {
    const int batch = output_shape_.n;
    const int channels = output_shape_.c;
    const int spatial = static_cast<int>(output_shape_.hw());
    const float count = static_cast<float>(batch) * static_cast<float>(spatial);
    for (int c = 0; c < channels; ++c) {
        // Accumulate dgamma and the two means needed for dx.
        double sum_delta = 0.0;
        double sum_delta_xnorm = 0.0;
        for (int b = 0; b < batch; ++b) {
            const std::int64_t base = (static_cast<std::int64_t>(b) * channels + c) * spatial;
            for (int i = 0; i < spatial; ++i) {
                sum_delta += delta_[base + i];
                sum_delta_xnorm +=
                    static_cast<double>(delta_[base + i]) * x_norm_[base + i];
            }
        }
        scales_.g[static_cast<std::size_t>(c)] += static_cast<float>(sum_delta_xnorm);
        const float mean_delta = static_cast<float>(sum_delta) / count;
        const float mean_delta_xnorm = static_cast<float>(sum_delta_xnorm) / count;
        const float gamma_inv_std =
            scales_.v[static_cast<std::size_t>(c)] /
            std::sqrt(variance_[static_cast<std::size_t>(c)] + kBnEps);
        for (int b = 0; b < batch; ++b) {
            const std::int64_t base = (static_cast<std::int64_t>(b) * channels + c) * spatial;
            for (int i = 0; i < spatial; ++i) {
                delta_[base + i] = gamma_inv_std * (delta_[base + i] - mean_delta -
                                                    x_norm_[base + i] * mean_delta_xnorm);
            }
        }
    }
}

void ConvolutionalLayer::backward(const Tensor& input, Tensor* input_delta, Network& net) {
    apply_activation_gradient(config_.activation, output_.span(), delta_.span());
    backward_channel_bias(biases_.g, delta_.span(), output_shape_.n, output_shape_.c,
                          static_cast<int>(output_shape_.hw()));
    if (config_.batch_normalize) batchnorm_backward();

    const int out_hw = static_cast<int>(output_shape_.hw());
    const int col_rows = geo_.col_rows();
    auto* ws = reinterpret_cast<float*>(net.workspace());
    for (int b = 0; b < input.shape().n; ++b) {
        const float* in_b = input.data() + static_cast<std::int64_t>(b) * input.shape().chw();
        const float* delta_b =
            delta_.data() + static_cast<std::int64_t>(b) * output_shape_.chw();
        // dW += delta_b * col^T
        const float* col = in_b;
        if (!is_1x1()) {
            im2col_mt(in_b, geo_, ws, gemm_threads());
            col = ws;
        }
        gemm(false, true, config_.filters, col_rows, out_hw, 1.0f, delta_b, out_hw, col,
             out_hw, 1.0f, weights_.g.data(), col_rows);
        if (input_delta != nullptr) {
            float* in_delta_b =
                input_delta->data() + static_cast<std::int64_t>(b) * input.shape().chw();
            if (is_1x1()) {
                // dcol aliases the input plane directly: accumulate W^T * delta.
                gemm(true, false, col_rows, out_hw, config_.filters, 1.0f,
                     weights_.v.data(), col_rows, delta_b, out_hw, 1.0f, in_delta_b,
                     out_hw);
            } else {
                gemm(true, false, col_rows, out_hw, config_.filters, 1.0f,
                     weights_.v.data(), col_rows, delta_b, out_hw, 0.0f, ws, out_hw);
                col2im(ws, geo_, in_delta_b);
            }
        }
    }
}

void ConvolutionalLayer::fold_batchnorm() {
    if (!config_.batch_normalize) return;
    const int fan_in = input_shape_.c * config_.ksize * config_.ksize;
    for (int f = 0; f < config_.filters; ++f) {
        const float inv_std =
            1.0f / std::sqrt(rolling_variance_[static_cast<std::size_t>(f)] + kBnEps);
        const float gamma = scales_.v[static_cast<std::size_t>(f)];
        const float scale = gamma * inv_std;
        for (int i = 0; i < fan_in; ++i) {
            weights_.v[static_cast<std::size_t>(f) * fan_in + i] *= scale;
        }
        // beta - gamma * mean / std becomes the plain bias.
        biases_.v[static_cast<std::size_t>(f)] -=
            rolling_mean_[static_cast<std::size_t>(f)] * scale;
    }
    config_.batch_normalize = false;
    scales_ = Param();
    rolling_mean_.clear();
    rolling_variance_.clear();
    x_norm_ = Tensor();
}

void ConvolutionalLayer::set_precision(Precision precision, float input_max_abs) {
    if (precision == Precision::kInt8) fold_batchnorm();
    precision_ = precision;
    int8_ = Int8Weights{};
    if (precision == Precision::kInt8) {
        const int fan_in = input_shape_.c * config_.ksize * config_.ksize;
        const auto filters = static_cast<std::size_t>(config_.filters);
        int8_.input_scale = input_max_abs > 0.0f ? input_max_abs / 127.0f : 1.0f;
        int8_.weights.resize(weights_.size());
        int8_.scales.resize(filters);
        int8_.requant.resize(filters);
        for (std::size_t f = 0; f < filters; ++f) {
            const float* row = weights_.v.data() + static_cast<std::int64_t>(f) * fan_in;
            const float scale = quantization_scale(row, fan_in);
            int8_.scales[f] = scale;
            int8_.requant[f] = scale * int8_.input_scale;
            quantize_buffer(row, fan_in, scale,
                            int8_.weights.data() + static_cast<std::int64_t>(f) * fan_in);
        }
    }
}

std::size_t ConvolutionalLayer::weight_bytes() const noexcept {
    const std::size_t bias_bytes = biases_.size() * sizeof(float);
    switch (precision_) {
        case Precision::kInt8:
            return int8_.weights.size() +
                   (int8_.scales.size() + int8_.requant.size()) * sizeof(float) + bias_bytes;
        case Precision::kF32:
            break;
    }
    return weights_.size() * sizeof(float) + bias_bytes;
}

void ConvolutionalLayer::forward_direct(const Tensor& input, Tensor& out) const {
    if (input.shape() != input_shape_) {
        throw std::invalid_argument("forward_direct: shape mismatch");
    }
    if (config_.batch_normalize) {
        throw std::logic_error("forward_direct: fold batch norm first");
    }
    out.resize(output_shape_);
    const int k = config_.ksize;
    for (int b = 0; b < input.shape().n; ++b) {
        for (int f = 0; f < config_.filters; ++f) {
            const float* w = weights_.v.data() +
                             static_cast<std::int64_t>(f) * input_shape_.c * k * k;
            for (int oy = 0; oy < output_shape_.h; ++oy) {
                for (int ox = 0; ox < output_shape_.w; ++ox) {
                    float acc = biases_.v[static_cast<std::size_t>(f)];
                    for (int c = 0; c < input_shape_.c; ++c) {
                        for (int ky = 0; ky < k; ++ky) {
                            const int iy = oy * config_.stride + ky - config_.pad;
                            if (iy < 0 || iy >= input_shape_.h) continue;
                            for (int kx = 0; kx < k; ++kx) {
                                const int ix = ox * config_.stride + kx - config_.pad;
                                if (ix < 0 || ix >= input_shape_.w) continue;
                                acc += w[(c * k + ky) * k + kx] *
                                       input[input.index(b, c, iy, ix)];
                            }
                        }
                    }
                    out[out.index(b, f, oy, ox)] = activate(config_.activation, acc);
                }
            }
        }
    }
}

}  // namespace dronet
