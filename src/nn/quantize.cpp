#include "nn/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "simd/kernels.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_i8.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace dronet {
namespace {

[[nodiscard]] float max_abs_of(std::span<const float> data) noexcept {
    float mx = 0.0f;
    for (const float v : data) mx = std::max(mx, std::fabs(v));
    return mx;
}

/// Live lowering geometry for a quantized layer — derived per call from the
/// source layer so set_batch / resize_input are picked up automatically.
[[nodiscard]] ConvGeometry live_geometry(const QuantizedConv& qc,
                                         const ConvolutionalLayer& conv) noexcept {
    const Shape& in = conv.input_shape();
    return ConvGeometry{in.c, in.h, in.w, qc.config.ksize, qc.config.stride,
                        qc.config.pad};
}

/// 1x1 stride-1 unpadded convs multiply the quantized input directly; every
/// other geometry is lowered to a col matrix first.
[[nodiscard]] bool needs_lowering(const QuantizedConv& qc) noexcept {
    return qc.config.ksize != 1 || qc.config.stride != 1 || qc.config.pad != 0;
}

}  // namespace

float QuantizedConv::mean_weight_error(const ConvolutionalLayer& source) const {
    double err = 0;
    for (int f = 0; f < config.filters; ++f) {
        for (int i = 0; i < fan_in; ++i) {
            const std::size_t idx = static_cast<std::size_t>(f) * fan_in + i;
            const float deq = static_cast<float>(weights[idx]) * scales[static_cast<std::size_t>(f)];
            err += std::fabs(deq - source.weights().v[idx]);
        }
    }
    return static_cast<float>(err / (static_cast<double>(config.filters) * fan_in));
}

Int8Calibration QuantizedNetwork::calibrate(Network& net,
                                            std::span<const Tensor> samples) {
    if (samples.empty()) {
        throw std::invalid_argument("QuantizedNetwork::calibrate: no samples");
    }
    // Fold first: quantized inference runs on the folded network, so the
    // recorded ranges must come from folded float forwards.
    net.fold_batchnorm();
    Int8Calibration calib;
    for (const Tensor& sample : samples) {
        if (sample.shape() != net.input_shape()) {
            throw std::invalid_argument(
                "QuantizedNetwork::calibrate: sample shape mismatch");
        }
        net.forward(sample, /*train=*/false);
        std::size_t slot = 0;
        for (std::size_t i = 0; i < net.num_layers(); ++i) {
            if (net.layer(static_cast<int>(i)).kind() != LayerKind::kConvolutional) {
                continue;
            }
            // The conv's input is the previous layer's output (the network
            // input for layer 0) — the tensor the quantized forward quantizes.
            const Tensor& in = i == 0 ? sample : net.layer(static_cast<int>(i) - 1).output();
            const float mx = max_abs_of(in.span());
            if (slot == calib.max_abs.size()) calib.max_abs.push_back(0.0f);
            calib.max_abs[slot] = std::max(calib.max_abs[slot], mx);
            ++slot;
        }
    }
    return calib;
}

Int8Calibration QuantizedNetwork::self_calibrate(Network& net) {
    const Shape in = net.input_shape();
    std::vector<Tensor> samples;
    // Constant frames bound the aligned-filter response, the ramp adds
    // low-frequency structure, seeded noise adds texture — a deterministic
    // stand-in for representative [0,1] imagery (docs/quantization.md).
    samples.emplace_back(in);
    samples.back().fill(0.5f);
    samples.emplace_back(in);
    samples.back().fill(1.0f);
    Tensor ramp(in);
    for (int n = 0; n < in.n; ++n) {
        for (int c = 0; c < in.c; ++c) {
            for (int h = 0; h < in.h; ++h) {
                for (int w = 0; w < in.w; ++w) {
                    const float y = in.h > 1 ? static_cast<float>(h) / static_cast<float>(in.h - 1) : 0.0f;
                    const float x = in.w > 1 ? static_cast<float>(w) / static_cast<float>(in.w - 1) : 0.0f;
                    ramp[ramp.index(n, c, h, w)] = 0.5f * (x + y);
                }
            }
        }
    }
    samples.push_back(std::move(ramp));
    Tensor noise(in);
    Rng rng(0x178cu);
    rng.fill_uniform(noise.span(), 0.0f, 1.0f);
    samples.push_back(std::move(noise));
    return calibrate(net, samples);
}

QuantizedNetwork::QuantizedNetwork(Network& net, const Int8Calibration& calibration)
    : net_(net), calibration_(calibration) {
    net_.fold_batchnorm();
    std::size_t slot = 0;
    for (std::size_t i = 0; i < net_.num_layers(); ++i) {
        auto* conv = dynamic_cast<ConvolutionalLayer*>(&net_.layer(static_cast<int>(i)));
        if (conv == nullptr) continue;
        if (slot >= calibration_.layer_count()) {
            throw std::invalid_argument(
                "QuantizedNetwork: calibration covers fewer conv layers than the network");
        }
        QuantizedConv qc;
        qc.layer_index = static_cast<int>(i);
        qc.config = conv->config();
        qc.fan_in = conv->input_shape().c * qc.config.ksize * qc.config.ksize;
        const float in_max = calibration_.max_abs[slot];
        qc.input_scale = in_max > 0.0f ? in_max / 127.0f : 1.0f;
        qc.weights.resize(static_cast<std::size_t>(qc.config.filters) * qc.fan_in);
        qc.scales.resize(static_cast<std::size_t>(qc.config.filters));
        qc.requant.resize(static_cast<std::size_t>(qc.config.filters));
        qc.biases = conv->biases().v;
        for (int f = 0; f < qc.config.filters; ++f) {
            const float* row = conv->weights().v.data() + static_cast<std::int64_t>(f) * qc.fan_in;
            const float scale = quantization_scale(row, qc.fan_in);
            qc.scales[static_cast<std::size_t>(f)] = scale;
            qc.requant[static_cast<std::size_t>(f)] = scale * qc.input_scale;
            quantize_buffer(row, qc.fan_in, scale,
                            qc.weights.data() + static_cast<std::int64_t>(f) * qc.fan_in);
        }
        convs_.push_back(conv);
        quantized_.push_back(std::move(qc));
        ++slot;
    }
    if (slot != calibration_.layer_count()) {
        throw std::invalid_argument(
            "QuantizedNetwork: calibration covers more conv layers than the network");
    }
    // Pre-size scratch for the construction-time geometry; forwards at this
    // size or smaller (re-batch, degraded input) never allocate again.
    ensure_scratch();
    scratch_grows_ = 0;
}

QuantizedNetwork::QuantizedNetwork(Network& net)
    : QuantizedNetwork(net, self_calibrate(net)) {}

void QuantizedNetwork::ensure_scratch() {
    std::size_t in_need = 0;
    std::size_t col_need = 0;
    std::size_t acc_need = 0;
    for (std::size_t qi = 0; qi < quantized_.size(); ++qi) {
        const QuantizedConv& qc = quantized_[qi];
        const ConvGeometry geo = live_geometry(qc, *convs_[qi]);
        const auto cols = static_cast<std::size_t>(geo.col_cols());
        in_need = std::max(in_need, static_cast<std::size_t>(convs_[qi]->input_shape().chw()));
        if (needs_lowering(qc)) {
            col_need = std::max(col_need, static_cast<std::size_t>(geo.col_rows()) * cols);
        }
        acc_need = std::max(acc_need, static_cast<std::size_t>(qc.config.filters) * cols);
    }
    if (in_need <= in_i8_.size() && col_need <= col_i8_.size() && acc_need <= acc_.size()) {
        return;
    }
    ++scratch_grows_;
    if (in_need > in_i8_.size()) in_i8_.resize(in_need);
    if (col_need > col_i8_.size()) col_i8_.resize(col_need);
    if (acc_need > acc_.size()) acc_.resize(acc_need);
}

void QuantizedNetwork::forward_quantized_conv(const QuantizedConv& qc,
                                              const ConvolutionalLayer& conv,
                                              const Tensor& input, Tensor& output) {
    const ConvGeometry geo = live_geometry(qc, conv);
    const int out_hw = geo.col_cols();
    const int col_rows = geo.col_rows();
    const std::int64_t in_chw = input.shape().chw();
    const std::int64_t out_chw = conv.output_shape().chw();
    const auto requant_row = simd::kernels().requant_row;
    for (int b = 0; b < input.shape().n; ++b) {
        // Quantize the input once with the layer's static calibrated scale,
        // then lower the bytes: im2col only copies or zero-pads and
        // quantize(0) == 0, so this col matrix is bit-identical to
        // quantizing a float col matrix, at 1/ksize^2 of the quantize work.
        quantize_buffer(input.data() + b * in_chw, in_chw, qc.input_scale, in_i8_.data());
        const std::int8_t* col = in_i8_.data();
        if (needs_lowering(qc)) {
            im2col_mt(in_i8_.data(), geo, col_i8_.data(), gemm_threads());
            col = col_i8_.data();
        }
        gemm_i8(qc.config.filters, out_hw, col_rows, qc.weights.data(), col_rows, col,
                out_hw, acc_.data(), out_hw);
        // Requantize epilogue: acc * (scale_w[f] * scale_x) + bias per output
        // row, then the activation over the whole item.
        float* out_b = output.data() + b * out_chw;
        for (int f = 0; f < qc.config.filters; ++f) {
            requant_row(acc_.data() + static_cast<std::int64_t>(f) * out_hw,
                        static_cast<std::size_t>(out_hw), qc.requant[static_cast<std::size_t>(f)],
                        qc.biases[static_cast<std::size_t>(f)],
                        out_b + static_cast<std::int64_t>(f) * out_hw);
        }
        apply_activation(qc.config.activation,
                         std::span<float>(out_b, static_cast<std::size_t>(out_chw)));
    }
}

const Tensor& QuantizedNetwork::forward(const Tensor& input) {
    if (input.shape() != net_.input_shape()) {
        throw std::invalid_argument("QuantizedNetwork::forward: shape mismatch");
    }
    // Re-batch / resize the scratch to the live geometry (grow-only; a no-op
    // at construction-time-or-smaller shapes, so serving stays allocation-free).
    ensure_scratch();
    std::size_t next_q = 0;
    const Tensor* x = &input;
    for (std::size_t i = 0; i < net_.num_layers(); ++i) {
        Layer& layer = net_.layer(static_cast<int>(i));
        if (next_q < quantized_.size() &&
            quantized_[next_q].layer_index == static_cast<int>(i)) {
            forward_quantized_conv(quantized_[next_q], *convs_[next_q], *x,
                                   layer.output());
            ++next_q;
        } else {
            layer.forward(*x, net_, /*train=*/false);
        }
        x = &layer.output();
    }
    return *x;
}

Detections QuantizedNetwork::decode(int b) const {
    const RegionLayer* head = net_.region();
    if (head == nullptr) throw std::logic_error("QuantizedNetwork::decode: no region layer");
    return head->decode(b);
}

float QuantizedNetwork::mean_weight_error() const {
    if (quantized_.empty()) return 0.0f;
    double total = 0;
    for (std::size_t qi = 0; qi < quantized_.size(); ++qi) {
        total += quantized_[qi].mean_weight_error(*convs_[qi]);
    }
    return static_cast<float>(total / static_cast<double>(quantized_.size()));
}

std::size_t QuantizedNetwork::weight_bytes() const noexcept {
    std::size_t total = 0;
    for (const QuantizedConv& qc : quantized_) {
        total += qc.weights.size() * sizeof(std::int8_t) +
                 (qc.scales.size() + qc.requant.size() + qc.biases.size()) * sizeof(float);
    }
    return total;
}

std::size_t QuantizedNetwork::float_weight_bytes() const noexcept {
    std::size_t total = 0;
    for (const QuantizedConv& qc : quantized_) {
        total += (qc.weights.size() + qc.biases.size()) * sizeof(float);
    }
    return total;
}

}  // namespace dronet
