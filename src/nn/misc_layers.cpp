#include "nn/misc_layers.hpp"

#include <sstream>
#include <stdexcept>

namespace dronet {

LayerKind AvgPoolLayer::kind() const { return LayerKind::kAvgPool; }
LayerKind DropoutLayer::kind() const { return LayerKind::kDropout; }

AvgPoolLayer::AvgPoolLayer(const Shape& input) { setup(input); }

void AvgPoolLayer::setup(const Shape& input) {
    input_shape_ = input;
    output_shape_ = Shape{input.n, input.c, 1, 1};
    output_.resize(output_shape_);
}

std::string AvgPoolLayer::describe() const {
    std::ostringstream os;
    os << "avg  " << input_shape_.w << "x" << input_shape_.h << "x" << input_shape_.c
       << " -> 1x1x" << output_shape_.c;
    return os.str();
}

void AvgPoolLayer::forward(const Tensor& input, Network&, bool) {
    if (input.shape() != input_shape_) {
        throw std::invalid_argument("AvgPoolLayer::forward: shape mismatch");
    }
    const std::int64_t spatial = input_shape_.hw();
    const float inv = 1.0f / static_cast<float>(spatial);
    for (int b = 0; b < input_shape_.n; ++b) {
        for (int c = 0; c < input_shape_.c; ++c) {
            const float* p = input.data() +
                             (static_cast<std::int64_t>(b) * input_shape_.c + c) * spatial;
            double acc = 0;
            for (std::int64_t i = 0; i < spatial; ++i) acc += p[i];
            output_[output_.index(b, c, 0, 0)] = static_cast<float>(acc) * inv;
        }
    }
}

void AvgPoolLayer::backward(const Tensor&, Tensor* input_delta, Network&) {
    if (input_delta == nullptr) return;
    const std::int64_t spatial = input_shape_.hw();
    const float inv = 1.0f / static_cast<float>(spatial);
    for (int b = 0; b < input_shape_.n; ++b) {
        for (int c = 0; c < input_shape_.c; ++c) {
            const float g = delta_[delta_.index(b, c, 0, 0)] * inv;
            float* p = input_delta->data() +
                       (static_cast<std::int64_t>(b) * input_shape_.c + c) * spatial;
            for (std::int64_t i = 0; i < spatial; ++i) p[i] += g;
        }
    }
}

DropoutLayer::DropoutLayer(float probability, const Shape& input, std::uint64_t seed)
    : probability_(probability), rng_(seed) {
    if (probability < 0.0f || probability >= 1.0f) {
        throw std::invalid_argument("DropoutLayer: probability must be in [0,1)");
    }
    setup(input);
}

void DropoutLayer::setup(const Shape& input) {
    input_shape_ = input;
    output_shape_ = input;
    output_.resize(output_shape_);
    mask_.assign(static_cast<std::size_t>(input.size()), 1.0f);
}

std::string DropoutLayer::describe() const {
    std::ostringstream os;
    os << "dropout p=" << probability_ << "  " << input_shape_.w << "x"
       << input_shape_.h << "x" << input_shape_.c;
    return os.str();
}

void DropoutLayer::forward(const Tensor& input, Network&, bool train) {
    if (input.shape() != input_shape_) {
        throw std::invalid_argument("DropoutLayer::forward: shape mismatch");
    }
    if (!train || probability_ == 0.0f) {
        std::copy(input.data(), input.data() + input.size(), output_.data());
        return;
    }
    const float keep_scale = 1.0f / (1.0f - probability_);
    for (std::int64_t i = 0; i < input.size(); ++i) {
        const float m = rng_.chance(probability_) ? 0.0f : keep_scale;
        mask_[static_cast<std::size_t>(i)] = m;
        output_[i] = input[i] * m;
    }
}

void DropoutLayer::backward(const Tensor&, Tensor* input_delta, Network&) {
    if (input_delta == nullptr) return;
    for (std::int64_t i = 0; i < delta_.size(); ++i) {
        (*input_delta)[i] += delta_[i] * mask_[static_cast<std::size_t>(i)];
    }
}

}  // namespace dronet
