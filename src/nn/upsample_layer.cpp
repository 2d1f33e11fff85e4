#include "nn/upsample_layer.hpp"

#include <sstream>
#include <stdexcept>

namespace dronet {

UpsampleLayer::UpsampleLayer(int stride, const Shape& input) : stride_(stride) {
    if (stride <= 0) throw std::invalid_argument("UpsampleLayer: stride must be positive");
    setup(input);
}

void UpsampleLayer::setup(const Shape& input) {
    input_shape_ = input;
    output_shape_ = Shape{input.n, input.c, input.h * stride_, input.w * stride_};
    output_.resize(output_shape_);
}

std::string UpsampleLayer::describe() const {
    std::ostringstream os;
    os << "upsample x" << stride_ << "  " << input_shape_.w << "x" << input_shape_.h
       << "x" << input_shape_.c << " -> " << output_shape_.w << "x" << output_shape_.h
       << "x" << output_shape_.c;
    return os.str();
}

void UpsampleLayer::forward(const Tensor& input, Network&, bool) {
    if (input.shape() != input_shape_) {
        throw std::invalid_argument("UpsampleLayer::forward: shape mismatch");
    }
    for (int b = 0; b < input_shape_.n; ++b) {
        for (int c = 0; c < input_shape_.c; ++c) {
            for (int y = 0; y < output_shape_.h; ++y) {
                for (int x = 0; x < output_shape_.w; ++x) {
                    output_[output_.index(b, c, y, x)] =
                        input[input.index(b, c, y / stride_, x / stride_)];
                }
            }
        }
    }
}

void UpsampleLayer::backward(const Tensor&, Tensor* input_delta, Network&) {
    if (input_delta == nullptr) return;
    for (int b = 0; b < input_shape_.n; ++b) {
        for (int c = 0; c < input_shape_.c; ++c) {
            for (int y = 0; y < output_shape_.h; ++y) {
                for (int x = 0; x < output_shape_.w; ++x) {
                    (*input_delta)[input_delta->index(b, c, y / stride_, x / stride_)] +=
                        delta_[delta_.index(b, c, y, x)];
                }
            }
        }
    }
}

}  // namespace dronet
