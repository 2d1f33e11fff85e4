// Max-pooling layer.
//
// Follows darknet's geometry exactly (default padding = size-1, applied
// half-before/half-after), including the stride-1 "same size" pool that
// Tiny-YOLO places before its two wide convolutions.
#pragma once

#include "nn/layer.hpp"

namespace dronet {

struct MaxPoolConfig {
    int size = 2;
    int stride = 2;
    int padding = -1;  ///< -1 selects the darknet default (size - 1)
};

class MaxPoolLayer final : public Layer {
  public:
    MaxPoolLayer(const MaxPoolConfig& config, const Shape& input);

    [[nodiscard]] LayerKind kind() const override { return LayerKind::kMaxPool; }
    [[nodiscard]] std::string describe() const override;
    void setup(const Shape& input) override;
    void forward(const Tensor& input, Network& net, bool train) override;
    void backward(const Tensor& input, Tensor* input_delta, Network& net) override;
    [[nodiscard]] std::int64_t flops() const override;

    [[nodiscard]] const MaxPoolConfig& config() const noexcept { return config_; }

  private:
    MaxPoolConfig config_;
    int pad_ = 0;
};

}  // namespace dronet
