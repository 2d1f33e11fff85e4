// Abstract layer interface of the CNN engine.
//
// Layers own their output activation tensor and, once a training pass asks
// for it, a delta tensor holding dLoss/dOutput. The Network drives
// forward/backward passes and provides the shared im2col workspace,
// mirroring darknet's execution model which the paper's models were
// deployed with.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/optimizer.hpp"
#include "tensor/tensor.hpp"

namespace dronet {

class Network;

enum class LayerKind {
    kConvolutional,
    kMaxPool,
    kRegion,
    kUpsample,
    kRoute,
    kAvgPool,
    kDropout,
};

[[nodiscard]] std::string to_string(LayerKind kind);

/// One trainable parameter block: values, gradient accumulator and momentum
/// buffer share the same length. `decay` marks blocks subject to L2 weight
/// decay (weights yes; biases and batch-norm parameters no, per darknet).
struct Param {
    std::vector<float> v;
    std::vector<float> g;
    std::vector<float> m;
    bool decay = true;
    std::string name;

    explicit Param(std::size_t size = 0, bool apply_decay = true, std::string label = {})
        : v(size, 0.0f), g(size, 0.0f), m(size, 0.0f), decay(apply_decay),
          name(std::move(label)) {}

    [[nodiscard]] std::size_t size() const noexcept { return v.size(); }
};

class Layer {
  public:
    virtual ~Layer() = default;

    Layer(const Layer&) = delete;
    Layer& operator=(const Layer&) = delete;

    [[nodiscard]] virtual LayerKind kind() const = 0;

    /// One-line structural description used by the Fig. 1 reproduction
    /// (e.g. "conv  16 3x3/1  416x416x3 -> 416x416x16").
    [[nodiscard]] virtual std::string describe() const = 0;

    /// Computes the output shape for `input` and (re)allocates buffers.
    /// Called at construction and again by Network::resize().
    virtual void setup(const Shape& input) = 0;

    [[nodiscard]] const Shape& input_shape() const noexcept { return input_shape_; }
    [[nodiscard]] const Shape& output_shape() const noexcept { return output_shape_; }

    /// Runs the layer. `train` enables training-only behaviour (batch-norm
    /// batch statistics, loss computation in the region layer).
    virtual void forward(const Tensor& input, Network& net, bool train) = 0;

    /// Propagates this layer's delta into `input_delta` (accumulating) and
    /// accumulates parameter gradients. `input_delta` may be null for the
    /// first layer.
    virtual void backward(const Tensor& input, Tensor* input_delta, Network& net) = 0;

    [[nodiscard]] const Tensor& output() const noexcept { return output_; }
    [[nodiscard]] Tensor& output() noexcept { return output_; }
    /// dLoss/dOutput, sized to output_shape() on every call and allocated on
    /// the first: a network that only runs inference never holds one. Its
    /// contents are unspecified after a resize until training writes them
    /// (Network::backward zeroes every delta but the last layer's, which the
    /// region head's training forward zeroes and fills).
    [[nodiscard]] Tensor& delta() {
        delta_.resize(output_shape_);
        return delta_;
    }

    /// Trainable parameter blocks (empty for parameter-free layers).
    [[nodiscard]] virtual std::vector<Param*> params() { return {}; }

    /// Extra non-trainable state serialized with the weights (batch-norm
    /// rolling statistics). Order matters: it defines the file layout.
    [[nodiscard]] virtual std::vector<std::vector<float>*> serialized_stats() { return {}; }

    /// Multiply-accumulate-based FLOP estimate per *single* image forward.
    [[nodiscard]] virtual std::int64_t flops() const = 0;

    /// Trainable parameter count.
    [[nodiscard]] std::int64_t param_count() const;

    /// Bytes of shared workspace required (conv im2col buffer).
    [[nodiscard]] virtual std::size_t workspace_bytes() const { return 0; }

    /// Bytes of activations read + written per single-image forward; feeds
    /// the roofline platform model.
    [[nodiscard]] virtual std::int64_t memory_bytes() const;

  protected:
    Layer() = default;

    Shape input_shape_;
    Shape output_shape_;
    Tensor output_;
    Tensor delta_;  ///< through delta() only, which sizes it
};

}  // namespace dronet
