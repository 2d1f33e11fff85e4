// 2-D convolution layer with optional batch normalization.
//
// Forward lowers to im2col + GEMM, darknet's CPU execution strategy and the
// dominant cost in every model the paper benchmarks. The fp32 forward lowers
// and multiplies one cache-sized column block (256 KiB of col matrix) at a
// time, so the GEMM reads each block while it is still in cache; an unpadded
// stride-1 1x1 conv multiplies its input directly. Blocks start at multiples
// of 16 columns, so the output bits are those of one whole-matrix lowering.
// Training support (backward + gradients) implements the full batch-norm
// backward pass.
//
// Inference runs in one of two weight formats (Precision): fp32, or
// calibrated int8 with int32 accumulation and a fused per-filter requantize
// epilogue (docs/quantization.md).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/activation.hpp"
#include "nn/layer.hpp"
#include "tensor/im2col.hpp"
#include "tensor/rng.hpp"

namespace dronet {

struct ConvConfig {
    int filters = 1;
    int ksize = 3;
    int stride = 1;
    int pad = 0;             ///< pixels of zero padding each side
    bool batch_normalize = false;
    Activation activation = Activation::kLeaky;
};

/// Arithmetic a conv layer runs its inference forward in. kInt8 is
/// inference-only: training through such a layer throws.
enum class Precision { kF32, kInt8 };

/// A conv layer's int8 format: per-filter symmetric int8 weights and the
/// static activation scale calibrated for the layer's input. Empty unless
/// the layer runs at Precision::kInt8.
struct Int8Weights {
    std::vector<std::int8_t> weights;  ///< [filters x fan_in], row-major
    std::vector<float> scales;         ///< per-filter weight scale
    std::vector<float> requant;        ///< fused epilogue: scales[f] * input_scale
    float input_scale = 1.0f;          ///< calibrated max |input| / 127
};

class ConvolutionalLayer final : public Layer {
  public:
    /// Creates the layer and initializes weights (He init) from `rng`.
    ConvolutionalLayer(const ConvConfig& config, const Shape& input, Rng& rng);

    [[nodiscard]] LayerKind kind() const override { return LayerKind::kConvolutional; }
    [[nodiscard]] std::string describe() const override;
    void setup(const Shape& input) override;
    void forward(const Tensor& input, Network& net, bool train) override;
    void backward(const Tensor& input, Tensor* input_delta, Network& net) override;
    [[nodiscard]] std::vector<Param*> params() override;
    [[nodiscard]] std::vector<std::vector<float>*> serialized_stats() override;
    [[nodiscard]] std::int64_t flops() const override;
    [[nodiscard]] std::size_t workspace_bytes() const override;
    [[nodiscard]] std::int64_t memory_bytes() const override;

    [[nodiscard]] const ConvConfig& config() const noexcept { return config_; }

    /// Folds batch-norm statistics into weights/biases for inference-only
    /// deployment (ablation #3 in DESIGN.md). After folding the layer
    /// behaves identically in eval mode but skips normalization work.
    void fold_batchnorm();

    [[nodiscard]] Param& weights() noexcept { return weights_; }
    [[nodiscard]] const Param& weights() const noexcept { return weights_; }
    [[nodiscard]] Param& biases() noexcept { return biases_; }
    [[nodiscard]] const Param& biases() const noexcept { return biases_; }
    [[nodiscard]] Param& scales() noexcept { return scales_; }
    [[nodiscard]] std::vector<float>& rolling_mean() noexcept { return rolling_mean_; }
    [[nodiscard]] std::vector<float>& rolling_variance() noexcept { return rolling_variance_; }

    /// Direct (non-im2col) reference forward used by tests and the
    /// im2col-vs-direct ablation bench.
    void forward_direct(const Tensor& input, Tensor& out) const;

    /// Switches the inference weight format, encoding it from the CURRENT
    /// float weights (call after loading weights). The float weights stay.
    ///  - kInt8: folds batch norm, quantizes each filter, and fixes the input
    ///    scale at `input_max_abs` / 127 (1 for an empty range).
    ///  - kF32: drops the int8 encoding.
    void set_precision(Precision precision, float input_max_abs = 0.0f);
    [[nodiscard]] Precision precision() const noexcept { return precision_; }
    [[nodiscard]] const Int8Weights& int8() const noexcept { return int8_; }

    /// Bytes of weight storage in the active format: weights plus biases at
    /// kF32, int8 weights plus per-filter scale, requant and bias floats at
    /// kInt8. The float weights stay resident at both, so this is the size
    /// of the format, not the layer's memory.
    [[nodiscard]] std::size_t weight_bytes() const noexcept;

  private:
    void batchnorm_forward(bool train);
    void batchnorm_backward();
    void forward_int8(const Tensor& input, Network& net);
    [[nodiscard]] bool is_1x1() const noexcept {
        return config_.ksize == 1 && config_.stride == 1 && config_.pad == 0;
    }

    ConvConfig config_;
    ConvGeometry geo_;
    Precision precision_ = Precision::kF32;

    Param weights_;
    Int8Weights int8_;  ///< kInt8 weight storage
    Param biases_;   ///< beta when batch-normalized, plain bias otherwise
    Param scales_;   ///< gamma (batch-norm only)
    std::vector<float> rolling_mean_;
    std::vector<float> rolling_variance_;

    // Training caches.
    Tensor x_norm_;               ///< normalized pre-scale activations (training only)
    std::vector<float> mean_;     ///< batch mean per channel
    std::vector<float> variance_; ///< batch variance per channel
    static constexpr float kBnEps = 1e-5f;
    static constexpr float kBnMomentum = 0.9f;  ///< rolling-average retention
};

}  // namespace dronet
