// Network: an ordered stack of layers plus training state.
//
// Mirrors darknet's `network` struct: owns the layers, a shared im2col
// workspace, the batch counter driving the LR schedule, and the RNG used for
// weight initialization. Networks are built programmatically (model zoo) or
// parsed from darknet-format .cfg text (nn/cfg.hpp).
//
// One forward loop serves every precision: set_precision switches the conv
// layers between fp32 and calibrated int8 (docs/quantization.md), and the
// per-layer profiler, the numerics guards and the network.forward fault site
// cover both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "detect/box.hpp"
#include "nn/conv_layer.hpp"
#include "nn/layer.hpp"
#include "nn/maxpool_layer.hpp"
#include "nn/misc_layers.hpp"
#include "nn/optimizer.hpp"
#include "nn/region_layer.hpp"
#include "nn/route_layer.hpp"
#include "nn/upsample_layer.hpp"
#include "profile/profiler.hpp"
#include "tensor/rng.hpp"

namespace dronet {

/// Hyper-parameters from a cfg's [net] section.
struct NetConfig {
    int width = 416;
    int height = 416;
    int channels = 3;
    int batch = 1;
    float learning_rate = 1e-3f;
    float momentum = 0.9f;
    float decay = 5e-4f;
    int burn_in = 0;
    std::int64_t max_batches = 0;  ///< 0 = unbounded
    std::vector<LrSchedule::Step> lr_steps;
    std::uint64_t seed = 0x5eed;
};

/// Per-conv-layer input activation ranges from a calibration pass
/// (nn/quantize.hpp), in network order: what Precision::kInt8 needs to fix
/// each layer's static input scale. Replicas cloned from one source network
/// can share a single calibration (identical weights imply identical ranges).
struct Int8Calibration {
    std::vector<float> max_abs;  ///< max |input activation| per conv layer

    [[nodiscard]] std::size_t layer_count() const noexcept { return max_abs.size(); }
};

class Network {
  public:
    explicit Network(NetConfig config);

    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;
    Network(Network&&) = default;
    Network& operator=(Network&&) = default;

    // ---- construction -----------------------------------------------------
    ConvolutionalLayer& add_conv(const ConvConfig& config);
    MaxPoolLayer& add_maxpool(const MaxPoolConfig& config);
    RegionLayer& add_region(const RegionConfig& config);
    UpsampleLayer& add_upsample(int stride);
    RouteLayer& add_route(std::vector<int> sources);
    AvgPoolLayer& add_avgpool();
    DropoutLayer& add_dropout(float probability);

    // ---- execution ----------------------------------------------------------
    /// Runs all layers; returns the last layer's output. The input shape must
    /// equal input_shape().
    const Tensor& forward(const Tensor& input, bool train = false);

    /// Backpropagates from the last layer's delta (set by the region layer's
    /// loss) down to the first layer, accumulating parameter gradients.
    void backward();

    /// Applies one SGD step at the current schedule position and advances the
    /// batch counter.
    void update();

    /// forward(train) + backward + update for one mini-batch; returns the
    /// region-layer loss.
    float train_step(const Tensor& input,
                     std::vector<std::vector<GroundTruth>> truths);

    // ---- shape management ---------------------------------------------------
    /// Re-derives every layer's geometry for a new spatial input size; weights
    /// are preserved (the models are fully convolutional, enabling the paper's
    /// 352-608 input-size sweep on one set of weights).
    void resize_input(int width, int height);

    /// Changes the batch dimension (e.g. train with batch 8, infer with 1).
    void set_batch(int batch);

    // ---- inspection ---------------------------------------------------------
    [[nodiscard]] Shape input_shape() const noexcept {
        return Shape{config_.batch, config_.channels, config_.height, config_.width};
    }
    [[nodiscard]] std::size_t num_layers() const noexcept { return layers_.size(); }
    [[nodiscard]] Layer& layer(int i) { return *layers_.at(static_cast<std::size_t>(i)); }
    [[nodiscard]] const Layer& layer(int i) const {
        return *layers_.at(static_cast<std::size_t>(i));
    }
    /// Last region layer (the detection head), or null if absent.
    [[nodiscard]] RegionLayer* region() noexcept;
    [[nodiscard]] const RegionLayer* region() const noexcept;

    /// Totals per single-image forward.
    [[nodiscard]] std::int64_t total_flops() const;
    [[nodiscard]] std::int64_t total_params() const;
    [[nodiscard]] std::int64_t total_memory_bytes() const;

    /// Multi-line structure table (one describe() line per layer) — the
    /// Fig. 1 reproduction output.
    [[nodiscard]] std::string describe() const;

    /// Folds batch-norm into conv weights across all layers (inference only).
    void fold_batchnorm();

    /// Switches every conv layer to `precision`, encoding it from the current
    /// float weights (call after weights are loaded). kInt8 is inference-only;
    /// training such a network throws. kInt8 takes one calibrated range per
    /// conv layer, throws std::invalid_argument unless `calibration` covers
    /// exactly the network's conv layers, and folds batch norm for good.
    /// Tolerances: docs/quantization.md.
    void set_precision(Precision precision, const Int8Calibration& calibration = {});
    [[nodiscard]] Precision precision() const noexcept { return precision_; }
    /// The ranges the last set_precision(kInt8) applied; empty otherwise.
    [[nodiscard]] const Int8Calibration& calibration() const noexcept {
        return calibration_;
    }
    /// Conv weight storage in each layer's active format, summed.
    [[nodiscard]] std::size_t weight_bytes() const;

    [[nodiscard]] NetConfig& config() noexcept { return config_; }
    [[nodiscard]] const NetConfig& config() const noexcept { return config_; }
    [[nodiscard]] Rng& rng() noexcept { return rng_; }
    [[nodiscard]] std::int64_t batch_num() const noexcept { return batch_num_; }
    void set_batch_num(std::int64_t n) noexcept { batch_num_ = n; }
    [[nodiscard]] const LrSchedule& schedule() const noexcept { return schedule_; }
    [[nodiscard]] float current_lr() const { return schedule_.at(batch_num_); }

    /// Shared conv scratch (the float col matrix, or an int8 layer's
    /// accumulators, quantized input and col matrix), sized for the largest
    /// layer's need on add, set_batch, resize_input and set_precision, and
    /// never shrunk. Byte storage, so any of those types may live in it.
    [[nodiscard]] std::byte* workspace() noexcept { return workspace_.get(); }

    /// Input tensor the network owns, shaped input_shape() on every call, for
    /// callers that fill the input in place (the detect path resizes each
    /// frame straight into its batch slot) instead of building a Tensor per
    /// call. Grow-only like the workspace; holds whatever was last written.
    [[nodiscard]] Tensor& input_buffer();

    /// Per-layer timing sink, populated by forward() while profiling is
    /// enabled (profile::profiling_enabled()). Null until the first profiled
    /// forward. Read only while the network is quiescent.
    [[nodiscard]] const profile::ForwardProfiler* profiler() const noexcept {
        return profiler_.get();
    }
    [[nodiscard]] profile::ForwardProfiler* profiler() noexcept {
        return profiler_.get();
    }

  private:
    [[nodiscard]] Shape next_input_shape() const;
    void refresh_workspace();
    template <typename L, typename... Args>
    L& emplace_layer(Args&&... args);

    NetConfig config_;
    LrSchedule schedule_;
    Rng rng_;
    std::vector<std::unique_ptr<Layer>> layers_;
    std::unique_ptr<std::byte[]> workspace_;
    std::size_t workspace_size_ = 0;  ///< bytes
    Tensor input_buffer_;  ///< see input_buffer()
    Tensor input_copy_;  ///< retained for backward()
    Precision precision_ = Precision::kF32;
    Int8Calibration calibration_;
    std::int64_t batch_num_ = 0;
    std::unique_ptr<profile::ForwardProfiler> profiler_;
};

}  // namespace dronet
