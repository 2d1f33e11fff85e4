// Post-training INT8 quantization of the convolution path.
//
// Implements the paper's §V future-work item ("reduce bitwidth precisions"):
// per-output-channel symmetric int8 weight quantization plus *calibrated*
// static per-layer activation scales, with int32 accumulation and one
// combined requantize multiplier per output channel. Max-pool and region
// layers stay in float, as does the detection decode, so accuracy loss is
// isolated to the conv arithmetic.
//
// Calibration runs float forwards over a sample set and records each conv
// layer's input activation range; the layer's static input scale is that
// range / 127, so no frame ever pays a range sweep.
//
// Each conv layer runs, per batch item:
//   1. quantize the layer's input once (quantize_buffer, input scale);
//   2. lower the int8 input with im2col (1x1 stride-1 convs skip this);
//   3. gemm_i8 of the int8 weights against that col matrix, into int32;
//   4. requantize each output row (acc * requant[f] + bias[f]), then the
//      layer's activation.
// im2col only copies or zero-pads and quantize(0) == 0, so quantizing before
// the lowering yields exactly the bytes of quantizing the float col matrix,
// and the outputs equal that order's bit for bit (docs/quantization.md).
//
// The quantized forward is batch- and size-flexible: geometry derives
// per-call from the source layer's live input shape (so Network::set_batch
// and resize_input — the serving micro-batch and degrade paths — both work),
// each batch item runs through per-item scratch, and integer arithmetic makes
// batch-N outputs bit-identical per item to batch-1. Scratch only ever grows;
// scratch_grows() counts reallocations for tests.
//
// Usage:
//   Network net = ...;                            // trained
//   auto calib = QuantizedNetwork::calibrate(net, samples);   // float passes
//   QuantizedNetwork q(net, calib);               // folds BN, snapshots int8
//   const Tensor& out = q.forward(input);         // any batch size
//   Detections dets = q.decode(b);
// or, with no sample set at hand, QuantizedNetwork q(net) self-calibrates on
// a deterministic synthetic set (docs/quantization.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/network.hpp"

namespace dronet {

/// Per-conv-layer activation ranges from a calibration pass, in network
/// order. Replicas cloned from one source network can share a single
/// calibration (identical weights imply identical ranges), so a serving tier
/// calibrates once and fans the result out.
struct Int8Calibration {
    std::vector<float> max_abs;  ///< max |input activation| per conv layer

    [[nodiscard]] std::size_t layer_count() const noexcept { return max_abs.size(); }
};

/// Int8 snapshot of one convolutional layer.
struct QuantizedConv {
    int layer_index = 0;              ///< index in the source network
    std::vector<std::int8_t> weights; ///< [filters x fan_in], row-major
    std::vector<float> scales;        ///< per-output-channel weight scale
    std::vector<float> requant;       ///< fused epilogue: scales[f] * input_scale
    std::vector<float> biases;        ///< float biases (post BN folding)
    float input_scale = 1.0f;         ///< static activation scale (calibrated)
    ConvConfig config;
    int fan_in = 0;                   ///< channels * ksize^2 — resize-invariant

    /// Mean absolute weight quantization error (diagnostics).
    [[nodiscard]] float mean_weight_error(const ConvolutionalLayer& source) const;
};

class QuantizedNetwork {
  public:
    /// Snapshots `net`'s conv layers as int8 with `calibration` providing the
    /// static activation scales (entries must match the network's conv layers
    /// in order). Folds batch normalization in place (the float network keeps
    /// working, with BN folded). The source network must outlive this object
    /// (non-conv layers execute through it). Any batch size.
    QuantizedNetwork(Network& net, const Int8Calibration& calibration);

    /// Self-calibrating convenience: runs self_calibrate(net) first. Prefer
    /// the two-argument form with representative samples when available.
    explicit QuantizedNetwork(Network& net);

    /// Runs float forwards over `samples` (each shaped net.input_shape())
    /// and records every conv layer's input activation range. Folds batch
    /// norm first so the ranges match what quantized inference will see.
    [[nodiscard]] static Int8Calibration calibrate(Network& net,
                                                   std::span<const Tensor> samples);

    /// calibrate() over a deterministic synthetic set (constant, ramp and
    /// seeded-noise frames in [0, 1] at the network's current input shape) —
    /// reproducible across replicas and runs.
    [[nodiscard]] static Int8Calibration self_calibrate(Network& net);

    /// Runs inference with int8 convolution arithmetic. `input` must match
    /// net.input_shape() — re-batch or resize the source network first; the
    /// quantized path follows its live geometry. Allocation-free after
    /// construction for any batch size or degraded (smaller) input.
    const Tensor& forward(const Tensor& input);

    /// Decodes the region layer's detections for batch item `b` (after
    /// forward).
    [[nodiscard]] Detections decode(int b = 0) const;

    [[nodiscard]] const std::vector<QuantizedConv>& layers() const noexcept {
        return quantized_;
    }
    /// The float network this snapshot executes through.
    [[nodiscard]] const Network& source() const noexcept { return net_; }
    [[nodiscard]] const Int8Calibration& calibration() const noexcept {
        return calibration_;
    }

    /// Mean of mean_weight_error over all quantized layers — a forward-free,
    /// const diagnostic of quantization quality.
    [[nodiscard]] float mean_weight_error() const;

    /// Bytes of weight storage: int8 vs the float network.
    [[nodiscard]] std::size_t weight_bytes() const noexcept;
    [[nodiscard]] std::size_t float_weight_bytes() const noexcept;

    /// Times the scratch buffers (int8 input, int8 col, int32 acc) have grown
    /// since construction. Stays 0 across forwards at construction-time-or-
    /// smaller geometry — the serving tier's allocation-free guarantee.
    [[nodiscard]] std::int64_t scratch_grows() const noexcept { return scratch_grows_; }

  private:
    /// Grows (never shrinks) per-item scratch to the live layer geometry.
    void ensure_scratch();
    void forward_quantized_conv(const QuantizedConv& qc,
                                const ConvolutionalLayer& conv,
                                const Tensor& input, Tensor& output);

    Network& net_;
    Int8Calibration calibration_;
    std::vector<QuantizedConv> quantized_;  ///< one per conv layer, in order
    std::vector<const ConvolutionalLayer*> convs_;  ///< parallel to quantized_
    // Per-item scratch reused across layers and batch items (grow-only).
    std::vector<std::int8_t> in_i8_;   ///< the quantized layer input
    std::vector<std::int8_t> col_i8_;  ///< its col matrix (lowered layers only)
    std::vector<std::int32_t> acc_;
    std::int64_t scratch_grows_ = 0;
};

}  // namespace dronet
