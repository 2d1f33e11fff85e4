// Calibration for post-training INT8 inference of the convolution path.
//
// Implements the paper's §V future-work item ("reduce bitwidth precisions"):
// per-output-channel symmetric int8 weight quantization plus *calibrated*
// static per-layer activation scales, with int32 accumulation and one
// combined requantize multiplier per output channel. Max-pool and region
// layers stay in float, as does the detection decode, so accuracy loss is
// isolated to the conv arithmetic. The int8 conv itself is a weight format of
// ConvolutionalLayer (Precision::kInt8), run by the one Network::forward.
//
// Calibration runs float forwards over a sample set and records each conv
// layer's input activation range; the layer's static input scale is that
// range / 127, so no frame ever pays a range sweep.
//
// Usage:
//   Network net = ...;                                   // trained, kF32
//   Int8Calibration calib = calibrate(net, samples);     // float passes
//   net.set_precision(Precision::kInt8, calib);          // folds BN, quantizes
//   const Tensor& out = net.forward(input);              // any batch size
// or, with no sample set at hand, calibrate with self_calibrate(net)
// (docs/quantization.md).
#pragma once

#include <span>
#include <vector>

#include "nn/network.hpp"

namespace dronet {

/// Runs float forwards over `samples` (each shaped net.input_shape()) and
/// records every conv layer's input activation range. Folds batch norm first
/// so the ranges match what int8 inference will see. Throws std::logic_error
/// unless `net` runs at Precision::kF32.
[[nodiscard]] Int8Calibration calibrate(Network& net, std::span<const Tensor> samples);

/// Four deterministic frames of `shape` in [0, 1], in this order: constant
/// 0.5, constant 1.0, a low-frequency ramp and seeded noise. Constant frames
/// bound the aligned-filter response, the ramp adds low-frequency structure,
/// the noise adds texture — a stand-in for representative imagery
/// (docs/quantization.md). self_calibrate and the reload canary forward them.
[[nodiscard]] std::vector<Tensor> synthetic_frames(const Shape& shape);

/// calibrate() over synthetic_frames() at batch 1 and the network's input
/// size, whatever its live batch, which it restores. Reproducible across
/// replicas, runs and batch sizes.
[[nodiscard]] Int8Calibration self_calibrate(Network& net);

/// Int8 handle over a Network, kept only for the repository benchmark
/// (benchmark/); everything else calls Network::set_precision directly.
class QuantizedNetwork {
  public:
    /// Sets `net` to Precision::kInt8 with `calibration`; `net` must outlive
    /// the handle.
    QuantizedNetwork(Network& net, const Int8Calibration& calibration) : net_(net) {
        net.set_precision(Precision::kInt8, calibration);
    }
    const Tensor& forward(const Tensor& input) { return net_.forward(input); }
    [[nodiscard]] const Network& source() const noexcept { return net_; }

  private:
    Network& net_;
};

}  // namespace dronet
