#include "nn/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/rng.hpp"

namespace dronet {
namespace {

[[nodiscard]] float max_abs_of(std::span<const float> data) noexcept {
    float mx = 0.0f;
    for (const float v : data) mx = std::max(mx, std::fabs(v));
    return mx;
}

void require_f32(const Network& net, const char* what) {
    if (net.precision() != Precision::kF32) {
        throw std::logic_error(std::string(what) + ": needs an fp32 network");
    }
}

}  // namespace

Int8Calibration calibrate(Network& net, std::span<const Tensor> samples) {
    require_f32(net, "calibrate");
    if (samples.empty()) {
        throw std::invalid_argument("calibrate: no samples");
    }
    // Fold first: int8 inference runs on the folded network, so the recorded
    // ranges must come from folded float forwards.
    net.fold_batchnorm();
    Int8Calibration calib;
    for (const Tensor& sample : samples) {
        if (sample.shape() != net.input_shape()) {
            throw std::invalid_argument("calibrate: sample shape mismatch");
        }
        net.forward(sample, /*train=*/false);
        std::size_t slot = 0;
        for (std::size_t i = 0; i < net.num_layers(); ++i) {
            if (net.layer(static_cast<int>(i)).kind() != LayerKind::kConvolutional) {
                continue;
            }
            // The conv's input is the previous layer's output (the network
            // input for layer 0) — the tensor the int8 forward quantizes.
            const Tensor& in = i == 0 ? sample : net.layer(static_cast<int>(i) - 1).output();
            const float mx = max_abs_of(in.span());
            if (slot == calib.max_abs.size()) calib.max_abs.push_back(0.0f);
            calib.max_abs[slot] = std::max(calib.max_abs[slot], mx);
            ++slot;
        }
    }
    return calib;
}

std::vector<Tensor> synthetic_frames(const Shape& shape) {
    std::vector<Tensor> frames;
    frames.emplace_back(shape);
    frames.back().fill(0.5f);
    frames.emplace_back(shape);
    frames.back().fill(1.0f);
    Tensor ramp(shape);
    for (int n = 0; n < shape.n; ++n) {
        for (int c = 0; c < shape.c; ++c) {
            for (int h = 0; h < shape.h; ++h) {
                for (int w = 0; w < shape.w; ++w) {
                    const float y =
                        shape.h > 1 ? static_cast<float>(h) / static_cast<float>(shape.h - 1)
                                    : 0.0f;
                    const float x =
                        shape.w > 1 ? static_cast<float>(w) / static_cast<float>(shape.w - 1)
                                    : 0.0f;
                    ramp[ramp.index(n, c, h, w)] = 0.5f * (x + y);
                }
            }
        }
    }
    frames.push_back(std::move(ramp));
    Tensor noise(shape);
    Rng rng(0x178cu);
    rng.fill_uniform(noise.span(), 0.0f, 1.0f);
    frames.push_back(std::move(noise));
    return frames;
}

Int8Calibration self_calibrate(Network& net) {
    require_f32(net, "self_calibrate");
    // Batch-1 frames whatever the live batch: the seeded noise would
    // otherwise fill a different tensor, and the ranges would follow it.
    const int batch = net.config().batch;
    net.set_batch(1);
    Int8Calibration calib = calibrate(net, synthetic_frames(net.input_shape()));
    net.set_batch(batch);
    return calib;
}

}  // namespace dronet
