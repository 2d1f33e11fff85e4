#include "nn/region_layer.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace dronet {
namespace {

// Clamp for exp() in the w/h decode; keeps half-trained nets finite.
constexpr float kMaxExpArg = 8.0f;

float safe_exp(float x) noexcept { return std::exp(std::min(x, kMaxExpArg)); }

}  // namespace

RegionLayer::RegionLayer(const RegionConfig& config, const Shape& input)
    : config_(config) {
    if (config_.num <= 0 || config_.classes <= 0 || config_.coords != 4) {
        throw std::invalid_argument("RegionLayer: invalid config");
    }
    if (config_.anchors.size() != static_cast<std::size_t>(2 * config_.num)) {
        throw std::invalid_argument("RegionLayer: anchors must hold 2*num values");
    }
    setup(input);
}

void RegionLayer::setup(const Shape& input) {
    const int per_anchor = config_.coords + 1 + config_.classes;
    if (input.c != config_.num * per_anchor) {
        std::ostringstream os;
        os << "RegionLayer: input channels " << input.c << " != num*(coords+1+classes) = "
           << config_.num * per_anchor;
        throw std::invalid_argument(os.str());
    }
    input_shape_ = input;
    output_shape_ = input;
    output_.resize(output_shape_);
}

std::string RegionLayer::describe() const {
    std::ostringstream os;
    os << "region " << config_.num << " anchors, " << config_.classes << " classes, grid "
       << grid_w() << "x" << grid_h();
    return os.str();
}

std::int64_t RegionLayer::flops() const {
    // logistic + softmax + decode, ~10 flops per output element.
    return output_shape_.chw() * 10;
}

std::int64_t RegionLayer::entry_index(int b, int n, int e, int loc) const noexcept {
    const std::int64_t hw = input_shape_.hw();
    const int per_anchor = config_.coords + 1 + config_.classes;
    return static_cast<std::int64_t>(b) * input_shape_.chw() +
           (static_cast<std::int64_t>(n) * per_anchor + e) * hw + loc;
}

Box RegionLayer::decode_box(int b, int n, int col, int row, const Tensor& src) const {
    const int w = grid_w();
    const int h = grid_h();
    const int loc = row * w + col;
    Box box;
    box.x = (static_cast<float>(col) + src[entry_index(b, n, 0, loc)]) / static_cast<float>(w);
    box.y = (static_cast<float>(row) + src[entry_index(b, n, 1, loc)]) / static_cast<float>(h);
    box.w = safe_exp(src[entry_index(b, n, 2, loc)]) *
            config_.anchors[static_cast<std::size_t>(2 * n)] / static_cast<float>(w);
    box.h = safe_exp(src[entry_index(b, n, 3, loc)]) *
            config_.anchors[static_cast<std::size_t>(2 * n + 1)] / static_cast<float>(h);
    return box;
}

void RegionLayer::set_ground_truth(std::vector<std::vector<GroundTruth>> truths) {
    truths_ = std::move(truths);
}

void RegionLayer::forward(const Tensor& input, Network&, bool train) {
    if (input.shape() != input_shape_) {
        throw std::invalid_argument("RegionLayer::forward: shape mismatch");
    }
    copy(input.span(), output_.span());
    const int hw = static_cast<int>(input_shape_.hw());
    std::vector<float> cls(static_cast<std::size_t>(config_.classes));
    for (int b = 0; b < input_shape_.n; ++b) {
        for (int n = 0; n < config_.num; ++n) {
            for (int loc = 0; loc < hw; ++loc) {
                for (int e : {0, 1, 4}) {
                    float& v = output_[entry_index(b, n, e, loc)];
                    v = logistic(v);
                }
                for (int c = 0; c < config_.classes; ++c) {
                    cls[static_cast<std::size_t>(c)] = output_[entry_index(b, n, 5 + c, loc)];
                }
                softmax(cls, cls);
                for (int c = 0; c < config_.classes; ++c) {
                    output_[entry_index(b, n, 5 + c, loc)] = cls[static_cast<std::size_t>(c)];
                }
            }
        }
    }
    if (train) {
        compute_loss(input);
        seen_ += input_shape_.n;
    }
}

void RegionLayer::compute_loss(const Tensor& input) {
    delta().zero();
    stats_ = RegionStats{};
    const int w = grid_w();
    const int h = grid_h();
    double coord_loss = 0, obj_loss = 0, class_loss = 0;
    double iou_sum = 0, obj_sum = 0;
    int matched = 0, recalled = 0;

    if (truths_.size() < static_cast<std::size_t>(input_shape_.n)) {
        truths_.resize(static_cast<std::size_t>(input_shape_.n));
    }

    for (int b = 0; b < input_shape_.n; ++b) {
        const auto& truths = truths_[static_cast<std::size_t>(b)];
        // 1. No-object suppression: any predictor whose best IoU against all
        //    truths is below thresh is pushed toward zero objectness.
        for (int n = 0; n < config_.num; ++n) {
            for (int row = 0; row < h; ++row) {
                for (int col = 0; col < w; ++col) {
                    const int loc = row * w + col;
                    const Box pred = decode_box(b, n, col, row, output_);
                    float best_iou = 0;
                    for (const GroundTruth& t : truths) {
                        best_iou = std::max(best_iou, iou(pred, t.box));
                    }
                    const std::int64_t obj_idx = entry_index(b, n, 4, loc);
                    const float obj = output_[obj_idx];
                    if (best_iou <= config_.thresh) {
                        delta_[obj_idx] =
                            config_.noobject_scale * obj * logistic_gradient(obj);
                        obj_loss += 0.5 * config_.noobject_scale * obj * obj;
                    }
                    // 2. Early-training anchor prior: pull every predictor
                    //    toward its anchor's default box so the w/h decode
                    //    starts in a sane regime.
                    if (seen_ < config_.bias_match_batches) {
                        constexpr float kPriorScale = 0.01f;
                        const float sx = output_[entry_index(b, n, 0, loc)];
                        const float sy = output_[entry_index(b, n, 1, loc)];
                        delta_[entry_index(b, n, 0, loc)] +=
                            kPriorScale * (sx - 0.5f) * logistic_gradient(sx);
                        delta_[entry_index(b, n, 1, loc)] +=
                            kPriorScale * (sy - 0.5f) * logistic_gradient(sy);
                        delta_[entry_index(b, n, 2, loc)] +=
                            kPriorScale * input[entry_index(b, n, 2, loc)];
                        delta_[entry_index(b, n, 3, loc)] +=
                            kPriorScale * input[entry_index(b, n, 3, loc)];
                    }
                }
            }
        }
        // 3. Per-truth responsible-predictor deltas.
        for (const GroundTruth& t : truths) {
            if (t.box.w <= 0 || t.box.h <= 0) continue;
            const int col = std::clamp(static_cast<int>(t.box.x * static_cast<float>(w)), 0, w - 1);
            const int row = std::clamp(static_cast<int>(t.box.y * static_cast<float>(h)), 0, h - 1);
            const int loc = row * w + col;
            // Best anchor by shape-only IoU (both boxes centred at origin).
            Box truth_shift = t.box;
            truth_shift.x = 0;
            truth_shift.y = 0;
            int best_n = 0;
            float best_anchor_iou = -1;
            for (int n = 0; n < config_.num; ++n) {
                Box anchor_box;
                anchor_box.w = config_.anchors[static_cast<std::size_t>(2 * n)] / static_cast<float>(w);
                anchor_box.h = config_.anchors[static_cast<std::size_t>(2 * n + 1)] / static_cast<float>(h);
                const float v = iou(truth_shift, anchor_box);
                if (v > best_anchor_iou) {
                    best_anchor_iou = v;
                    best_n = n;
                }
            }
            // Coordinate deltas, weighted toward small boxes (darknet's
            // (2 - w*h) trick).
            const float scale = config_.coord_scale * (2.0f - t.box.w * t.box.h);
            const float tx = t.box.x * static_cast<float>(w) - static_cast<float>(col);
            const float ty = t.box.y * static_cast<float>(h) - static_cast<float>(row);
            const float tw = std::log(std::max(1e-6f, t.box.w * static_cast<float>(w) /
                                                          config_.anchors[static_cast<std::size_t>(2 * best_n)]));
            const float th = std::log(std::max(1e-6f, t.box.h * static_cast<float>(h) /
                                                          config_.anchors[static_cast<std::size_t>(2 * best_n + 1)]));
            const float sx = output_[entry_index(b, best_n, 0, loc)];
            const float sy = output_[entry_index(b, best_n, 1, loc)];
            const float rw = input[entry_index(b, best_n, 2, loc)];
            const float rh = input[entry_index(b, best_n, 3, loc)];
            delta_[entry_index(b, best_n, 0, loc)] = scale * (sx - tx) * logistic_gradient(sx);
            delta_[entry_index(b, best_n, 1, loc)] = scale * (sy - ty) * logistic_gradient(sy);
            delta_[entry_index(b, best_n, 2, loc)] = scale * (rw - tw);
            delta_[entry_index(b, best_n, 3, loc)] = scale * (rh - th);
            coord_loss += 0.5 * scale *
                          ((sx - tx) * (sx - tx) + (sy - ty) * (sy - ty) +
                           (rw - tw) * (rw - tw) + (rh - th) * (rh - th));

            const Box pred = decode_box(b, best_n, col, row, output_);
            const float iou_pred = iou(pred, t.box);
            const std::int64_t obj_idx = entry_index(b, best_n, 4, loc);
            const float obj = output_[obj_idx];
            const float obj_target = config_.rescore ? iou_pred : 1.0f;
            // The responsible predictor's delta replaces any no-object delta
            // written in pass 1; retract that pass's loss contribution so the
            // reported loss stays the integral of the emitted gradient
            // (darknet gets this for free by deriving cost from the delta
            // array).
            if (delta_[obj_idx] != 0.0f) {
                obj_loss -= 0.5 * config_.noobject_scale * obj * obj;
            }
            delta_[obj_idx] =
                config_.object_scale * (obj - obj_target) * logistic_gradient(obj);
            obj_loss += 0.5 * config_.object_scale * (obj - obj_target) * (obj - obj_target);

            // Softmax cross-entropy class gradient on the logits.
            for (int c = 0; c < config_.classes; ++c) {
                const std::int64_t idx = entry_index(b, best_n, 5 + c, loc);
                const float p = output_[idx];
                const float target = (c == t.class_id) ? 1.0f : 0.0f;
                delta_[idx] = config_.class_scale * (p - target);
                if (c == t.class_id) {
                    class_loss -= config_.class_scale * std::log(std::max(p, 1e-9f));
                }
            }

            iou_sum += iou_pred;
            obj_sum += obj;
            ++matched;
            if (iou_pred > 0.5f) ++recalled;
        }
    }
    stats_.coord_loss = static_cast<float>(coord_loss);
    stats_.obj_loss = static_cast<float>(obj_loss);
    stats_.class_loss = static_cast<float>(class_loss);
    stats_.loss = stats_.coord_loss + stats_.obj_loss + stats_.class_loss;
    stats_.truth_count = matched;
    if (matched > 0) {
        stats_.avg_iou = static_cast<float>(iou_sum / matched);
        stats_.avg_obj = static_cast<float>(obj_sum / matched);
        stats_.recall50 = static_cast<float>(recalled) / static_cast<float>(matched);
    }
}

void RegionLayer::backward(const Tensor&, Tensor* input_delta, Network&) {
    if (input_delta == nullptr) return;
    axpy(1.0f, delta_.span(), input_delta->span());
}

Detections RegionLayer::decode(int b) const {
    if (b < 0 || b >= input_shape_.n) {
        throw std::out_of_range("RegionLayer::decode: bad batch index");
    }
    Detections dets;
    const int w = grid_w();
    const int h = grid_h();
    dets.reserve(static_cast<std::size_t>(config_.num) * w * h);
    for (int n = 0; n < config_.num; ++n) {
        for (int row = 0; row < h; ++row) {
            for (int col = 0; col < w; ++col) {
                const int loc = row * w + col;
                Detection d;
                d.box = decode_box(b, n, col, row, output_);
                d.objectness = output_[entry_index(b, n, 4, loc)];
                d.class_id = 0;
                d.class_prob = 0;
                for (int c = 0; c < config_.classes; ++c) {
                    const float p = output_[entry_index(b, n, 5 + c, loc)];
                    if (p > d.class_prob) {
                        d.class_prob = p;
                        d.class_id = c;
                    }
                }
                dets.push_back(d);
            }
        }
    }
    return dets;
}

}  // namespace dronet
