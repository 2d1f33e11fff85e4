#include "eval/evaluator.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>
#include <vector>

#include "detect/nms.hpp"
#include "image/color.hpp"
#include "image/resize.hpp"

namespace dronet {

namespace {

// Milliseconds elapsed since `since`, and resets `since` to now. No-op cost
// when the caller passed no timings sink.
double lap_ms(std::chrono::steady_clock::time_point& since) {
    const auto now = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(now - since).count();
    since = now;
    return ms;
}

// Per-image preprocessing record; carries the letterbox transform forward to
// the post-decode inverse mapping.
struct Preprocess {
    bool letterboxed = false;
    Letterbox lb;
};

// Preprocesses one image into batch slot `b` of `input` (whose shape is the
// network input shape `in`). The transform sequence is the same regardless of
// batch size, which is what keeps batched detection bit-exact per image
// against the batch-1 path.
Preprocess preprocess_image(const Image& image, const Shape& in,
                            const EvalConfig& config, Tensor& input, int b) {
    if (image.empty()) throw std::invalid_argument("detect_image: empty image");
    Preprocess pp;
    const Image* src = &image;
    Image converted;
    if (image.channels() != in.c) {
        converted = convert_channels(image, in.c);
        src = &converted;
    }
    if (config.use_letterbox && (src->width() != in.w || src->height() != in.h)) {
        pp.letterboxed = true;
        pp.lb = letterbox(*src, in.w, in.h);
        pp.lb.image.copy_to_batch(input, b);
    } else if (src->width() == in.w && src->height() == in.h) {
        src->copy_to_batch(input, b);
    } else {
        resize_bilinear_into(*src, in.w, in.h,
                             input.data() + static_cast<std::int64_t>(b) * in.chw());
    }
    return pp;
}

}  // namespace

Detections unletterbox(Detections dets, const Letterbox& lb, int net_w, int net_h,
                       int src_w, int src_h) {
    // Invert through the *rounded* embedded extent so the mapping is the exact
    // inverse of what letterbox() rendered; fall back to the unrounded scale
    // for hand-built Letterbox values that predate the emb_w/emb_h fields.
    const float emb_w = lb.emb_w > 0 ? static_cast<float>(lb.emb_w)
                                     : lb.scale * static_cast<float>(src_w);
    const float emb_h = lb.emb_h > 0 ? static_cast<float>(lb.emb_h)
                                     : lb.scale * static_cast<float>(src_h);
    for (Detection& d : dets) {
        const float cx = (d.box.x * static_cast<float>(net_w) -
                          static_cast<float>(lb.offset_x)) / emb_w;
        const float cy = (d.box.y * static_cast<float>(net_h) -
                          static_cast<float>(lb.offset_y)) / emb_h;
        const float w = d.box.w * static_cast<float>(net_w) / emb_w;
        const float h = d.box.h * static_cast<float>(net_h) / emb_h;
        // Clamp to the valid [0,1] source range: boxes extending into the gray
        // padding otherwise come back out of range and skew IoU matching. A
        // box entirely inside the padding collapses to zero extent at the
        // nearest border (zero area, matches nothing).
        const float left = std::clamp(cx - w / 2, 0.0f, 1.0f);
        const float right = std::clamp(cx + w / 2, 0.0f, 1.0f);
        const float top = std::clamp(cy - h / 2, 0.0f, 1.0f);
        const float bottom = std::clamp(cy + h / 2, 0.0f, 1.0f);
        d.box = Box::from_corners(left, top, right, bottom);
    }
    return dets;
}

Detections detect_image(Network& net, const Image& image, const EvalConfig& config) {
    return detect_image_timed(net, image, config, nullptr);
}

Detections detect_image_timed(Network& net, const Image& image,
                              const EvalConfig& config, DetectStageTimings* timings,
                              const QuantizedNetwork* int8) {
    if (int8 != nullptr && &int8->source() != &net) {
        throw std::invalid_argument(
            "detect_image_timed: the QuantizedNetwork wraps a different Network");
    }
    std::vector<Detections> out =
        detect_images_timed(net, std::span<const Image>(&image, 1), config, timings);
    return std::move(out.front());
}

std::vector<Detections> detect_images(Network& net, std::span<const Image> images,
                                      const EvalConfig& config) {
    return detect_images_timed(net, images, config, nullptr);
}

std::vector<Detections> detect_images_timed(Network& net, std::span<const Image> images,
                                            const EvalConfig& config,
                                            DetectStageTimings* timings) {
    RegionLayer* head = net.region();
    if (head == nullptr) throw std::logic_error("detect_images: network has no region layer");
    if (images.empty()) return {};
    net.set_batch(static_cast<int>(images.size()));
    const Shape in = net.input_shape();
    Tensor& input = net.input_buffer();
    auto mark = std::chrono::steady_clock::now();
    std::vector<Preprocess> pre(images.size());
    for (std::size_t b = 0; b < images.size(); ++b) {
        pre[b] = preprocess_image(images[b], in, config, input, static_cast<int>(b));
    }
    if (timings != nullptr) timings->preprocess_ms = lap_ms(mark);
    net.forward(input, /*train=*/false);
    if (timings != nullptr) timings->forward_ms = lap_ms(mark);
    std::vector<Detections> out(images.size());
    for (std::size_t b = 0; b < images.size(); ++b) {
        Detections dets = head->decode(static_cast<int>(b));
        if (pre[b].letterboxed) {
            dets = unletterbox(std::move(dets), pre[b].lb, in.w, in.h,
                               images[b].width(), images[b].height());
        }
        out[b] = postprocess(dets, config.score_threshold, config.nms_threshold);
    }
    if (timings != nullptr) timings->postprocess_ms = lap_ms(mark);
    return out;
}

DetectionMetrics evaluate_detector(Network& net, const DetectionDataset& ds,
                                   const EvalConfig& config) {
    DetectionMetrics total;
    for (std::size_t i = 0; i < ds.size(); ++i) {
        const Detections dets = detect_image(net, ds.image(i), config);
        total += match_detections(dets, ds.truths(i), config.match_iou);
    }
    return total;
}

Int8Calibration calibrate_int8(Network& net, std::span<const Image> images,
                               const EvalConfig& config) {
    if (images.empty()) throw std::invalid_argument("calibrate_int8: no images");
    net.set_batch(static_cast<int>(images.size()));
    const Shape in = net.input_shape();
    Tensor input(in);
    for (std::size_t b = 0; b < images.size(); ++b) {
        (void)preprocess_image(images[b], in, config, input, static_cast<int>(b));
    }
    return calibrate(net, std::span<const Tensor>(&input, 1));
}

}  // namespace dronet
