// End-to-end detector evaluation over a dataset.
//
// Runs the network on every test image at its current input resolution,
// post-processes (score filter + NMS) and accumulates the paper's accuracy
// metrics.
#pragma once

#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "eval/metrics.hpp"
#include "image/resize.hpp"
#include "nn/network.hpp"
#include "nn/quantize.hpp"

namespace dronet {

struct EvalConfig {
    float score_threshold = 0.30f;  ///< objectness*class acceptance threshold
    float nms_threshold = 0.40f;    ///< NMS IoU threshold
    float match_iou = 0.50f;        ///< TP matching threshold
    /// Aspect-preserving letterbox preprocessing (darknet's test-time path)
    /// instead of plain resampling; boxes are mapped back to source-image
    /// coordinates. Matters for non-square camera frames.
    bool use_letterbox = false;
};

/// Per-stage wall-clock breakdown of one detect_image call, in milliseconds.
/// Feeds the serving layer's latency histograms (src/serve).
struct DetectStageTimings {
    double preprocess_ms = 0;   ///< resize/letterbox + NCHW copy
    double forward_ms = 0;      ///< network forward pass
    double postprocess_ms = 0;  ///< decode + score filter + NMS (+ unletterbox)
};

/// Runs `net` (batch 1) on one image and returns post-processed detections.
/// Images whose channel count differs from the network input are converted
/// (gray replicated to RGB, alpha dropped); unsupported channel combinations
/// throw std::invalid_argument.
[[nodiscard]] Detections detect_image(Network& net, const Image& image,
                                      const EvalConfig& config = {});

/// Same computation as detect_image (bit-identical results), additionally
/// filling `timings` when non-null. The network's precision decides the
/// forward's arithmetic. `int8` serves only the repository benchmark: when
/// non-null it must wrap this same `net` (std::invalid_argument otherwise).
[[nodiscard]] Detections detect_image_timed(Network& net, const Image& image,
                                            const EvalConfig& config,
                                            DetectStageTimings* timings,
                                            const QuantizedNetwork* int8 = nullptr);

/// Batched detection: preprocesses all `images` into one batch-N input tensor,
/// runs a single forward pass, and decodes/post-processes per batch index.
/// Per-image results are bit-identical to calling detect_image on each image
/// individually (every layer processes batch items independently and the GEMM
/// kernels are bit-exact regardless of batch position). Re-batches `net` to
/// images.size().
[[nodiscard]] std::vector<Detections> detect_images(Network& net,
                                                    std::span<const Image> images,
                                                    const EvalConfig& config = {});

/// detect_images with aggregate per-stage timings for the whole batch
/// (filled when `timings` is non-null). Bit-identical per image to batch-1 at
/// every precision, int8 included.
[[nodiscard]] std::vector<Detections> detect_images_timed(
    Network& net, std::span<const Image> images, const EvalConfig& config,
    DetectStageTimings* timings);

/// Maps network-space detections back through the letterbox transform into
/// source-image normalized coordinates, clamping every box to the valid [0,1]
/// range (detections extending into the letterbox padding are cut at the
/// source border). Inverts through the rounded embedded extent recorded in
/// `lb`, so letterbox -> unletterbox round-trips are exact up to float
/// arithmetic.
[[nodiscard]] Detections unletterbox(Detections dets, const Letterbox& lb, int net_w,
                                     int net_h, int src_w, int src_h);

/// Evaluates the detector over every image of `ds` at the network's
/// precision.
[[nodiscard]] DetectionMetrics evaluate_detector(Network& net, const DetectionDataset& ds,
                                                 const EvalConfig& config = {});

/// Int8 calibration over real imagery: letterboxes/resizes `images` exactly
/// as the detect path would (one batch-N tensor, one float forward) and
/// records per-conv-layer activation ranges. Re-batches `net` to
/// images.size(). This is the preferred calibration source; pass the result
/// to Network::set_precision(Precision::kInt8, ...).
[[nodiscard]] Int8Calibration calibrate_int8(Network& net, std::span<const Image> images,
                                             const EvalConfig& config = {});

}  // namespace dronet
