// Image resampling.
//
// The paper's §III.C.2 / §IV.A.2 experiments sweep the network input size
// from 352 to 608; frames from the (synthetic) camera are resampled to the
// network resolution with these routines. `letterbox` preserves aspect ratio
// with gray padding, matching darknet's test-time preprocessing.
#pragma once

#include "image/image.hpp"

namespace dronet {

/// Bilinear resample to new_w x new_h.
[[nodiscard]] Image resize_bilinear(const Image& src, int new_w, int new_h);

/// resize_bilinear written into caller memory: `dst` receives
/// src.channels() planes of new_w x new_h floats (CHW, Image's layout), such
/// as one batch slot of a network input tensor. resize_bilinear is this
/// into a fresh Image, so both give bit-identical pixels.
void resize_bilinear_into(const Image& src, int new_w, int new_h, float* dst);

/// Nearest-neighbour resample (cheap path used by the video pipeline's
/// preview output; not used for network input).
[[nodiscard]] Image resize_nearest(const Image& src, int new_w, int new_h);

/// Result of letterboxing: the padded image plus the transform needed to map
/// network-space boxes back to source-image space.
struct Letterbox {
    Image image;      ///< new_w x new_h with gray (0.5) padding
    float scale = 1;  ///< source * scale = embedded size (before rounding)
    int offset_x = 0; ///< left padding in pixels
    int offset_y = 0; ///< top padding in pixels
    int emb_w = 0;    ///< embedded width in pixels (rounded from scale)
    int emb_h = 0;    ///< embedded height in pixels (rounded from scale)
};

/// Aspect-preserving embed of `src` into a new_w x new_h canvas.
[[nodiscard]] Letterbox letterbox(const Image& src, int new_w, int new_h);

}  // namespace dronet
