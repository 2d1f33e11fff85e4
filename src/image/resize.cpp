#include "image/resize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "simd/kernels.hpp"

namespace dronet {

Image resize_bilinear(const Image& src, int new_w, int new_h) {
    if (src.empty()) throw std::invalid_argument("resize_bilinear: empty source");
    Image dst(new_w, new_h, src.channels());
    resize_bilinear_into(src, new_w, new_h, dst.data());
    return dst;
}

void resize_bilinear_into(const Image& src, int new_w, int new_h, float* dst) {
    if (src.empty()) throw std::invalid_argument("resize_bilinear: empty source");
    // Half-pixel (pixel-center) sampling: destination pixel center (x + 0.5)
    // maps to source coordinate (x + 0.5) * src/dst. This is the same
    // continuous-coordinate scaling that letterbox's `scale = dst/src` implies,
    // so the embed and the inverse box transform share one convention
    // (align-corners' (src-1)/(dst-1) mapping did not, drifting by up to half
    // a pixel at the borders).
    //
    // Two-pass separable structure: the horizontal lerp of each needed source
    // row is computed once and cached (each source row feeds up to two output
    // rows when upscaling), and the vertical lerp runs over whole rows via
    // the dispatched lerp_rows kernel. Per-element operations and their order
    // are identical to the fused per-pixel loop this replaced, so results are
    // bitwise unchanged at every dispatch level.
    const float sx = static_cast<float>(src.width()) / new_w;
    const float sy = static_cast<float>(src.height()) / new_h;
    std::vector<int> xi0(static_cast<std::size_t>(new_w));
    std::vector<int> xi1(static_cast<std::size_t>(new_w));
    std::vector<float> wxv(static_cast<std::size_t>(new_w));
    for (int x = 0; x < new_w; ++x) {
        const float fx = std::max((x + 0.5f) * sx - 0.5f, 0.0f);
        xi0[static_cast<std::size_t>(x)] = std::min(static_cast<int>(fx), src.width() - 1);
        xi1[static_cast<std::size_t>(x)] =
            std::min(xi0[static_cast<std::size_t>(x)] + 1, src.width() - 1);
        wxv[static_cast<std::size_t>(x)] =
            fx - static_cast<float>(xi0[static_cast<std::size_t>(x)]);
    }
    const auto lerp_rows = simd::kernels().lerp_rows;
    std::vector<float> buf0(static_cast<std::size_t>(new_w));
    std::vector<float> buf1(static_cast<std::size_t>(new_w));
    for (int c = 0; c < src.channels(); ++c) {
        int have0 = -1;
        int have1 = -1;
        const auto hrow = [&](int iy, float* out) {
            for (int x = 0; x < new_w; ++x) {
                const float wx = wxv[static_cast<std::size_t>(x)];
                out[x] = src.px(xi0[static_cast<std::size_t>(x)], iy, c) * (1 - wx) +
                         src.px(xi1[static_cast<std::size_t>(x)], iy, c) * wx;
            }
        };
        for (int y = 0; y < new_h; ++y) {
            const float fy = std::max((y + 0.5f) * sy - 0.5f, 0.0f);
            const int y0 = std::min(static_cast<int>(fy), src.height() - 1);
            const int y1 = std::min(y0 + 1, src.height() - 1);
            const float wy = fy - static_cast<float>(y0);
            if (y0 == have1 && y0 != have0) {
                std::swap(buf0, buf1);
                std::swap(have0, have1);
            }
            if (have0 != y0) {
                hrow(y0, buf0.data());
                have0 = y0;
            }
            if (y1 != y0 && have1 != y1) {
                hrow(y1, buf1.data());
                have1 = y1;
            }
            const float* top = buf0.data();
            const float* bot = y1 == y0 ? buf0.data() : buf1.data();
            lerp_rows(top, bot, wy,
                      dst + (static_cast<std::size_t>(c) * new_h + y) * new_w,
                      static_cast<std::size_t>(new_w));
        }
    }
}

Image resize_nearest(const Image& src, int new_w, int new_h) {
    if (src.empty()) throw std::invalid_argument("resize_nearest: empty source");
    Image dst(new_w, new_h, src.channels());
    for (int y = 0; y < new_h; ++y) {
        const int sy = std::min(src.height() - 1,
                                static_cast<int>((y + 0.5f) * src.height() / new_h));
        for (int x = 0; x < new_w; ++x) {
            const int sx = std::min(src.width() - 1,
                                    static_cast<int>((x + 0.5f) * src.width() / new_w));
            for (int c = 0; c < src.channels(); ++c) dst.px(x, y, c) = src.px(sx, sy, c);
        }
    }
    return dst;
}

Letterbox letterbox(const Image& src, int new_w, int new_h) {
    if (src.empty()) throw std::invalid_argument("letterbox: empty source");
    Letterbox out;
    out.scale = std::min(static_cast<float>(new_w) / src.width(),
                         static_cast<float>(new_h) / src.height());
    out.emb_w = std::max(1, static_cast<int>(std::lround(src.width() * out.scale)));
    out.emb_h = std::max(1, static_cast<int>(std::lround(src.height() * out.scale)));
    const int emb_w = out.emb_w;
    const int emb_h = out.emb_h;
    out.offset_x = (new_w - emb_w) / 2;
    out.offset_y = (new_h - emb_h) / 2;
    Image embedded = resize_bilinear(src, emb_w, emb_h);
    out.image = Image(new_w, new_h, src.channels());
    out.image.fill(0.5f);
    for (int y = 0; y < emb_h; ++y) {
        for (int x = 0; x < emb_w; ++x) {
            for (int c = 0; c < src.channels(); ++c) {
                out.image.px(x + out.offset_x, y + out.offset_y, c) = embedded.px(x, y, c);
            }
        }
    }
    return out;
}

}  // namespace dronet
