#include "eval/fps_meter.hpp"

#include <algorithm>
#include <stdexcept>

namespace dronet {

double measure_fps(const std::function<void()>& frame, int warmup, int iters) {
    if (iters <= 0) throw std::invalid_argument("measure_fps: iters must be positive");
    for (int i = 0; i < warmup; ++i) frame();
    const auto begin = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) frame();
    const auto end = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(end - begin).count();
    return seconds > 0 ? static_cast<double>(iters) / seconds : 0.0;
}

void FpsMeter::frame_start() {
    start_ = Clock::now();
    open_ = true;
}

void FpsMeter::frame_end() {
    if (!open_) throw std::logic_error("FpsMeter::frame_end without frame_start");
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start_).count();
    total_ms_ += ms;
    max_ms_ = std::max(max_ms_, ms);
    ++frames_;
    open_ = false;
}

double FpsMeter::mean_latency_ms() const noexcept {
    return frames_ > 0 ? total_ms_ / frames_ : 0.0;
}

double FpsMeter::fps() const noexcept {
    return total_ms_ > 0 ? 1000.0 * frames_ / total_ms_ : 0.0;
}

}  // namespace dronet
