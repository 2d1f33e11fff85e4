// Wall-clock frames-per-second measurement (paper §IV, metric 4).
#pragma once

#include <chrono>
#include <functional>

namespace dronet {

/// Runs `frame` `warmup` times unmeasured, then `iters` times measured;
/// returns iterations per wall-clock second.
[[nodiscard]] double measure_fps(const std::function<void()>& frame, int warmup = 1,
                                 int iters = 5);

/// Streaming FPS/latency tracker for the video pipeline: call frame_start /
/// frame_end around each frame.
class FpsMeter {
  public:
    void frame_start();
    void frame_end();

    [[nodiscard]] int frames() const noexcept { return frames_; }
    /// Mean latency per frame in milliseconds.
    [[nodiscard]] double mean_latency_ms() const noexcept;
    [[nodiscard]] double max_latency_ms() const noexcept { return max_ms_; }
    [[nodiscard]] double fps() const noexcept;

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_{};
    double total_ms_ = 0;
    double max_ms_ = 0;
    int frames_ = 0;
    bool open_ = false;
};

}  // namespace dronet
