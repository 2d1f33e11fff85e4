// Consecutive-failure circuit breaker, the one policy both serving tiers run:
// DetectionService feeds it frame results, and the Router feeds one Breaker
// per worker its health-check results (docs/robustness.md, docs/serving.md).
//
// The policy:
//   * closed: `threshold` consecutive failures open it (fail() returns true);
//     a success zeroes the count;
//   * open: results change nothing; poll(now) half-opens it once `open_for`
//     has passed since it opened;
//   * half-open: the next success closes it, and the next failure re-opens
//     it at once (fail() returns true again).
//
// A Breaker does no I/O, takes no lock and reads no clock. Callers pass the
// time under their own mutex, so tests drive it with explicit time points
// instead of sleeps.
#pragma once

#include <chrono>

namespace dronet::serve {

class Breaker {
  public:
    using Clock = std::chrono::steady_clock;
    enum class State { kClosed, kOpen, kHalfOpen };

    /// `threshold` consecutive failures open the breaker, which half-opens
    /// `open_for` later.
    Breaker(int threshold, Clock::duration open_for) noexcept
        : threshold_(threshold), open_for_(open_for) {}

    /// Half-opens an open breaker once `open_for` has passed since it opened;
    /// returns the state after that check.
    State poll(Clock::time_point now) noexcept {
        if (state_ == State::kOpen && now - opened_at_ >= open_for_) {
            state_ = State::kHalfOpen;
        }
        return state_;
    }

    /// Counts one failure. Returns true when it opens the breaker: the
    /// threshold-th consecutive failure while closed, or any failure while
    /// half-open. Ignored while open.
    bool fail(Clock::time_point now) noexcept {
        if (state_ == State::kOpen) return false;
        if (state_ == State::kClosed && ++failures_ < threshold_) return false;
        state_ = State::kOpen;
        opened_at_ = now;
        failures_ = 0;
        return true;
    }

    /// Counts one success: zeroes the failure count while closed and closes a
    /// half-open breaker. Ignored while open.
    void succeed() noexcept {
        if (state_ == State::kOpen) return;
        state_ = State::kClosed;
        failures_ = 0;
    }

    /// Closed, with no failures counted.
    void reset() noexcept {
        state_ = State::kClosed;
        failures_ = 0;
    }

    [[nodiscard]] State state() const noexcept { return state_; }
    /// When the breaker last opened; meaningful once fail() has returned true.
    [[nodiscard]] Clock::time_point opened_at() const noexcept { return opened_at_; }

  private:
    int threshold_;
    Clock::duration open_for_;
    State state_ = State::kClosed;
    int failures_ = 0;  ///< consecutive failures while closed
    Clock::time_point opened_at_{};
};

}  // namespace dronet::serve
