// Bounded multi-producer/multi-consumer queue with pluggable backpressure.
//
// The serving layer's robustness story for live video: when frames arrive
// faster than the workers drain them, the queue either blocks the producer
// (batch jobs, lossless), rejects the new frame (load shedding at the edge),
// or evicts the oldest queued frame (live streams, where the newest frame is
// the most valuable one). All three policies are exercised under TSan by the
// `concurrency`-labeled tests.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "sync/mutex.hpp"

namespace dronet::serve {

enum class BackpressurePolicy {
    kBlock,      ///< push() waits for space (lossless; producers throttle)
    kReject,     ///< push() fails immediately when full
    kDropOldest, ///< push() evicts the oldest queued item to make room
};

[[nodiscard]] constexpr const char* to_string(BackpressurePolicy p) noexcept {
    switch (p) {
        case BackpressurePolicy::kBlock: return "block";
        case BackpressurePolicy::kReject: return "reject";
        case BackpressurePolicy::kDropOldest: return "drop-oldest";
    }
    return "?";
}

enum class PushOutcome {
    kEnqueued,       ///< item accepted
    kRejected,       ///< queue full under kReject, item returned to caller
    kEvictedOldest,  ///< item accepted; the oldest item was evicted
    kClosed,         ///< queue closed, item returned to caller
};

template <typename T>
class BoundedQueue {
  public:
    explicit BoundedQueue(std::size_t capacity,
                          BackpressurePolicy policy = BackpressurePolicy::kBlock)
        : capacity_(capacity == 0 ? 1 : capacity), policy_(policy) {}

    BoundedQueue(const BoundedQueue&) = delete;
    BoundedQueue& operator=(const BoundedQueue&) = delete;

    /// Enqueues `item` according to the backpressure policy. On kRejected or
    /// kClosed the argument is left unconsumed (not moved from). On
    /// kEvictedOldest the evicted element is moved into `*evicted` when the
    /// caller provides one (so a serving layer can fail that frame's future).
    PushOutcome push(T&& item, std::optional<T>* evicted = nullptr)
        EXCLUDES(mu_) {
        DRONET_FAULT_POINT(fault::kSiteQueuePush);  // before the lock: latency
        sync::MutexLock lock(mu_);
        if (policy_ == BackpressurePolicy::kBlock) {
            while (!closed_ && items_.size() >= capacity_) not_full_.wait(mu_);
        }
        if (closed_) return PushOutcome::kClosed;
        PushOutcome outcome = PushOutcome::kEnqueued;
        if (items_.size() >= capacity_) {
            if (policy_ == BackpressurePolicy::kReject) return PushOutcome::kRejected;
            // kDropOldest (kBlock can't get here: the wait above guarantees room).
            if (evicted != nullptr) *evicted = std::move(items_.front());
            items_.pop_front();
            outcome = PushOutcome::kEvictedOldest;
        }
        items_.push_back(std::move(item));
        lock.unlock();
        not_empty_.notify_one();
        return outcome;
    }

    /// Blocks until an item is available or the queue is closed and drained;
    /// returns nullopt only in the latter case.
    std::optional<T> pop() EXCLUDES(mu_) {
        sync::MutexLock lock(mu_);
        while (!closed_ && items_.empty()) not_empty_.wait(mu_);
        if (items_.empty()) return std::nullopt;  // closed and drained
        T item = std::move(items_.front());
        items_.pop_front();
        lock.unlock();
        not_full_.notify_one();
        return item;
    }

    /// Batched pop for micro-batching consumers: blocks for the first item
    /// exactly like pop(), then lingers up to `linger` for more items, taking
    /// at most `max_items` in total. Items are appended to `out`; returns the
    /// number taken, which is 0 only when the queue is closed and drained.
    /// A zero `linger` takes whatever is already queued without waiting.
    std::size_t pop_batch(std::vector<T>& out, std::size_t max_items,
                          std::chrono::microseconds linger) EXCLUDES(mu_) {
        if (max_items == 0) return 0;
        sync::MutexLock lock(mu_);
        while (!closed_ && items_.empty()) not_empty_.wait(mu_);
        if (items_.empty()) return 0;  // closed and drained
        std::size_t taken = 0;
        take_available_locked(out, taken, max_items);
        if (linger.count() > 0 && taken < max_items) {
            const auto deadline = std::chrono::steady_clock::now() + linger;
            while (taken < max_items) {
                bool timed_out = false;
                while (!closed_ && items_.empty()) {
                    if (not_empty_.wait_until(mu_, deadline) ==
                        std::cv_status::timeout) {
                        timed_out = true;
                        break;
                    }
                }
                if (items_.empty()) break;  // timed out, or closed dry
                take_available_locked(out, taken, max_items);
                if (timed_out) break;
            }
        }
        lock.unlock();
        // Potentially freed several slots; wake every blocked producer.
        if (taken > 1) not_full_.notify_all();
        else not_full_.notify_one();
        // After the take, outside the lock: a kill or throw escapes with the
        // items in `out`, which the consumer must fail; a latency delays it.
        DRONET_FAULT_POINT(fault::kSiteQueuePop);
        return taken;
    }

    /// Closes the queue: subsequent pushes fail with kClosed, blocked
    /// producers and consumers wake up. Items already queued remain poppable.
    void close() EXCLUDES(mu_) {
        {
            sync::MutexLock lock(mu_);
            closed_ = true;
        }
        not_empty_.notify_all();
        not_full_.notify_all();
    }

    [[nodiscard]] std::size_t size() const EXCLUDES(mu_) {
        sync::MutexLock lock(mu_);
        return items_.size();
    }

  private:
    /// Moves up to `max_items - taken` queued items into `out`.
    void take_available_locked(std::vector<T>& out, std::size_t& taken,
                               std::size_t max_items) REQUIRES(mu_) {
        while (taken < max_items && !items_.empty()) {
            out.push_back(std::move(items_.front()));
            items_.pop_front();
            ++taken;
        }
    }

    mutable sync::Mutex mu_{"BoundedQueue::mu"};
    sync::CondVar not_empty_;
    sync::CondVar not_full_;
    std::deque<T> items_ GUARDED_BY(mu_);
    const std::size_t capacity_;
    const BackpressurePolicy policy_;
    bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace dronet::serve
