// Latency/throughput instrumentation for the detection service.
//
// Each completed frame records four stage durations (queue wait, preprocess,
// network forward, postprocess) plus the end-to-end total into log-spaced
// histograms, from which p50/p95/p99 are interpolated. The recorder is a
// plain book with no lock of its own: DetectionService keeps it under its
// one mutex with the rest of its state. snapshot() returns a plain struct
// and to_json() a single line for the bench harnesses.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dronet::serve {

/// Log-spaced latency histogram covering 1 us .. ~107 s (64 buckets, x1.33
/// per step). Records are clamped into the covered range. Not thread-safe.
class LatencyHistogram {
  public:
    static constexpr int kBuckets = 64;

    void record(double ms) noexcept;

    [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
    [[nodiscard]] double mean_ms() const noexcept;
    [[nodiscard]] double max_ms() const noexcept { return max_ms_; }
    /// Interpolated percentile, p in [0,100]. Returns 0 with no samples.
    [[nodiscard]] double percentile(double p) const noexcept;

  private:
    [[nodiscard]] static int bucket_of(double ms) noexcept;
    [[nodiscard]] static double bucket_upper_ms(int bucket) noexcept;

    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    double total_ms_ = 0;
    double max_ms_ = 0;
};

/// Summary of one pipeline stage, derived from its histogram.
struct StageSummary {
    std::uint64_t count = 0;
    double mean_ms = 0;
    double p50_ms = 0;
    double p95_ms = 0;
    double p99_ms = 0;
    double max_ms = 0;
};

/// Stage durations of one served frame, in milliseconds.
struct FrameTimings {
    double queue_wait_ms = 0;
    double preprocess_ms = 0;
    double forward_ms = 0;
    double postprocess_ms = 0;
    [[nodiscard]] double total_ms() const noexcept {
        return queue_wait_ms + preprocess_ms + forward_ms + postprocess_ms;
    }
};

/// Consistent point-in-time view of the service counters and latencies.
struct ServeStatsSnapshot {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;   ///< evicted by kDropOldest
    std::uint64_t rejected = 0;  ///< refused at submit: kReject full, open breaker, stopped service
    std::uint64_t batches = 0;   ///< forward passes that returned detections
    // Self-healing counters (docs/robustness.md). Once the service is
    // drained, accounting_ok() holds.
    std::uint64_t failed = 0;            ///< failed forwards, killed workers, bad input
    std::uint64_t retries = 0;           ///< transient-fault retry attempts
    std::uint64_t deadline_expired = 0;  ///< frames resolved kTimeout past their deadline
    std::uint64_t worker_restarts = 0;   ///< worker loops restarted after an escaped fault
    std::uint64_t breaker_opens = 0;     ///< circuit-breaker open transitions
    double breaker_open_ms = 0;          ///< cumulative time the breaker was open
    // Model lifecycle (docs/robustness.md, "Model lifecycle"). model_version
    // is a gauge: 1 for the construction-time model, +1 per committed swap
    // (a rollback restores the previous version number).
    std::uint64_t model_version = 0;    ///< version of the live model set
    std::uint64_t reloads = 0;          ///< committed hot swaps
    std::uint64_t reload_failures = 0;  ///< candidates rejected before swap
    std::uint64_t rollbacks = 0;        ///< probation/explicit reversions
    // Live gauges (point-in-time, not counters). DetectionService::stats()
    // fills them; a bare ServeStats::snapshot() leaves them zero. They feed
    // the cluster router's least-loaded dispatch and the fleet-aggregated
    // JSON (docs/serving.md).
    std::uint64_t queue_depth = 0;  ///< frames waiting in the service queue now
    std::uint64_t in_flight = 0;    ///< frames submitted but not yet resolved
    std::uint64_t uptime_ms = 0;    ///< since service construction
    /// Per-batch-size histogram: (size, count) for every size that occurred,
    /// ascending. completed == sum(size * count) once the service is drained.
    std::vector<std::pair<int, std::uint64_t>> batch_sizes;
    double wall_seconds = 0;     ///< first submit -> last completion
    double throughput_fps = 0;   ///< completed / wall_seconds
    StageSummary queue_wait;
    StageSummary preprocess;
    StageSummary forward;
    StageSummary postprocess;
    StageSummary total;

    /// The accounting identity: every submitted frame landed in exactly one
    /// outcome counter. Holds once the service is drained.
    [[nodiscard]] bool accounting_ok() const noexcept {
        return submitted == completed + dropped + rejected + failed + deadline_expired;
    }
    /// One-line JSON object (stable key order) for bench harnesses.
    [[nodiscard]] std::string to_json() const;
};

/// The service's books. Not thread-safe: the owner serializes every call
/// (DetectionService under its mu_).
class ServeStats {
  public:
    /// Event counters, incremented in place by the owner. The gauges, the
    /// batch-size list, the throughput clock and the stage summaries stay
    /// zero here; snapshot() fills the last three.
    ServeStatsSnapshot counters;

    /// Counts one submitted frame; the first starts the throughput clock.
    void record_submitted() noexcept;
    /// Counts one completed frame and records its stage timings.
    void record_completed(const FrameTimings& timings) noexcept;
    /// Records one worker forward pass that returned detections for `size`
    /// frames. Sizes beyond kMaxTrackedBatch are clamped into the last bucket.
    void record_batch(std::size_t size) noexcept;

    static constexpr std::size_t kMaxTrackedBatch = 64;

    [[nodiscard]] ServeStatsSnapshot snapshot() const;

  private:
    std::array<std::uint64_t, kMaxTrackedBatch> batch_size_counts_{};
    double first_submit_s_ = 0;  ///< steady-clock seconds; set by the first submit
    double last_done_s_ = 0;
    LatencyHistogram queue_wait_;
    LatencyHistogram preprocess_;
    LatencyHistogram forward_;
    LatencyHistogram postprocess_;
    LatencyHistogram total_;
};

}  // namespace dronet::serve
