#include "serve/serve_stats.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

namespace dronet::serve {

namespace {

// Bucket i covers (kMinMs * kGrowth^(i-1), kMinMs * kGrowth^i]; bucket 0
// additionally absorbs everything below kMinMs.
constexpr double kMinMs = 1e-3;   // 1 us
constexpr double kGrowth = 1.33;  // 64 buckets reach ~6.5e4 ms

double now_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

StageSummary summarize(const LatencyHistogram& h) {
    StageSummary s;
    s.count = h.count();
    s.mean_ms = h.mean_ms();
    s.p50_ms = h.percentile(50);
    s.p95_ms = h.percentile(95);
    s.p99_ms = h.percentile(99);
    s.max_ms = h.max_ms();
    return s;
}

void json_stage(std::ostringstream& os, const char* name, const StageSummary& s) {
    os << "\"" << name << "\":{\"mean_ms\":" << s.mean_ms
       << ",\"p50_ms\":" << s.p50_ms << ",\"p95_ms\":" << s.p95_ms
       << ",\"p99_ms\":" << s.p99_ms << ",\"max_ms\":" << s.max_ms << "}";
}

}  // namespace

int LatencyHistogram::bucket_of(double ms) noexcept {
    if (!(ms > kMinMs)) return 0;  // also catches NaN / negatives
    const int b = static_cast<int>(std::ceil(std::log(ms / kMinMs) / std::log(kGrowth)));
    return std::clamp(b, 0, kBuckets - 1);
}

double LatencyHistogram::bucket_upper_ms(int bucket) noexcept {
    return kMinMs * std::pow(kGrowth, bucket);
}

void LatencyHistogram::record(double ms) noexcept {
    if (std::isnan(ms) || ms < 0) ms = 0;
    ++buckets_[static_cast<std::size_t>(bucket_of(ms))];
    ++count_;
    total_ms_ += ms;
    max_ms_ = std::max(max_ms_, ms);
}

double LatencyHistogram::mean_ms() const noexcept {
    return count_ > 0 ? total_ms_ / static_cast<double>(count_) : 0.0;
}

double LatencyHistogram::percentile(double p) const noexcept {
    if (count_ == 0) return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    const double rank = p / 100.0 * static_cast<double>(count_);
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
        const std::uint64_t in_bucket = buckets_[static_cast<std::size_t>(i)];
        if (in_bucket == 0) continue;
        if (static_cast<double>(seen + in_bucket) >= rank) {
            // Linear interpolation inside the bucket keeps small-sample
            // percentiles from snapping to bucket edges.
            const double lower = i == 0 ? 0.0 : bucket_upper_ms(i - 1);
            const double upper = std::min(bucket_upper_ms(i), max_ms_);
            const double frac =
                in_bucket > 0
                    ? (rank - static_cast<double>(seen)) / static_cast<double>(in_bucket)
                    : 1.0;
            return lower + std::clamp(frac, 0.0, 1.0) * (std::max(upper, lower) - lower);
        }
        seen += in_bucket;
    }
    return max_ms_;
}

void ServeStats::record_submitted() noexcept {
    if (counters.submitted++ == 0) first_submit_s_ = now_seconds();
}

void ServeStats::record_batch(std::size_t size) noexcept {
    if (size == 0) return;
    ++counters.batches;
    ++batch_size_counts_[std::min(size, kMaxTrackedBatch) - 1];
}

void ServeStats::record_completed(const FrameTimings& t) noexcept {
    ++counters.completed;
    last_done_s_ = now_seconds();
    queue_wait_.record(t.queue_wait_ms);
    preprocess_.record(t.preprocess_ms);
    forward_.record(t.forward_ms);
    postprocess_.record(t.postprocess_ms);
    total_.record(t.total_ms());
}

ServeStatsSnapshot ServeStats::snapshot() const {
    ServeStatsSnapshot s = counters;
    for (std::size_t i = 0; i < kMaxTrackedBatch; ++i) {
        if (batch_size_counts_[i] > 0) {
            s.batch_sizes.emplace_back(static_cast<int>(i + 1), batch_size_counts_[i]);
        }
    }
    s.wall_seconds =
        s.submitted > 0 ? std::max(0.0, last_done_s_ - first_submit_s_) : 0.0;
    s.throughput_fps = s.wall_seconds > 0
                           ? static_cast<double>(s.completed) / s.wall_seconds
                           : 0.0;
    s.queue_wait = summarize(queue_wait_);
    s.preprocess = summarize(preprocess_);
    s.forward = summarize(forward_);
    s.postprocess = summarize(postprocess_);
    s.total = summarize(total_);
    return s;
}

std::string ServeStatsSnapshot::to_json() const {
    std::ostringstream os;
    os << "{\"submitted\":" << submitted << ",\"completed\":" << completed
       << ",\"dropped\":" << dropped << ",\"rejected\":" << rejected
       << ",\"failed\":" << failed << ",\"retries\":" << retries
       << ",\"deadline_expired\":" << deadline_expired
       << ",\"worker_restarts\":" << worker_restarts
       << ",\"breaker_opens\":" << breaker_opens
       << ",\"breaker_open_ms\":" << breaker_open_ms
       << ",\"model_version\":" << model_version
       << ",\"reloads\":" << reloads
       << ",\"reload_failures\":" << reload_failures
       << ",\"rollbacks\":" << rollbacks
       << ",\"queue_depth\":" << queue_depth
       << ",\"in_flight\":" << in_flight
       << ",\"uptime_ms\":" << uptime_ms
       << ",\"batches\":" << batches << ",\"batch_sizes\":{";
    for (std::size_t i = 0; i < batch_sizes.size(); ++i) {
        if (i > 0) os << ",";
        os << "\"" << batch_sizes[i].first << "\":" << batch_sizes[i].second;
    }
    os << "}"
       << ",\"wall_seconds\":" << wall_seconds
       << ",\"throughput_fps\":" << throughput_fps << ",";
    json_stage(os, "queue_wait", queue_wait);
    os << ",";
    json_stage(os, "preprocess", preprocess);
    os << ",";
    json_stage(os, "forward", forward);
    os << ",";
    json_stage(os, "postprocess", postprocess);
    os << ",";
    json_stage(os, "total", total);
    os << "}";
    return os.str();
}

}  // namespace dronet::serve
