#include "serve/detection_service.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "eval/evaluator.hpp"
#include "fault/fault.hpp"
#include "nn/clone.hpp"
#include "nn/quantize.hpp"
#include "nn/weights_io.hpp"
#include "tensor/rng.hpp"

namespace dronet::serve {

namespace {

double ms_since(std::chrono::steady_clock::time_point t) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t)
        .count();
}

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();

/// Thrown by detect_with_retry when a frame's deadline expires mid-retry;
/// both ends live in this TU.
struct DeadlineExpired {};

}  // namespace

DetectionService::DetectionService(const Network& prototype, ServiceConfig config)
    : config_(config),
      altitude_filter_(config.pipeline.camera, config.pipeline.size_prior),
      queue_(config.queue_capacity, config.policy),
      started_at_(std::chrono::steady_clock::now()) {
    if (config_.workers <= 0) {
        throw std::invalid_argument("DetectionService: workers must be positive");
    }
    if (config_.max_batch <= 0) {
        throw std::invalid_argument("DetectionService: max_batch must be positive");
    }
    if (config_.batch_timeout_us < 0) {
        throw std::invalid_argument("DetectionService: batch_timeout_us must be >= 0");
    }
    if (config_.deadline_ms < 0 || config_.max_retries < 0 ||
        config_.retry_backoff_ms < 0 || config_.breaker_threshold < 0 ||
        config_.watchdog_interval_ms <= 0) {
        throw std::invalid_argument("DetectionService: negative self-healing knob");
    }
    if (config_.breaker_threshold > 0 && config_.breaker_open_ms <= 0) {
        throw std::invalid_argument("DetectionService: breaker_open_ms must be positive");
    }
    if (config_.degrade_high_watermark > 0) {
        if (config_.degraded_size <= 0) {
            throw std::invalid_argument(
                "DetectionService: degradation needs degraded_size > 0");
        }
        if (config_.degrade_low_watermark > config_.degrade_high_watermark) {
            throw std::invalid_argument(
                "DetectionService: degrade_low_watermark > high watermark");
        }
        if (prototype.config().width != prototype.config().height) {
            throw std::invalid_argument(
                "DetectionService: degradation requires a square input network");
        }
    }
    if (prototype.region() == nullptr) {
        throw std::invalid_argument("DetectionService: network has no region layer");
    }
    if (prototype.precision() != Precision::kF32) {
        throw std::invalid_argument(
            "DetectionService: the prototype must be fp32; set ServiceConfig::precision");
    }
    if (config_.canary_max_divergence <= 0 || config_.reload_probation_ms < 0 ||
        config_.reload_rollback_failures <= 0) {
        throw std::invalid_argument("DetectionService: bad model-lifecycle knob");
    }
    full_size_ = prototype.config().width;
    {
        auto set = build_model_set(clone_network(prototype));
        set->version = 1;
        sync::MutexLock lock(model_mu_);
        live_set_ = std::move(set);
    }
    slots_.reserve(static_cast<std::size_t>(config_.workers));
    for (int i = 0; i < config_.workers; ++i) {
        slots_.push_back(std::make_unique<WorkerSlot>());
    }
    for (int i = 0; i < config_.workers; ++i) {
        slots_[static_cast<std::size_t>(i)]->thread = std::thread(
            &DetectionService::worker_loop, this, static_cast<std::size_t>(i));
    }
    if (config_.watchdog) {
        watchdog_ = std::thread(&DetectionService::watchdog_loop, this);
    }
}

DetectionService::~DetectionService() { stop(); }

// Mirrors construction for every generation: per-worker clones pre-reserved
// at the largest batch (tensor storage is grow-only, so later per-batch
// set_batch() calls in detect_images are allocation-free), the degraded
// geometry warmed when degradation is configured, and each replica set to
// the configured precision — under int8 with one calibration computed on
// replica 0 and shared (clones carry identical weights, so every replica
// quantizes identically).
std::shared_ptr<DetectionService::ModelSet>
DetectionService::build_model_set(Network candidate) {
    auto set = std::make_shared<ModelSet>();
    set->replicas.reserve(static_cast<std::size_t>(config_.workers));
    Int8Calibration calibration;
    for (int i = 0; i < config_.workers; ++i) {
        auto replica = std::make_unique<Network>(clone_network(candidate));
        replica->set_batch(config_.max_batch);
        if (config_.degrade_high_watermark > 0) {
            replica->resize_input(config_.degraded_size, config_.degraded_size);
            replica->resize_input(full_size_, full_size_);
        }
        if (config_.precision == Precision::kInt8 && i == 0) {
            calibration = self_calibrate(*replica);
            // profile_reports() covers served forwards, not calibration ones.
            if (replica->profiler() != nullptr) replica->profiler()->reset();
        }
        replica->set_precision(config_.precision, calibration);
        replica->set_batch(1);
        set->replicas.push_back(std::move(replica));
    }
    candidate.set_batch(1);
    set->reference = std::make_unique<Network>(std::move(candidate));
    return set;
}

std::shared_ptr<const DetectionService::ModelSet>
DetectionService::current_set() const {
    sync::MutexLock lock(model_mu_);
    return live_set_;
}

std::uint64_t DetectionService::model_version() const {
    sync::MutexLock lock(model_mu_);
    return live_set_ ? live_set_->version : 0;
}

std::future<ServeResult> DetectionService::submit(Image frame) {
    Job job;
    job.frame = std::move(frame);
    job.frame_index = next_index_.fetch_add(1, std::memory_order_relaxed);
    job.submit_time = std::chrono::steady_clock::now();
    job.deadline = config_.deadline_ms > 0
                       ? job.submit_time + std::chrono::milliseconds(config_.deadline_ms)
                       : kNoDeadline;
    std::future<ServeResult> future = job.promise.get_future();
    stats_.record_submitted();

    if (stopped_.load(std::memory_order_acquire)) {
        ServeResult r;
        r.status = ServeStatus::kRejected;
        r.frame.frame_index = job.frame_index;
        r.error = "service stopped";
        stats_.record_rejected();
        job.promise.set_value(std::move(r));
        return future;
    }
    if (!breaker_allows()) {
        ServeResult r;
        r.status = ServeStatus::kRejected;
        r.frame.frame_index = job.frame_index;
        r.error = "circuit breaker open";
        stats_.record_rejected();
        job.promise.set_value(std::move(r));
        return future;
    }

    {
        sync::MutexLock lock(inflight_mu_);
        ++accepted_;
    }
    const int frame_index = job.frame_index;
    std::optional<Job> evicted;
    PushOutcome outcome;
    try {
        outcome = queue_.push(std::move(job), &evicted);
    } catch (const std::exception& e) {
        // Only reachable via an injected queue.push fault; shed the frame so
        // the accounting invariant (and the caller's future) survive.
        ServeResult r;
        r.status = ServeStatus::kRejected;
        r.frame.frame_index = frame_index;
        r.error = e.what();
        stats_.record_rejected();
        job.promise.set_value(std::move(r));
        finish_one();
        return future;
    }
    switch (outcome) {
        case PushOutcome::kEnqueued:
            break;
        case PushOutcome::kEvictedOldest: {
            ServeResult r;
            r.status = ServeStatus::kDropped;
            r.frame.frame_index = evicted->frame_index;
            stats_.record_dropped();
            evicted->promise.set_value(std::move(r));
            finish_one();  // the evicted frame, not the new one
            break;
        }
        case PushOutcome::kRejected:
        case PushOutcome::kClosed: {
            // push() does not consume its argument on these outcomes, so
            // `job` (and its promise) is still ours to resolve.
            ServeResult r;
            r.status = ServeStatus::kRejected;
            r.frame.frame_index = job.frame_index;
            stats_.record_rejected();
            job.promise.set_value(std::move(r));
            finish_one();  // was counted accepted above; balance the books
            break;
        }
    }
    if (config_.degrade_high_watermark > 0 &&
        (outcome == PushOutcome::kEnqueued || outcome == PushOutcome::kEvictedOldest) &&
        queue_.size() >= config_.degrade_high_watermark) {
        if (!degraded_.exchange(true, std::memory_order_acq_rel)) {
            stats_.record_degrade_transition();
        }
    }
    return future;
}

void DetectionService::resolve(Job& job, ServeResult r) {
    job.promise.set_value(std::move(r));
    job.resolved = true;
    finish_one();
}

void DetectionService::expire_overdue(std::vector<Job>& jobs) {
    if (config_.deadline_ms <= 0) return;
    const auto now = std::chrono::steady_clock::now();
    std::vector<Job> kept;
    kept.reserve(jobs.size());
    for (Job& job : jobs) {
        if (now > job.deadline) {
            ServeResult r;
            r.status = ServeStatus::kTimeout;
            r.frame.frame_index = job.frame_index;
            r.error = "deadline expired before processing";
            stats_.record_deadline_expired();
            resolve(job, std::move(r));
        } else {
            kept.push_back(std::move(job));
        }
    }
    jobs.swap(kept);
}

void DetectionService::apply_degrade_mode(Network& net, bool& degraded_now) {
    degraded_now = false;
    if (config_.degrade_high_watermark == 0) return;
    if (degraded_.load(std::memory_order_acquire) &&
        queue_.size() <= config_.degrade_low_watermark) {
        if (degraded_.exchange(false, std::memory_order_acq_rel)) {
            stats_.record_degrade_transition();
        }
    }
    degraded_now = degraded_.load(std::memory_order_acquire);
    const int desired = degraded_now ? config_.degraded_size : full_size_;
    if (net.config().width != desired) {
        net.resize_input(desired, desired);  // allocation-free: pre-reserved
    }
}

void DetectionService::worker_loop(std::size_t worker_id) {
    WorkerSlot& slot = *slots_[worker_id];
    const auto max_batch = static_cast<std::size_t>(config_.max_batch);
    const std::chrono::microseconds linger(config_.batch_timeout_us);
    std::vector<Job> jobs;
    try {
        while (true) {
            jobs.clear();
            if (queue_.pop_batch(jobs, max_batch, linger) == 0) {
                slot.state.store(WorkerSlot::kFinished, std::memory_order_release);
                return;  // queue closed and drained
            }
            expire_overdue(jobs);
            if (jobs.empty()) continue;
            // Re-fetch the live generation per batch: this is the hot-swap
            // commit point. The shared_ptr pins the set for the whole batch,
            // so a concurrent swap never pulls the replica out from under an
            // in-flight forward, and the old generation is freed once the
            // last worker moves on.
            const std::shared_ptr<const ModelSet> set = current_set();
            Network& net = *set->replicas[worker_id];
            bool degraded_now = false;
            apply_degrade_mode(net, degraded_now);
            process_batch(net, jobs, degraded_now);
        }
    } catch (const std::exception& e) {
        on_worker_death(slot, jobs, e.what());
    } catch (...) {
        on_worker_death(slot, jobs, "unknown exception");
    }
}

// Unrecoverable fault (e.g. an injected worker-kill): fail whatever the
// worker still holds so no future is abandoned, then mark the slot dead for
// the watchdog to respawn.
void DetectionService::on_worker_death(WorkerSlot& slot, std::vector<Job>& jobs,
                                       const char* what) {
    for (Job& job : jobs) {
        if (job.resolved) continue;
        ServeResult r;
        r.status = ServeStatus::kFailed;
        r.frame.frame_index = job.frame_index;
        r.error = std::string("worker died: ") + what;
        stats_.record_failed();
        resolve(job, std::move(r));
    }
    note_frame_failure();
    slot.state.store(WorkerSlot::kDead, std::memory_order_release);
}

void DetectionService::watchdog_loop() {
    sync::MutexLock lock(watchdog_mu_);
    while (!stopping_) {
        watchdog_cv_.wait_for(
            watchdog_mu_,
            std::chrono::milliseconds(config_.watchdog_interval_ms));
        if (stopping_) return;
        lock.unlock();
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            WorkerSlot& slot = *slots_[i];
            if (slot.state.load(std::memory_order_acquire) != WorkerSlot::kDead) {
                continue;
            }
            {
                sync::MutexLock tl(threads_mu_);
                if (slot.thread.joinable()) slot.thread.join();
                slot.state.store(WorkerSlot::kRunning, std::memory_order_release);
                slot.thread =
                    std::thread(&DetectionService::worker_loop, this, i);
            }
            stats_.record_worker_restart();
        }
        lock.lock();
    }
}

Detections DetectionService::detect_with_retry(Network& net, const Image& frame,
                                               const Job& job,
                                               DetectStageTimings* timings) {
    std::int64_t backoff = std::max<std::int64_t>(config_.retry_backoff_ms, 0);
    for (int attempt = 0;; ++attempt) {
        if (job.deadline != kNoDeadline &&
            std::chrono::steady_clock::now() > job.deadline) {
            throw DeadlineExpired{};
        }
        try {
            return detect_image_timed(net, frame, config_.pipeline.eval, timings);
        } catch (const fault::WorkerKillFault&) {
            throw;  // unrecoverable: escalate to the worker loop / watchdog
        } catch (const std::logic_error&) {
            throw;  // bad input (invalid_argument & co): retrying cannot help
        } catch (const std::exception&) {
            if (attempt >= config_.max_retries) throw;
            stats_.record_retry();
            if (backoff > 0) {
                std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
            }
            backoff = std::min<std::int64_t>(backoff > 0 ? backoff * 2 : 1, 1000);
        }
    }
}

// Forwards the popped jobs as one batch and resolves each future
// individually. Per-frame stage timings are the batch aggregate amortized
// over the batch (queue wait stays per-frame); detections are bit-identical
// to processing each frame alone. On a batch error every frame is retried
// solo (with the configured transient-retry budget), so one bad or unlucky
// frame never fails its batch-mates.
void DetectionService::process_batch(Network& net, std::vector<Job>& jobs,
                                     bool degraded) {
    const std::size_t n = jobs.size();
    stats_.record_batch(n);
    const auto popped = std::chrono::steady_clock::now();
    std::vector<Image> frames;
    frames.reserve(n);
    for (Job& j : jobs) frames.push_back(std::move(j.frame));

    DetectStageTimings stages;
    std::vector<Detections> dets;
    bool batch_ok = true;
    try {
        dets = detect_images_timed(net, frames, config_.pipeline.eval, &stages);
    } catch (const fault::WorkerKillFault&) {
        throw;  // worker_loop fails the held jobs and marks the slot dead
    } catch (...) {
        batch_ok = false;
    }

    if (!batch_ok) {
        // Retry each frame alone so only genuinely-failing frames carry an
        // error; transient faults get the per-frame retry budget.
        for (std::size_t i = 0; i < n; ++i) {
            Job& job = jobs[i];
            ServeResult r;
            r.status = ServeStatus::kOk;
            r.frame.frame_index = job.frame_index;
            r.timings.queue_wait_ms = std::chrono::duration<double, std::milli>(
                                          popped - job.submit_time)
                                          .count();
            DetectStageTimings solo;
            try {
                r.frame.detections =
                    detect_with_retry(net, frames[i], job, &solo);
                if (config_.pipeline.altitude_filter_enabled) {
                    const auto t0 = std::chrono::steady_clock::now();
                    r.frame.detections = altitude_filter_.apply(
                        r.frame.detections, config_.pipeline.altitude_m);
                    solo.postprocess_ms += ms_since(t0);
                }
                r.timings.preprocess_ms = solo.preprocess_ms;
                r.timings.forward_ms = solo.forward_ms;
                r.timings.postprocess_ms = solo.postprocess_ms;
                r.frame.latency_ms = r.timings.total_ms();
                stats_.record_completed(r.timings);
                if (degraded) stats_.record_degraded(1);
                note_frame_success();
                resolve(job, std::move(r));
            } catch (const DeadlineExpired&) {
                r.status = ServeStatus::kTimeout;
                r.frame.detections.clear();
                r.error = "deadline expired during retry";
                stats_.record_deadline_expired();
                resolve(job, std::move(r));
            } catch (const fault::WorkerKillFault&) {
                throw;  // remaining jobs handled by worker_loop
            } catch (const std::logic_error&) {
                // Bad input: surface the exception itself (API contract with
                // detect_image) rather than a kFailed status.
                job.promise.set_exception(std::current_exception());
                job.resolved = true;
                finish_one();
            } catch (const std::exception& e) {
                r.status = ServeStatus::kFailed;
                r.frame.detections.clear();
                r.error = e.what();
                stats_.record_failed();
                note_frame_failure();
                resolve(job, std::move(r));
            }
        }
        return;
    }

    const double share = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
        ServeResult r;
        r.status = ServeStatus::kOk;
        r.frame.frame_index = jobs[i].frame_index;
        r.timings.queue_wait_ms = std::chrono::duration<double, std::milli>(
                                      popped - jobs[i].submit_time)
                                      .count();
        r.timings.preprocess_ms = stages.preprocess_ms * share;
        r.timings.forward_ms = stages.forward_ms * share;
        r.timings.postprocess_ms = stages.postprocess_ms * share;
        r.frame.detections = std::move(dets[i]);
        if (config_.pipeline.altitude_filter_enabled) {
            const auto t0 = std::chrono::steady_clock::now();
            r.frame.detections =
                altitude_filter_.apply(r.frame.detections, config_.pipeline.altitude_m);
            r.timings.postprocess_ms += ms_since(t0);
        }
        r.frame.latency_ms = r.timings.total_ms();
        stats_.record_completed(r.timings);
        resolve(jobs[i], std::move(r));
    }
    if (degraded) stats_.record_degraded(n);
    note_frame_success();
}

bool DetectionService::breaker_allows() {
    if (config_.breaker_threshold <= 0) return true;
    sync::MutexLock lock(breaker_mu_);
    if (!breaker_open_) return true;
    const double open_ms = ms_since(breaker_opened_at_);
    if (open_ms >= static_cast<double>(config_.breaker_open_ms)) {
        // Half-open: close, let this frame through as the trial request.
        breaker_open_ = false;
        breaker_failures_ = 0;
        stats_.record_breaker_open_ms(open_ms);
        return true;
    }
    return false;
}

void DetectionService::note_frame_failure() {
    bool opened = false;
    if (config_.breaker_threshold > 0) {
        sync::MutexLock lock(breaker_mu_);
        ++breaker_failures_;
        if (!breaker_open_ && breaker_failures_ >= config_.breaker_threshold) {
            breaker_open_ = true;
            breaker_opened_at_ = std::chrono::steady_clock::now();
            stats_.record_breaker_opened();
            opened = true;
        }
    }
    // Outside breaker_mu_: the rollback path takes model_mu_, and holding
    // both here would order them against reload (model lock order).
    maybe_probation_failure(opened);
}

void DetectionService::note_frame_success() {
    if (config_.breaker_threshold <= 0) return;
    sync::MutexLock lock(breaker_mu_);
    breaker_failures_ = 0;
}

namespace {

std::int64_t steady_now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

void DetectionService::maybe_probation_failure(bool breaker_opened) {
    if (config_.reload_probation_ms <= 0) return;
    std::int64_t deadline = probation_deadline_ns_.load(std::memory_order_acquire);
    if (deadline == 0) return;
    if (steady_now_ns() > deadline) {
        // Window expired: the new model survived probation; stop counting.
        probation_deadline_ns_.compare_exchange_strong(deadline, 0,
                                                       std::memory_order_acq_rel);
        return;
    }
    const int fails = probation_failures_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (breaker_opened || fails >= config_.reload_rollback_failures) {
        // Close the window first so concurrent failures don't pile up more
        // rollbacks; roll_back_internal is a no-op if prev is already gone.
        probation_deadline_ns_.store(0, std::memory_order_release);
        (void)roll_back_internal(breaker_opened
                                     ? "probation: circuit breaker opened"
                                     : "probation: frame-failure budget exhausted");
    }
}

ReloadOutcome DetectionService::roll_back_internal(const std::string& why) {
    ReloadOutcome out;
    sync::MutexLock lock(model_mu_);
    if (!prev_set_) {
        out.model_version = live_set_ ? live_set_->version : 0;
        out.error = "rollback: no previous model set (" + why + ")";
        return out;
    }
    live_set_ = std::move(prev_set_);
    prev_set_.reset();
    out.ok = true;
    out.model_version = live_set_->version;
    stats_.record_rollback();
    return out;
}

ReloadOutcome DetectionService::rollback() {
    sync::MutexLock lock(reload_mu_);
    probation_deadline_ns_.store(0, std::memory_order_release);
    return roll_back_internal("explicit rollback");
}

// Deterministic synthetic canary batch, the same family of frames the int8
// self-calibration uses: a constant, a low-frequency ramp, and seeded noise —
// all in the [0,1] range real preprocessed imagery occupies.
void DetectionService::run_canary(Network& candidate, Network& reference) {
    DRONET_FAULT_POINT(fault::kSiteReloadCanary);
    const Shape in = reference.input_shape();
    std::vector<Tensor> samples;
    samples.emplace_back(in);
    samples.back().fill(0.5f);
    Tensor ramp(in);
    for (int n = 0; n < in.n; ++n) {
        for (int c = 0; c < in.c; ++c) {
            for (int h = 0; h < in.h; ++h) {
                for (int w = 0; w < in.w; ++w) {
                    const float y = in.h > 1
                                        ? static_cast<float>(h) / static_cast<float>(in.h - 1)
                                        : 0.0f;
                    const float x = in.w > 1
                                        ? static_cast<float>(w) / static_cast<float>(in.w - 1)
                                        : 0.0f;
                    ramp[ramp.index(n, c, h, w)] = 0.5f * (x + y);
                }
            }
        }
    }
    samples.push_back(std::move(ramp));
    Tensor noise(in);
    Rng rng(0x178cu);
    rng.fill_uniform(noise.span(), 0.0f, 1.0f);
    samples.push_back(std::move(noise));

    double max_div = 0;
    for (const Tensor& x : samples) {
        const Tensor& cand = candidate.forward(x);
        for (const float v : cand.span()) {
            if (!std::isfinite(v)) {
                throw std::runtime_error(
                    "reload canary: candidate produced non-finite outputs");
            }
        }
        const Tensor& live = reference.forward(x);
        const auto cs = cand.span();
        const auto ls = live.span();
        if (cs.size() != ls.size()) {
            throw std::runtime_error("reload canary: output shape mismatch");
        }
        for (std::size_t i = 0; i < cs.size(); ++i) {
            max_div = std::max(max_div,
                               static_cast<double>(std::fabs(cs[i] - ls[i])));
        }
    }
    if (max_div > config_.canary_max_divergence) {
        throw std::runtime_error(
            "reload canary: divergence " + std::to_string(max_div) +
            " exceeds limit " + std::to_string(config_.canary_max_divergence));
    }
}

ReloadOutcome DetectionService::reload_checkpoint(
    const std::filesystem::path& weights) {
    ReloadOutcome out;
    sync::MutexLock lock(reload_mu_);
    if (stopped_.load(std::memory_order_acquire)) {
        out.model_version = model_version();
        out.error = "reload: service stopped";
        stats_.record_reload_failure();
        return out;
    }
    // The live reference network is only touched under reload_mu_, so using
    // it as both the architecture source and the canary baseline is safe
    // while workers keep serving from their replicas.
    const std::shared_ptr<const ModelSet> live = current_set();
    Network& reference = *live->reference;
    try {
        // The reference is fp32, so the candidate loads floats and the
        // replicas built from it encode the configured precision afresh.
        Network candidate = clone_network(reference);
        // load_weights pre-checks the exact byte size (truncated or padded
        // files are rejected before any state changes) and restores every
        // parameter block.
        DRONET_FAULT_POINT(fault::kSiteReloadRead);
        load_weights(candidate, weights);
        run_canary(candidate, reference);
        auto set = build_model_set(std::move(candidate));
        {
            sync::MutexLock ml(model_mu_);
            set->version = next_version_++;
            out.model_version = set->version;
            prev_set_ = std::move(live_set_);
            live_set_ = std::move(set);
        }
        out.ok = true;
        stats_.record_reload();
        if (config_.reload_probation_ms > 0) {
            probation_failures_.store(0, std::memory_order_release);
            probation_deadline_ns_.store(
                steady_now_ns() + config_.reload_probation_ms * 1'000'000,
                std::memory_order_release);
        }
    } catch (const std::exception& e) {
        out.ok = false;
        out.model_version = model_version();
        out.error = e.what();
        stats_.record_reload_failure();
    }
    return out;
}

ServeStatsSnapshot DetectionService::stats() const {
    ServeStatsSnapshot s = stats_.snapshot();
    if (config_.breaker_threshold > 0) {
        sync::MutexLock lock(breaker_mu_);
        if (breaker_open_) {
            s.breaker_open_ms += ms_since(breaker_opened_at_);
        }
    }
    s.model_version = model_version();
    s.queue_depth = queue_.size();
    {
        sync::MutexLock lock(inflight_mu_);
        s.in_flight = accepted_ - resolved_;
    }
    s.uptime_ms = static_cast<std::uint64_t>(ms_since(started_at_));
    return s;
}

void DetectionService::finish_one() {
    {
        sync::MutexLock lock(inflight_mu_);
        ++resolved_;
    }
    inflight_cv_.notify_all();
}

void DetectionService::drain() {
    sync::MutexLock lock(inflight_mu_);
    while (resolved_ < accepted_) inflight_cv_.wait(inflight_mu_);
}

void DetectionService::stop() {
    stopped_.store(true, std::memory_order_release);
    queue_.close();
    // Serialize joins so stop() is safe to call from several threads (and
    // again from the destructor).
    sync::MutexLock lock(stop_mu_);
    {
        sync::MutexLock wl(watchdog_mu_);
        stopping_ = true;
    }
    watchdog_cv_.notify_all();
    if (watchdog_.joinable()) watchdog_.join();
    {
        sync::MutexLock tl(threads_mu_);
        for (auto& slot : slots_) {
            if (slot->thread.joinable()) slot->thread.join();
        }
    }
    // Workers normally drain the queue before exiting, but if they died (and
    // the watchdog was off or already stopped) frames may still be queued:
    // resolve every one with a shutdown error so no future blocks forever.
    Job job;
    while (queue_.try_pop(job)) {
        ServeResult r;
        r.status = ServeStatus::kShutdown;
        r.frame.frame_index = job.frame_index;
        r.error = "service stopped before the frame was processed";
        stats_.record_rejected();
        resolve(job, std::move(r));
    }
}

std::vector<std::string> DetectionService::profile_reports() const {
    std::vector<std::string> reports;
    const std::shared_ptr<const ModelSet> set = current_set();
    for (const auto& replica : set->replicas) {
        const profile::ForwardProfiler* prof = replica->profiler();
        if (prof != nullptr && prof->forwards() > 0) {
            reports.push_back(prof->report_json());
        }
    }
    return reports;
}

}  // namespace dronet::serve
