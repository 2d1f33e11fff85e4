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

namespace dronet::serve {

namespace {

double ms_since(std::chrono::steady_clock::time_point t) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t)
        .count();
}

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();
constexpr auto kNoWindow = std::chrono::steady_clock::time_point::min();

/// Transient-fault retry backoff: the first retry waits kFirstRetryBackoff,
/// each later one twice the last, up to kMaxRetryBackoff.
constexpr std::chrono::milliseconds kFirstRetryBackoff{1};
constexpr std::chrono::milliseconds kMaxRetryBackoff{1000};

/// Thrown by detect_with_retry when a frame's deadline expires mid-retry;
/// both ends live in this TU.
struct DeadlineExpired {};

/// The result of a frame that resolves without detections.
ServeResult empty_result(ServeStatus status, std::string error = {}) {
    ServeResult r;
    r.status = status;
    r.error = std::move(error);
    return r;
}

}  // namespace

DetectionService::DetectionService(const Network& prototype, ServiceConfig config)
    : config_(config),
      altitude_filter_(config.pipeline.camera, config.pipeline.size_prior),
      queue_(config.queue_capacity, config.policy),
      started_at_(std::chrono::steady_clock::now()),
      breaker_(config.breaker_threshold,
               std::chrono::milliseconds(config.breaker_open_ms)) {
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
        config_.breaker_threshold < 0) {
        throw std::invalid_argument("DetectionService: negative self-healing knob");
    }
    if (config_.breaker_threshold > 0 && config_.breaker_open_ms <= 0) {
        throw std::invalid_argument("DetectionService: breaker_open_ms must be positive");
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
    {
        auto set = build_model_set(clone_network(prototype));
        set->version = 1;
        sync::MutexLock lock(mu_);
        live_set_ = std::move(set);
    }
    workers_.reserve(static_cast<std::size_t>(config_.workers));
    for (int i = 0; i < config_.workers; ++i) {
        workers_.emplace_back(&DetectionService::worker_loop, this,
                              static_cast<std::size_t>(i));
    }
}

DetectionService::~DetectionService() { stop(); }

// Mirrors construction for every generation: per-worker clones pre-reserved
// at the largest batch, input tensor included (tensor storage is grow-only,
// so later per-batch set_batch() calls in detect_images are allocation-free),
// and each replica set to the configured precision — under int8 with one
// calibration computed on replica 0 and shared (clones carry identical
// weights, so every replica quantizes identically).
std::shared_ptr<DetectionService::ModelSet>
DetectionService::build_model_set(Network candidate) {
    auto set = std::make_shared<ModelSet>();
    set->replicas.reserve(static_cast<std::size_t>(config_.workers));
    Int8Calibration calibration;
    for (int i = 0; i < config_.workers; ++i) {
        auto replica = std::make_unique<Network>(clone_network(candidate));
        replica->set_batch(config_.max_batch);
        (void)replica->input_buffer();  // the detect path's input, at max_batch too
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
    sync::MutexLock lock(mu_);
    return live_set_;
}

std::uint64_t DetectionService::model_version() const {
    sync::MutexLock lock(mu_);
    return live_set_->version;
}

std::future<ServeResult> DetectionService::submit(Image frame) {
    Job job;
    job.frame = std::move(frame);
    job.submit_time = std::chrono::steady_clock::now();
    job.deadline = config_.deadline_ms > 0
                       ? job.submit_time + std::chrono::milliseconds(config_.deadline_ms)
                       : kNoDeadline;
    std::future<ServeResult> future = job.promise.get_future();
    const char* shed = nullptr;
    {
        // Counted here, so every submission leaves through finish(), sheds
        // included; indices follow submission order.
        sync::MutexLock lock(mu_);
        job.frame_index = static_cast<int>(stats_.counters.submitted);
        stats_.record_submitted();
        if (stopped_) {
            shed = "service stopped";
        } else if (breaker_.state() == Breaker::State::kOpen) {
            if (breaker_.poll(job.submit_time) == Breaker::State::kOpen) {
                shed = "circuit breaker open";
            } else {  // half-open: frames are admitted as the trial
                const std::chrono::duration<double, std::milli> open_for =
                    job.submit_time - breaker_.opened_at();
                stats_.counters.breaker_open_ms += open_for.count();
            }
        }
    }
    if (shed != nullptr) {
        finish(job, empty_result(ServeStatus::kRejected, shed));
        return future;
    }
    std::optional<Job> evicted;
    PushOutcome outcome;
    try {
        outcome = queue_.push(std::move(job), &evicted);
    } catch (const std::exception& e) {
        // Only reachable via an injected queue.push fault, which fires
        // before push() takes `job`.
        finish(job, empty_result(ServeStatus::kRejected, e.what()));
        return future;
    }
    switch (outcome) {
        case PushOutcome::kEnqueued:
            break;
        case PushOutcome::kEvictedOldest:
            finish(*evicted, empty_result(ServeStatus::kDropped));  // not the new frame
            break;
        case PushOutcome::kRejected:
        case PushOutcome::kClosed:
            // push() does not consume its argument on these outcomes.
            finish(job, empty_result(ServeStatus::kRejected));
            break;
    }
    return future;
}

// The one exit of every frame: counts its outcome and fulfils its promise in
// one critical section, so a caller woken by its future already sees the
// frame in stats(), and drain() — which waits for the accounting identity —
// returns only once every future is ready. A non-null `bad_input` resolves
// the future with that exception instead, counted as failed.
void DetectionService::finish(Job& job, ServeResult r, std::exception_ptr bad_input) {
    r.frame.frame_index = job.frame_index;
    sync::MutexLock lock(mu_);
    ServeStatsSnapshot& c = stats_.counters;
    switch (bad_input ? ServeStatus::kFailed : r.status) {
        case ServeStatus::kOk: stats_.record_completed(r.timings); break;
        case ServeStatus::kDropped: ++c.dropped; break;
        case ServeStatus::kRejected:
        case ServeStatus::kShutdown: ++c.rejected; break;
        case ServeStatus::kTimeout: ++c.deadline_expired; break;
        case ServeStatus::kFailed: ++c.failed; break;
    }
    if (bad_input) {
        job.promise.set_exception(std::move(bad_input));
    } else {
        job.promise.set_value(std::move(r));
    }
    job.resolved = true;
    if (c.accounting_ok()) drained_cv_.notify_all();
}

void DetectionService::expire_overdue(std::vector<Job>& jobs) {
    if (config_.deadline_ms <= 0) return;
    const auto now = std::chrono::steady_clock::now();
    std::vector<Job> kept;
    kept.reserve(jobs.size());
    for (Job& job : jobs) {
        if (now > job.deadline) {
            finish(job, empty_result(ServeStatus::kTimeout,
                                     "deadline expired before processing"));
        } else {
            kept.push_back(std::move(job));
        }
    }
    jobs.swap(kept);
}

// Serves batches until the queue is closed and drained. A fault that escapes
// a batch (e.g. an injected worker kill) is one failure for the breaker and
// probation; the frames the worker still holds fail, so no future is
// abandoned, and the loop restarts on the same replica.
void DetectionService::worker_loop(std::size_t worker_id) {
    const auto max_batch = static_cast<std::size_t>(config_.max_batch);
    const std::chrono::microseconds linger(config_.batch_timeout_us);
    std::vector<Job> jobs;
    for (;;) {
        std::string what;
        try {
            while (true) {
                jobs.clear();
                if (queue_.pop_batch(jobs, max_batch, linger) == 0) return;
                expire_overdue(jobs);
                if (jobs.empty()) continue;
                // Re-fetch the live generation per batch: this is the hot-swap
                // commit point. The shared_ptr pins the set for the whole
                // batch, so a concurrent swap never pulls the replica out from
                // under an in-flight forward, and the old generation is freed
                // once the last worker moves on.
                const std::shared_ptr<const ModelSet> set = current_set();
                process_batch(*set->replicas[worker_id], jobs);
            }
        } catch (const std::exception& e) {
            what = e.what();
        } catch (...) {
            what = "unknown exception";
        }
        {
            // Counted before the held frames resolve, so drain() sees it.
            sync::MutexLock lock(mu_);
            ++stats_.counters.worker_restarts;
        }
        note_frame_failure();
        for (Job& job : jobs) {
            if (!job.resolved) {
                finish(job, empty_result(ServeStatus::kFailed, "worker died: " + what));
            }
        }
    }
}

Detections DetectionService::detect_with_retry(Network& net, const Image& frame,
                                               const Job& job,
                                               DetectStageTimings* timings) {
    std::chrono::milliseconds backoff = kFirstRetryBackoff;
    for (int attempt = 0;; ++attempt) {
        if (job.deadline != kNoDeadline &&
            std::chrono::steady_clock::now() > job.deadline) {
            throw DeadlineExpired{};
        }
        try {
            return detect_image_timed(net, frame, config_.pipeline.eval, timings);
        } catch (const fault::WorkerKillFault&) {
            throw;  // unrecoverable: escalate to the worker loop
        } catch (const std::logic_error&) {
            throw;  // bad input (invalid_argument & co): retrying cannot help
        } catch (const std::exception&) {
            if (attempt >= config_.max_retries) throw;
            {
                sync::MutexLock lock(mu_);
                ++stats_.counters.retries;
            }
            std::this_thread::sleep_for(backoff);
            backoff = std::min(backoff * 2, kMaxRetryBackoff);
        }
    }
}

// Forwards a batch of several frames in one pass, then resolves each frame
// on its own. Per-frame stage timings are the batch aggregate amortized over
// the batch (queue wait stays per-frame); detections are bit-identical to
// processing each frame alone. A frame the batch gave no detections (every
// frame of a failed batch, or the only frame of a batch of one) runs alone
// through detect_with_retry, so one bad or unlucky frame never fails its
// batch-mates and every frame gets the same retry budget.
void DetectionService::process_batch(Network& net, std::vector<Job>& jobs) {
    const std::size_t n = jobs.size();
    const auto popped = std::chrono::steady_clock::now();
    std::vector<Image> frames;
    frames.reserve(n);
    for (Job& j : jobs) frames.push_back(std::move(j.frame));

    DetectStageTimings stages;
    std::vector<Detections> dets;
    if (n > 1) {
        try {
            dets = detect_images_timed(net, frames, config_.pipeline.eval, &stages);
            sync::MutexLock lock(mu_);
            stats_.record_batch(n);
        } catch (const fault::WorkerKillFault&) {
            throw;  // worker_loop fails the held jobs and restarts
        } catch (...) {
            // Every frame runs alone below.
        }
    }
    const double share = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
        Job& job = jobs[i];
        ServeResult r;
        std::exception_ptr bad_input;
        try {
            DetectStageTimings t{stages.preprocess_ms * share, stages.forward_ms * share,
                                 stages.postprocess_ms * share};
            if (dets.empty()) {
                r.frame.detections = detect_with_retry(net, frames[i], job, &t);
                sync::MutexLock lock(mu_);
                stats_.record_batch(1);
            } else {
                r.frame.detections = std::move(dets[i]);
            }
            if (config_.pipeline.altitude_filter_enabled) {
                const auto t0 = std::chrono::steady_clock::now();
                r.frame.detections = altitude_filter_.apply(
                    r.frame.detections, config_.pipeline.altitude_m);
                t.postprocess_ms += ms_since(t0);
            }
            r.timings = {.queue_wait_ms = std::chrono::duration<double, std::milli>(
                                              popped - job.submit_time)
                                              .count(),
                         .preprocess_ms = t.preprocess_ms,
                         .forward_ms = t.forward_ms,
                         .postprocess_ms = t.postprocess_ms};
            r.frame.latency_ms = r.timings.total_ms();
            note_frame_success();
        } catch (const DeadlineExpired&) {
            r = empty_result(ServeStatus::kTimeout, "deadline expired during retry");
        } catch (const fault::WorkerKillFault&) {
            throw;  // worker_loop fails this and the remaining jobs
        } catch (const std::logic_error&) {
            // Bad input: surface the exception itself (API contract with
            // detect_image) rather than a kFailed status.
            bad_input = std::current_exception();
        } catch (const std::exception& e) {
            r = empty_result(ServeStatus::kFailed, e.what());
            note_frame_failure();
        }
        finish(job, std::move(r), std::move(bad_input));
    }
}

void DetectionService::note_frame_failure() {
    std::shared_ptr<ModelSet> retired;  // freed after mu_ is released
    sync::MutexLock lock(mu_);
    const auto now = std::chrono::steady_clock::now();
    const bool opened = config_.breaker_threshold > 0 && breaker_.fail(now);
    if (opened) ++stats_.counters.breaker_opens;
    // A closed window reads as expired; an expired one means the new model
    // survived probation.
    if (now > probation_end_) return;
    ++probation_failures_;
    if (opened || probation_failures_ >= config_.reload_rollback_failures) {
        probation_end_ = kNoWindow;
        retired = restore_previous();
    }
}

void DetectionService::note_frame_success() {
    if (config_.breaker_threshold <= 0) return;
    sync::MutexLock lock(mu_);
    breaker_.succeed();
}

std::shared_ptr<DetectionService::ModelSet> DetectionService::restore_previous() {
    if (!prev_set_) return nullptr;
    ++stats_.counters.rollbacks;
    return std::exchange(live_set_, std::move(prev_set_));
}

ReloadOutcome DetectionService::rollback() {
    sync::MutexLock reload_lock(reload_mu_);
    std::shared_ptr<ModelSet> retired;  // freed after mu_ is released
    sync::MutexLock lock(mu_);
    probation_end_ = kNoWindow;
    retired = restore_previous();
    ReloadOutcome out;
    out.ok = retired != nullptr;
    out.model_version = live_set_->version;
    if (!out.ok) out.error = "rollback: no previous model set";
    return out;
}

// Forwards the frames self-calibration uses (synthetic_frames), all in the
// [0,1] range real preprocessed imagery occupies.
void DetectionService::run_canary(Network& candidate, Network& reference) {
    DRONET_FAULT_POINT(fault::kSiteReloadCanary);
    const std::vector<Tensor> samples = synthetic_frames(reference.input_shape());
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
    sync::MutexLock reload_lock(reload_mu_);
    std::shared_ptr<const ModelSet> live;
    {
        sync::MutexLock lock(mu_);
        live = live_set_;
        if (stopped_) {
            ++stats_.counters.reload_failures;
            out.model_version = live->version;
            out.error = "reload: service stopped";
            return out;
        }
    }
    try {
        // The live reference network is only touched under reload_mu_, so
        // using it as both the architecture source and the canary baseline
        // is safe while workers keep serving from their replicas. It is fp32,
        // so the candidate loads floats and the replicas built from it encode
        // the configured precision afresh.
        Network& reference = *live->reference;
        Network candidate = clone_network(reference);
        // load_weights pre-checks the exact byte size (truncated or padded
        // files are rejected before any state changes) and restores every
        // parameter block.
        DRONET_FAULT_POINT(fault::kSiteReloadRead);
        load_weights(candidate, weights);
        run_canary(candidate, reference);
        auto set = build_model_set(std::move(candidate));
        std::shared_ptr<ModelSet> retired;  // freed after mu_ is released
        sync::MutexLock lock(mu_);
        set->version = next_version_++;
        out.ok = true;
        out.model_version = set->version;
        retired = std::exchange(prev_set_, std::exchange(live_set_, std::move(set)));
        ++stats_.counters.reloads;
        if (config_.reload_probation_ms > 0) {
            probation_end_ = std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(config_.reload_probation_ms);
            probation_failures_ = 0;
        }
    } catch (const std::exception& e) {
        sync::MutexLock lock(mu_);
        ++stats_.counters.reload_failures;
        out.model_version = live_set_->version;
        out.error = e.what();
    }
    return out;
}

ServeStatsSnapshot DetectionService::stats() const {
    const std::size_t depth = queue_.size();  // outside mu_, like every queue_ call
    ServeStatsSnapshot s;
    {
        sync::MutexLock lock(mu_);
        s = stats_.snapshot();
        if (breaker_.state() == Breaker::State::kOpen) {
            s.breaker_open_ms += ms_since(breaker_.opened_at());
        }
        s.model_version = live_set_->version;
    }
    s.queue_depth = depth;
    // From the one snapshot, so in_flight is 0 exactly when accounting_ok():
    // finish() counts a frame as it makes its future ready.
    s.in_flight = s.submitted - (s.completed + s.dropped + s.rejected + s.failed +
                                 s.deadline_expired);
    s.uptime_ms = static_cast<std::uint64_t>(ms_since(started_at_));
    return s;
}

void DetectionService::drain() {
    sync::MutexLock lock(mu_);
    while (!stats_.counters.accounting_ok()) drained_cv_.wait(mu_);
}

// Workers return only once the closed queue is drained, and a closed queue
// takes no more frames, so every frame has resolved after the joins.
void DetectionService::stop() {
    {
        sync::MutexLock lock(mu_);
        stopped_ = true;
    }
    queue_.close();
    // Serialize joins so stop() is safe to call from several threads (and
    // again from the destructor).
    sync::MutexLock lock(stop_mu_);
    for (std::thread& worker : workers_) {
        if (worker.joinable()) worker.join();
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
