// Multi-worker detection service: the serving counterpart of the serial
// DetectionPipeline.
//
// The paper's deployment loop feeds one camera into one CPU pipeline; the
// production target is many streams on a multi-core host. DetectionService
// owns N worker threads, each with its own Network replica (same weights,
// cloned via clone_network so per-layer activations and im2col workspaces
// never race), fed from one bounded MPMC queue. Whole frames are the unit of
// scheduling, so detections are bit-identical to the serial pipeline — the
// same detect_image code path runs, just on a replica.
//
// The service is self-healing (docs/robustness.md): per-frame deadlines
// resolve late frames with kTimeout instead of occupying a worker, transient
// forward faults are retried with exponential backoff, a worker hit by an
// unrecoverable fault fails the frames it holds and restarts its loop on the
// same replica, and a circuit breaker sheds load after consecutive failures.
// Every submitted future always resolves — success, drop, rejection,
// timeout, or failure.
//
//   DetectionService service(net, {.workers = 4});
//   auto f = service.submit(frame);          // non-blocking (policy-dependent)
//   ServeResult r = f.get();                 // detections + status + timings
//   service.drain();                         // barrier for batch jobs
//   std::puts(service.stats().to_json().c_str());
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "nn/network.hpp"
#include "serve/bounded_queue.hpp"
#include "serve/breaker.hpp"
#include "serve/serve_stats.hpp"
#include "sync/mutex.hpp"
#include "video/pipeline.hpp"

namespace dronet::serve {

enum class ServeStatus {
    kOk,        ///< frame was processed; detections valid
    kDropped,   ///< evicted from the queue by kDropOldest backpressure
    kRejected,  ///< refused at submit (kReject policy full, breaker open, or stopped)
    kTimeout,   ///< deadline expired before a worker could process the frame
    kFailed,    ///< forward pass failed after all configured retries
    kShutdown,  ///< router only: fleet stopped, or worker lost with no retry left
};

[[nodiscard]] constexpr const char* to_string(ServeStatus s) noexcept {
    switch (s) {
        case ServeStatus::kOk: return "ok";
        case ServeStatus::kDropped: return "dropped";
        case ServeStatus::kRejected: return "rejected";
        case ServeStatus::kTimeout: return "timeout";
        case ServeStatus::kFailed: return "failed";
        case ServeStatus::kShutdown: return "shutdown";
    }
    return "?";
}

/// Outcome of one submitted frame. `frame.detections` is empty unless
/// status == kOk; `error` is non-empty for kFailed (and names the breaker for
/// breaker-shed kRejected frames).
struct ServeResult {
    ServeStatus status = ServeStatus::kOk;
    FrameResult frame;     ///< index, detections, end-to-end latency
    FrameTimings timings;  ///< per-stage breakdown (zeros unless kOk)
    std::string error;     ///< diagnostic for kFailed / shed frames
};

struct ServiceConfig {
    int workers = 2;
    std::size_t queue_capacity = 16;
    BackpressurePolicy policy = BackpressurePolicy::kBlock;
    /// Upper bound on frames one worker forwards as a single batch. 1 keeps
    /// the classic frame-at-a-time path; N > 1 enables dynamic micro-batching
    /// (workers take whatever is queued, up to N, per forward pass). Results
    /// stay bit-identical to frame-at-a-time — detect_images is bit-exact per
    /// image against detect_image.
    int max_batch = 1;
    /// After popping the first frame of a batch, how long a worker lingers
    /// waiting for more frames to fill it (0 = take only what is already
    /// queued). Trades per-frame latency for larger batches under light load.
    std::int64_t batch_timeout_us = 0;

    // --- self-healing knobs (all recovery paths off by default) ---

    /// Per-frame deadline measured from submit. A frame still queued (or
    /// retried) past its deadline resolves with kTimeout instead of occupying
    /// a worker. 0 disables deadlines.
    std::int64_t deadline_ms = 0;
    /// Retries per frame when the forward pass throws a transient error
    /// (std::runtime_error family), after a backoff of 1 ms that doubles per
    /// attempt (capped at 1 s). Input errors (std::invalid_argument) are
    /// never retried. 0 disables retries.
    int max_retries = 0;
    /// Consecutive frame failures that open the circuit breaker; while open,
    /// submits are shed immediately as kRejected. 0 disables the breaker.
    int breaker_threshold = 0;
    /// How long the breaker stays open before the next submit half-opens it.
    std::int64_t breaker_open_ms = 100;
    /// Arithmetic every replica serves in (Network::set_precision). The
    /// prototype itself must stay kF32: it is the reload source and the
    /// canary baseline, and int8 folds batch norm for good. Under kInt8 one
    /// self_calibrate on replica 0 is shared by all replicas (clones have
    /// identical weights, so activation ranges — and therefore detections —
    /// are identical across replicas and batch sizes).
    Precision precision = Precision::kF32;
    // --- model lifecycle knobs (docs/robustness.md, "Model lifecycle") ---

    /// Canary gate: maximum |candidate - live| output divergence tolerated on
    /// the fixed synthetic canary batch before a reload candidate is rejected.
    /// The finite-output check always runs regardless of this threshold. The
    /// default is deliberately permissive (any healthy checkpoint of the same
    /// architecture passes); tests tighten it to force rejections.
    double canary_max_divergence = 1e6;
    /// Probation window after a committed swap: while it is open, frame
    /// failures and breaker opens count against the new model, and reaching
    /// `reload_rollback_failures` (or any breaker open) auto-rolls back to
    /// the previous model set. 0 disables probation.
    std::int64_t reload_probation_ms = 0;
    /// Frame failures within the probation window that trigger auto-rollback.
    int reload_rollback_failures = 3;

    /// Post-processing thresholds and the optional altitude prior, shared
    /// with the serial DetectionPipeline for identical results.
    PipelineConfig pipeline;
};

/// Outcome of a reload / rollback attempt. `model_version` is the version
/// serving after the call returned (the new version on success, the
/// still-live one on rejection).
struct ReloadOutcome {
    bool ok = false;
    std::uint64_t model_version = 0;
    std::string error;  ///< empty on success
};

class DetectionService {
  public:
    /// Builds `config.workers` independent replicas of `prototype` (which is
    /// only read during construction and may be used freely afterwards) and
    /// starts the worker threads. Throws std::invalid_argument for a
    /// prototype without a region layer or not at Precision::kF32, a
    /// non-positive worker count, or an inconsistent self-healing
    /// configuration.
    DetectionService(const Network& prototype, ServiceConfig config);

    /// Stops accepting work, waits for queued frames, joins the workers.
    ~DetectionService();

    DetectionService(const DetectionService&) = delete;
    DetectionService& operator=(const DetectionService&) = delete;

    /// Enqueues one frame. Thread-safe (any number of producer streams).
    /// Frame indices are assigned in submission order. Under kBlock this
    /// call waits for queue space; under kReject/kDropOldest it returns
    /// immediately (the returned future resolves with the corresponding
    /// status for shed frames).
    [[nodiscard]] std::future<ServeResult> submit(Image frame);

    /// Blocks until the accounting identity holds: every submitted frame has
    /// resolved (completed, shed, timed out, or failed), so its future is
    /// ready and it is counted in stats(). Producers should be quiescent
    /// while draining.
    void drain();

    /// Closes the queue and joins the workers, which serve every frame still
    /// queued before they exit — so every future is ready when stop()
    /// returns. Subsequent submits resolve as kRejected. Idempotent.
    void stop();

    /// One consistent view of the service's books, read in one critical
    /// section: model_version always matches the reloads and rollbacks that
    /// produced it. breaker_open_ms includes the still-running open interval
    /// when the breaker is currently open; the live gauges (queue_depth,
    /// in_flight, uptime_ms) are sampled here.
    [[nodiscard]] ServeStatsSnapshot stats() const;
    [[nodiscard]] int workers() const noexcept { return config_.workers; }
    [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }

    /// Hot-swaps the serving model to the checkpoint at `weights`, without
    /// dropping a single in-flight future. Runs entirely on the calling
    /// thread (never a worker thread): a candidate network is cloned from
    /// the live model's fp32 reference, the checkpoint is loaded (exact
    /// byte-size pre-check), and a canary gate — deterministic synthetic
    /// fp32 forwards checked for finite outputs and bounded divergence vs the
    /// live reference (`canary_max_divergence`) — must pass before fresh
    /// replicas are built at `precision` and swapped in. Workers pick up the
    /// new set at their next batch, so every in-flight frame finishes on the
    /// model it started on. Any failure (unreadable/truncated file, NaN
    /// outputs, divergence) rejects the candidate and leaves serving
    /// byte-identical to before the call.
    /// Reloads are serialized; concurrent callers queue. Thread-safe.
    [[nodiscard]] ReloadOutcome reload_checkpoint(const std::filesystem::path& weights);

    /// Restores the model set that was live before the last committed swap
    /// (kept until the next successful reload). Fails if there has been no
    /// swap, or the previous set was already consumed by a rollback.
    [[nodiscard]] ReloadOutcome rollback();

    /// Version of the live model set: 1 at construction, +1 per committed
    /// swap; a rollback restores the previous version number.
    [[nodiscard]] std::uint64_t model_version() const;

    /// Per-worker profiler JSON (profile/profiler.hpp), one entry per replica
    /// that recorded at least one forward; empty unless DRONET_PROFILE /
    /// profile::set_profiling was enabled. Call only while the service is
    /// quiescent (after drain() or stop()) — worker threads write these
    /// profilers while frames are in flight.
    [[nodiscard]] std::vector<std::string> profile_reports() const;

  private:
    struct Job {
        Image frame;
        std::promise<ServeResult> promise;
        int frame_index = 0;
        std::chrono::steady_clock::time_point submit_time;
        std::chrono::steady_clock::time_point deadline;  ///< max() = none
        bool resolved = false;  ///< promise already fulfilled (worker-local)
    };

    /// One versioned generation of the serving model: per-worker replicas at
    /// `precision` and an fp32 `reference` network workers never touch — the
    /// canary baseline and the architecture source for the next candidate.
    /// Shared pointers let an in-flight batch finish on the generation it
    /// started with after a swap; the old generation is freed when its last
    /// worker releases it.
    struct ModelSet {
        std::uint64_t version = 0;
        std::vector<std::unique_ptr<Network>> replicas;
        std::unique_ptr<Network> reference;  ///< forwarded only under reload_mu_
    };

    void worker_loop(std::size_t worker_id);
    void process_batch(Network& net, std::vector<Job>& jobs);
    Detections detect_with_retry(Network& net, const Image& frame, const Job& job,
                                 DetectStageTimings* timings);
    /// The one exit of a frame (see the definition); every outcome counter
    /// and every promise of a Job is touched only here.
    void finish(Job& job, ServeResult r, std::exception_ptr bad_input = nullptr)
        EXCLUDES(mu_);
    void expire_overdue(std::vector<Job>& jobs);
    /// Feeds one frame failure to the breaker and to an open probation
    /// window, which rolls back once its budget is spent or the breaker
    /// opens.
    void note_frame_failure() EXCLUDES(mu_);
    void note_frame_success() EXCLUDES(mu_);

    /// Builds one complete model generation (replicas at `precision`,
    /// mirroring construction) from the fp32 `candidate`, which is consumed
    /// and becomes the set's reference network.
    [[nodiscard]] std::shared_ptr<ModelSet> build_model_set(Network candidate);
    [[nodiscard]] std::shared_ptr<const ModelSet> current_set() const EXCLUDES(mu_);
    /// Canary gate: deterministic synthetic forwards of `candidate` vs the
    /// live reference. Throws std::runtime_error on non-finite outputs or
    /// divergence beyond config_.canary_max_divergence.
    void run_canary(Network& candidate, Network& reference);
    /// Makes the previous model set live again and counts the rollback.
    /// Returns the outgoing set, for the caller to free after releasing mu_;
    /// null when there is no previous set.
    [[nodiscard]] std::shared_ptr<ModelSet> restore_previous() REQUIRES(mu_);

    ServiceConfig config_;
    AltitudeFilter altitude_filter_;
    BoundedQueue<Job> queue_;
    std::chrono::steady_clock::time_point started_at_;  ///< uptime_ms gauge

    // The books, shared by callers and workers under one mutex. mu_ is never
    // held across a queue_ call (a kBlock push waits outside it), a forward,
    // the canary or a sleep, and nothing else is locked while it is held.
    mutable sync::Mutex mu_{"DetectionService::mu"};
    /// Signalled when a finish() makes the accounting identity hold.
    sync::CondVar drained_cv_;
    ServeStats stats_ GUARDED_BY(mu_);
    Breaker breaker_ GUARDED_BY(mu_);
    bool stopped_ GUARDED_BY(mu_) = false;
    /// Workers pin the live set per batch; a swap or rollback replaces it.
    std::shared_ptr<ModelSet> live_set_ GUARDED_BY(mu_);
    /// Previous generation, retained until the next committed swap so
    /// probation (and the fleet rollout abort) can always roll back.
    std::shared_ptr<ModelSet> prev_set_ GUARDED_BY(mu_);
    std::uint64_t next_version_ GUARDED_BY(mu_) = 2;
    /// Probation window after a swap: frame failures before this point count
    /// against the new set. min() when no window is open.
    std::chrono::steady_clock::time_point probation_end_ GUARDED_BY(mu_) =
        std::chrono::steady_clock::time_point::min();
    int probation_failures_ GUARDED_BY(mu_) = 0;

    /// Serializes whole reload / rollback operations, which run on caller
    /// threads and do the expensive work (load, canary, replica builds)
    /// outside mu_.
    sync::Mutex reload_mu_{"DetectionService::reload_mu"};

    // Declared last, after everything the workers use.
    sync::Mutex stop_mu_{"DetectionService::stop_mu"};  ///< serializes stop()
    /// Started by the constructor; joined only by stop().
    std::vector<std::thread> workers_ GUARDED_BY(stop_mu_);
};

}  // namespace dronet::serve
