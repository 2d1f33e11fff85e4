// Front-end router of the sharded serving tier (docs/serving.md).
//
// One Router process owns a fleet of worker processes, each wrapping a
// DetectionService behind the wire protocol in protocol.hpp. The router:
//
//  * spawns workers (fork/exec of tools/serve_worker over a socketpair) and
//    adopts pre-connected ones (already-running workers handed in as fds);
//  * dispatches detect requests least-loaded (router-side in-flight count,
//    worker queue-depth gauge as tiebreak, lowest slot on a full tie),
//    pipelining up to `worker_inflight_limit` frames per worker;
//  * enforces per-client admission control: an in-flight cap and a
//    token-bucket quota, shedding violators immediately as kRejected;
//  * health-checks workers with ping frames and feeds the results into one
//    serve::Breaker per worker, the breaker the in-process service runs:
//    `eject_threshold` consecutive failures eject a worker, after
//    `readmit_ms` it half-opens and an answered trial ping re-admits it, and
//    dead spawned workers are reaped and respawned;
//  * guarantees the PR-5 accounting invariant fleet-wide: every accepted
//    future resolves. Frames in flight on a worker that dies or is ejected
//    are re-dispatched to a healthy worker (up to `max_retries`) or resolved
//    kShutdown — never silently abandoned.
//
// All submit() futures resolve with the same ServeResult type the in-process
// DetectionService returns, so callers can swap one for a fleet untouched.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/protocol.hpp"
#include "image/image.hpp"
#include "io/fdio.hpp"
#include "serve/breaker.hpp"
#include "serve/detection_service.hpp"
#include "sync/mutex.hpp"

namespace dronet::cluster {

enum class WorkerState {
    kUp,        ///< healthy, eligible for dispatch
    kEjected,   ///< breaker open: too many consecutive health failures
    kHalfOpen,  ///< trial probe outstanding after readmit_ms
    kDead,      ///< connection lost / process exited; awaiting respawn
    kReloading, ///< drained out of dispatch while a rolling reload swaps it
};

[[nodiscard]] constexpr const char* to_string(WorkerState s) noexcept {
    switch (s) {
        case WorkerState::kUp: return "up";
        case WorkerState::kEjected: return "ejected";
        case WorkerState::kHalfOpen: return "half-open";
        case WorkerState::kDead: return "dead";
        case WorkerState::kReloading: return "reloading";
    }
    return "?";
}

struct RouterConfig {
    /// Command line used to exec each spawned worker; the router appends
    /// "--fd N" with its end of the socketpair. Required when workers > 0.
    std::vector<std::string> worker_argv;
    /// Number of worker processes to spawn.
    int workers = 0;
    /// Already-connected worker sockets to adopt (ownership transfers to the
    /// router). Adopted workers are health-checked and ejectable like spawned
    /// ones but are never respawned — the router did not start them.
    std::vector<int> adopt_fds;

    /// Max frames the router keeps in flight per worker; further submits
    /// block until a slot frees (admission control sheds before this point
    /// for well-configured clients). 0 = unlimited.
    std::size_t worker_inflight_limit = 4;

    // --- per-client admission control (0 disables each knob) ---
    std::size_t client_max_inflight = 0;  ///< cap on unresolved frames per client
    double client_rate_per_s = 0;         ///< token-bucket refill rate
    double client_burst = 8;              ///< token-bucket depth

    // --- health / breaker / respawn ---
    std::int64_t health_interval_ms = 50;  ///< ping cadence per worker (> 0)
    std::int64_t health_timeout_ms = 2000; ///< unanswered ping = one failure
    int eject_threshold = 3;               ///< consecutive failures to eject (>= 1)
    std::int64_t readmit_ms = 500;         ///< ejected -> half-open delay
    bool respawn = true;                   ///< restart dead spawned workers
    /// Re-dispatch budget for frames stranded on a dead/ejected worker;
    /// exhausted frames resolve kShutdown.
    int max_retries = 1;
    /// stop(): how long to wait for workers to answer in-flight frames and
    /// acknowledge kShutdown before severing connections and resolving
    /// leftovers.
    std::int64_t shutdown_timeout_ms = 5000;
};

/// Router-side counters plus one WireStats per reachable worker. The
/// accounting invariant (chaos tests assert it fleet-wide): submitted ==
/// ok + dropped + rejected + timeout + failed + shutdown.
struct FleetStats {
    // Resolution counts by ServeStatus.
    std::uint64_t submitted = 0;
    std::uint64_t ok = 0;
    std::uint64_t dropped = 0;
    std::uint64_t rejected = 0;  ///< admission + quota + no-worker + worker-shed
    std::uint64_t timeout = 0;
    std::uint64_t failed = 0;
    std::uint64_t shutdown = 0;
    // Rejection breakdown (all included in `rejected` above).
    std::uint64_t rejected_admission = 0;  ///< client in-flight cap
    std::uint64_t rejected_quota = 0;      ///< token bucket empty
    std::uint64_t rejected_no_worker = 0;  ///< no healthy worker available
    // Fleet lifecycle.
    std::uint64_t retried = 0;         ///< frames re-dispatched off a lost worker
    std::uint64_t worker_ejects = 0;   ///< breaker-open transitions
    std::uint64_t worker_readmits = 0; ///< half-open probes that re-admitted
    std::uint64_t worker_respawns = 0; ///< dead processes replaced
    std::uint64_t worker_deaths = 0;   ///< connections lost outside stop()
    double wall_seconds = 0;           ///< first submit -> last resolution
    double throughput_fps = 0;         ///< ok / wall_seconds

    /// Per-worker snapshots (workers that answered the stats probe), in slot
    /// order, plus aggregate sums over them.
    std::vector<WireStats> workers;
    std::uint64_t agg_completed = 0;
    double agg_throughput_fps = 0;

    [[nodiscard]] bool accounting_ok() const noexcept {
        return submitted == ok + dropped + rejected + timeout + failed + shutdown;
    }
    /// One-line JSON: router counters under "router", the workers' own
    /// ServeStats JSON embedded verbatim under "workers".
    [[nodiscard]] std::string to_json() const;
};

/// Outcome of one rolling fleet reload (Router::rolling_reload).
struct RolloutReport {
    bool ok = false;
    std::size_t total = 0;        ///< worker slots in the fleet
    std::size_t reloaded = 0;     ///< workers serving the new version (success only)
    std::size_t rolled_back = 0;  ///< workers restored after an abort
    std::uint64_t model_version = 0;  ///< fleet-wide version after a success
    std::string error;                ///< why the rollout aborted; empty on success
    [[nodiscard]] std::string to_json() const;
};

class Router {
  public:
    /// Spawns/adopts the configured workers and starts receiver + health
    /// threads. Throws std::invalid_argument for an impossible config and
    /// std::runtime_error when spawning fails.
    explicit Router(RouterConfig config);
    ~Router();

    Router(const Router&) = delete;
    Router& operator=(const Router&) = delete;

    /// Dispatches one frame on behalf of `client_id`. Thread-safe. The future
    /// always resolves (admission sheds and fleet failures included); a frame
    /// the wire cannot carry (frame_limit_error) resolves kFailed at once.
    /// Blocks only when every healthy worker is at worker_inflight_limit.
    [[nodiscard]] std::future<serve::ServeResult> submit(std::uint64_t client_id,
                                                         Image frame);

    /// Blocks until no accepted frame is unresolved. Producers should be
    /// quiescent, as with DetectionService::drain().
    void drain();

    /// Graceful shutdown: workers get kShutdown and are awaited up to
    /// shutdown_timeout_ms (a socket a stuck write holds no longer) to answer
    /// their frames and acknowledge, stragglers resolve kShutdown, spawned
    /// processes are reaped (SIGKILL after the timeout). Idempotent.
    void stop();

    /// Polls every connected worker for its ServeStats and merges the
    /// answers with the router counters. Returns within `timeout_ms`: every
    /// probe is sent and answered against one deadline, or left out.
    [[nodiscard]] FleetStats fleet_stats(std::int64_t timeout_ms = 2000);

    [[nodiscard]] std::size_t slots() const noexcept;
    [[nodiscard]] WorkerState worker_state(std::size_t slot) const;
    [[nodiscard]] pid_t worker_pid(std::size_t slot) const;
    [[nodiscard]] int alive_workers() const;
    [[nodiscard]] const RouterConfig& config() const noexcept { return config_; }

    /// Chaos hook: SIGKILL a spawned worker process (no-op for adopted
    /// workers). The fleet reacts exactly as it would to a real crash.
    void kill_worker(std::size_t slot);

    /// Rolling fleet reload: one worker at a time is taken out of dispatch
    /// (kReloading — traffic keeps flowing to the rest, and submits wait
    /// rather than shed if every worker is mid-reload), drained of in-flight
    /// frames, sent a kReloadRequest for `weights_path`, and re-admitted
    /// once it confirms the swap. The first failure — an unhealthy slot, a
    /// drain or reload timeout, a canary rejection, or a worker death
    /// mid-rollout — aborts the rollout and sends a rollback to every
    /// already-reloaded worker, restoring the previous version fleet-wide.
    /// Serialized against concurrent rollouts; safe alongside live traffic.
    [[nodiscard]] RolloutReport rolling_reload(const std::string& weights_path,
                                               std::int64_t timeout_ms = 30000);

  private:
    using Clock = std::chrono::steady_clock;

    struct PendingRequest {
        std::promise<serve::ServeResult> promise;
        std::uint64_t client_id = 0;
        /// The pixels, kept for re-dispatch after a worker loss and shared
        /// with any request write still sending them.
        std::shared_ptr<const Image> frame;
        int frame_index = 0;
        int retries_left = 0;
        Clock::time_point submit_time;
    };

    struct Worker {
        Worker(std::size_t slot, serve::Breaker breaker)
            : slot(slot), breaker(breaker) {}

        std::size_t slot = 0;
        io::UniqueFd fd;
        pid_t pid = -1;  ///< -1 for adopted workers
        std::thread receiver;

        // Everything below is guarded by Router::mu_. (The thread-safety
        // analysis cannot express GUARDED_BY on a nested struct's fields
        // referring to the outer class's mutex; the *_locked methods carry
        // REQUIRES(mu_) instead.)
        WorkerState state = WorkerState::kUp;
        /// A send() holds the socket; `fd` is neither written nor replaced
        /// by anyone else until it is released.
        bool writing = false;
        std::size_t inflight = 0;
        std::map<std::uint64_t, PendingRequest> pending;
        /// Stats and reload requests awaiting their reply frame.
        std::map<std::uint64_t, std::promise<Frame>> calls;
        /// Open while kEjected, half-open while kHalfOpen; reset on death.
        serve::Breaker breaker;
        std::uint64_t ping_id = 0;  ///< outstanding ping's request id; 0 = none
        Clock::time_point ping_sent_at;
        WorkerGauges gauges;  ///< from the last pong
    };

    /// A stats or reload request in flight; `reply` is invalid when the
    /// worker was dead at the start.
    struct Call {
        Worker* worker = nullptr;
        std::uint64_t id = 0;
        std::future<Frame> reply;
    };

    struct ClientState {
        std::uint64_t inflight = 0;
        double tokens = 0;
        Clock::time_point last_refill;
        bool initialized = false;
    };

    void spawn_into_slot(std::size_t slot);       // mu_ NOT held
    void start_receiver(Worker& w);
    void receiver_loop(Worker& w, int fd);
    /// Resolves the detect frame or call a reply (an error frame included)
    /// answers, by request id.
    void handle_reply(Worker& w, Frame& frame);
    void handle_pong(Worker& w, const Frame& frame);
    /// The one way to a worker: claims `w`'s socket, waiting for the write
    /// that holds it until `deadline` at most, then runs `write(fd)` outside
    /// mu_. Writes nothing to a dead worker. A failed write shuts the socket
    /// down, so the receiver reads EOF and marks the worker dead. mu_ NOT held.
    template <typename Write>
    void send(Worker& w, Clock::time_point deadline, Write write);
    /// Registers a stats or reload request on `w` and sends it by `deadline`.
    [[nodiscard]] Call start_call(Worker& w, Opcode op,
                                  const std::vector<std::uint8_t>& payload,
                                  Clock::time_point deadline);
    /// The reply frame of `c` by `deadline`; nullopt when the worker was lost
    /// or the deadline passed (a later reply is then dropped). mu_ NOT held.
    [[nodiscard]] std::optional<Frame> finish_call(Call& c, Clock::time_point deadline);
    /// Sends one reload/rollback request and awaits the response (bounded by
    /// `timeout_ms`). nullopt = worker dead, write failed, timed out, or lost
    /// mid-reload; a worker's error frame is a failed response. mu_ NOT held.
    [[nodiscard]] std::optional<WireReloadResponse> request_reload(
        Worker& w, const WireReloadRequest& req, std::int64_t timeout_ms);
    void health_loop();
    /// Marks the worker dead/ejected and strands its in-flight work.
    /// `to_state` is kDead or kEjected. mu_ NOT held.
    void take_worker_out(Worker& w, WorkerState to_state);
    /// Re-dispatches stranded frames or resolves them kShutdown. mu_ NOT held.
    void redispatch_or_shed(std::vector<PendingRequest> stranded);
    /// Picks a dispatch target under mu_; nullptr when none is eligible.
    [[nodiscard]] Worker* pick_worker_locked(bool ignore_inflight_limit)
        REQUIRES(mu_);
    /// Registers `p` on `w` under mu_ and returns its request id for the
    /// caller to write the request outside the lock.
    std::uint64_t register_locked(Worker& w, PendingRequest p) REQUIRES(mu_);
    void resolve_shed(PendingRequest p, serve::ServeStatus status,
                      std::string error);
    /// The one exit of a frame from the router's books (see the definition):
    /// every outcome counter and every release of a client's in-flight count
    /// or of total_pending_ happens only here.
    void finish_locked(std::uint64_t client_id, serve::ServeStatus status)
        REQUIRES(mu_);
    void note_first_submit_locked() REQUIRES(mu_);

    RouterConfig config_;
    std::vector<std::unique_ptr<Worker>> workers_;

    mutable sync::Mutex mu_{"Router::mu"};
    sync::CondVar capacity_cv_;  ///< a worker slot freed / state change
    sync::CondVar drained_cv_;   ///< pending count hit zero
    sync::CondVar socket_cv_;    ///< a socket was released / a worker died
    sync::CondVar health_cv_;    ///< stopping_ was set
    bool stopping_ GUARDED_BY(mu_) = false;
    std::uint64_t next_request_id_ GUARDED_BY(mu_) = 1;
    int next_frame_index_ GUARDED_BY(mu_) = 0;
    std::uint64_t total_pending_ GUARDED_BY(mu_) = 0;
    std::map<std::uint64_t, ClientState> clients_ GUARDED_BY(mu_);

    // Router counters (snapshot into FleetStats).
    FleetStats counters_ GUARDED_BY(mu_);
    bool clock_started_ GUARDED_BY(mu_) = false;
    Clock::time_point first_submit_ GUARDED_BY(mu_);
    Clock::time_point last_resolution_ GUARDED_BY(mu_);

    std::thread health_;

    sync::Mutex stop_mu_{"Router::stop_mu"};  ///< serializes stop() callers
    sync::Mutex rollout_mu_{"Router::rollout_mu"};  ///< one rolling reload at a time
    std::atomic<bool> stopped_{false};
};

}  // namespace dronet::cluster
