#include "cluster/router.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "analysis/validate.hpp"

namespace dronet::cluster {

namespace {

using Clock = std::chrono::steady_clock;

/// send() deadlines: wait for a held socket as long as it takes, or not at all.
constexpr Clock::time_point kForever = Clock::time_point::max();
constexpr Clock::time_point kNoWait{};

double ms_since(Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

/// Reaps a child, escalating to SIGKILL after `grace_ms` of WNOHANG polling.
void reap_child(pid_t pid, std::int64_t grace_ms) {
    if (pid <= 0) return;
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::milliseconds(grace_ms);
    for (;;) {
        const pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r != 0) return;  // reaped (or ECHILD: someone else did)
        if (Clock::now() >= deadline) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
}

}  // namespace

std::string FleetStats::to_json() const {
    std::ostringstream os;
    os << "{\"router\":{"
       << "\"submitted\":" << submitted << ",\"ok\":" << ok
       << ",\"dropped\":" << dropped << ",\"rejected\":" << rejected
       << ",\"timeout\":" << timeout << ",\"failed\":" << failed
       << ",\"shutdown\":" << shutdown
       << ",\"rejected_admission\":" << rejected_admission
       << ",\"rejected_quota\":" << rejected_quota
       << ",\"rejected_no_worker\":" << rejected_no_worker
       << ",\"retried\":" << retried
       << ",\"worker_ejects\":" << worker_ejects
       << ",\"worker_readmits\":" << worker_readmits
       << ",\"worker_respawns\":" << worker_respawns
       << ",\"worker_deaths\":" << worker_deaths
       << ",\"wall_seconds\":" << wall_seconds
       << ",\"throughput_fps\":" << throughput_fps
       << ",\"accounting_ok\":" << (accounting_ok() ? "true" : "false") << "}";
    os << ",\"workers\":[";
    for (std::size_t i = 0; i < workers.size(); ++i) {
        if (i > 0) os << ",";
        // The worker's own ServeStats JSON, verbatim.
        os << workers[i].json;
    }
    os << "],\"aggregate\":{\"completed\":" << agg_completed
       << ",\"throughput_fps\":" << agg_throughput_fps << "}}";
    return os.str();
}

std::string RolloutReport::to_json() const {
    std::ostringstream os;
    os << "{\"ok\":" << (ok ? "true" : "false") << ",\"total\":" << total
       << ",\"reloaded\":" << reloaded << ",\"rolled_back\":" << rolled_back
       << ",\"model_version\":" << model_version << ",\"error\":\""
       << json_escape(error) << "\"}";
    return os.str();
}

Router::Router(RouterConfig config) : config_(std::move(config)) {
    if (config_.workers < 0) {
        throw std::invalid_argument("Router: negative worker count");
    }
    if (config_.workers > 0 && config_.worker_argv.empty()) {
        throw std::invalid_argument("Router: workers > 0 requires worker_argv");
    }
    const std::size_t total =
        static_cast<std::size_t>(config_.workers) + config_.adopt_fds.size();
    if (total == 0) {
        throw std::invalid_argument("Router: no workers to spawn or adopt");
    }
    if (config_.health_interval_ms <= 0) {
        throw std::invalid_argument("Router: health_interval_ms must be positive");
    }
    if (config_.eject_threshold < 1) {
        throw std::invalid_argument("Router: eject_threshold must be at least 1");
    }
    io::ignore_sigpipe();

    // Adopted fds are wrapped first so every handed-in descriptor is owned
    // (and closed on any failure path) before fork can throw.
    const serve::Breaker breaker(config_.eject_threshold,
                                 std::chrono::milliseconds(config_.readmit_ms));
    workers_.reserve(total);
    for (int i = 0; i < config_.workers; ++i) {
        workers_.push_back(std::make_unique<Worker>(workers_.size(), breaker));
    }
    for (int fd : config_.adopt_fds) {
        auto w = std::make_unique<Worker>(workers_.size(), breaker);
        w->fd.reset(fd);
        workers_.push_back(std::move(w));
    }
    try {
        for (int i = 0; i < config_.workers; ++i) {
            spawn_into_slot(static_cast<std::size_t>(i));
        }
    } catch (...) {
        for (auto& w : workers_) {
            if (w->pid > 0) reap_child(w->pid, 0);
        }
        throw;
    }
    for (auto& w : workers_) start_receiver(*w);
    health_ = std::thread(&Router::health_loop, this);
}

Router::~Router() { stop(); }

void Router::spawn_into_slot(std::size_t slot) {
    Worker& w = *workers_[slot];
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        throw std::system_error(errno, std::generic_category(),
                                "Router: socketpair");
    }
    // The router end must never leak into children spawned later.
    ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);
    // argv is fully materialized before fork: only async-signal-safe calls
    // are legal between fork and exec in a threaded parent.
    std::vector<std::string> argv_s = config_.worker_argv;
    argv_s.push_back("--fd");
    argv_s.push_back(std::to_string(sv[1]));
    std::vector<char*> argv;
    argv.reserve(argv_s.size() + 1);
    for (auto& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        const int err = errno;
        ::close(sv[0]);
        ::close(sv[1]);
        throw std::system_error(err, std::generic_category(), "Router: fork");
    }
    if (pid == 0) {
        // Child: drop every inherited descriptor except stdio and our socket.
        // Sibling workers' child ends carry no CLOEXEC flag (they must survive
        // their own exec), and holding copies here would mask their EOFs.
        for (int fd = 3; fd < 1024; ++fd) {
            if (fd != sv[1]) ::close(fd);
        }
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    ::close(sv[1]);
    sync::MutexLock lock(mu_);  // publish fd/pid to accessors
    // A respawn replaces a dead worker's socket: a write still on it fails
    // at once now its peer is gone, and must end before that fd closes.
    while (w.writing) socket_cv_.wait(mu_);
    w.fd.reset(sv[0]);
    w.pid = pid;
}

void Router::start_receiver(Worker& w) {
    w.receiver = std::thread(&Router::receiver_loop, this, std::ref(w), w.fd.get());
}

std::future<serve::ServeResult> Router::submit(std::uint64_t client_id,
                                               Image frame) {
    const auto now = Clock::now();
    const std::string wire_error = frame_limit_error(frame);
    PendingRequest p;
    p.client_id = client_id;
    p.retries_left = config_.max_retries;
    p.submit_time = now;
    std::future<serve::ServeResult> fut = p.promise.get_future();
    // The pending record and the write below share the pixels: a worker loss
    // can re-dispatch and resolve this frame while the write still reads them.
    p.frame = std::make_shared<const Image>(std::move(frame));
    const std::shared_ptr<const Image> pixels = p.frame;

    serve::ServeStatus shed_status = serve::ServeStatus::kOk;
    std::string shed_error;
    Worker* target = nullptr;
    std::uint64_t id = 0;
    {
        sync::MutexLock lock(mu_);
        note_first_submit_locked();
        ++counters_.submitted;
        p.frame_index = next_frame_index_++;
        // Every submit counts against its client and drain() until it
        // leaves through finish_locked(), sheds included.
        ClientState& c = clients_[client_id];
        const std::uint64_t client_inflight = c.inflight++;
        ++total_pending_;
        if (!wire_error.empty()) {
            shed_status = serve::ServeStatus::kFailed;
            shed_error = wire_error;
        } else if (stopping_) {
            shed_status = serve::ServeStatus::kShutdown;
            shed_error = "router stopped";
        } else {
            // --- admission control ---
            if (!c.initialized) {
                c.initialized = true;
                c.tokens = config_.client_burst;
                c.last_refill = now;
            }
            if (config_.client_max_inflight > 0 &&
                client_inflight >= config_.client_max_inflight) {
                shed_status = serve::ServeStatus::kRejected;
                shed_error = "admission: client in-flight cap reached";
                ++counters_.rejected_admission;
            } else if (config_.client_rate_per_s > 0) {
                const double elapsed_s =
                    std::chrono::duration<double>(now - c.last_refill).count();
                c.tokens = std::min(config_.client_burst,
                                    c.tokens + elapsed_s * config_.client_rate_per_s);
                c.last_refill = now;
                if (c.tokens < 1.0) {
                    shed_status = serve::ServeStatus::kRejected;
                    shed_error = "admission: client quota exhausted";
                    ++counters_.rejected_quota;
                } else {
                    c.tokens -= 1.0;
                }
            }
            // --- dispatch ---
            while (shed_status == serve::ServeStatus::kOk) {
                target = pick_worker_locked(false);
                if (target != nullptr) break;
                // A reloading worker counts as coming back: submits wait
                // out a rolling reload instead of shedding (matters for
                // single-worker fleets, which would otherwise reject
                // every frame for the duration of the swap).
                const bool any_up = std::any_of(
                    workers_.begin(), workers_.end(), [](const auto& w) {
                        return w->state == WorkerState::kUp ||
                               w->state == WorkerState::kReloading;
                    });
                if (stopping_) {
                    shed_status = serve::ServeStatus::kShutdown;
                    shed_error = "router stopped";
                } else if (!any_up) {
                    shed_status = serve::ServeStatus::kRejected;
                    shed_error = "no healthy worker available";
                    ++counters_.rejected_no_worker;
                } else {
                    capacity_cv_.wait(mu_);
                }
            }
        }
        if (target != nullptr) {
            id = register_locked(*target, std::move(p));
        } else {
            finish_locked(client_id, shed_status);
        }
    }
    if (target == nullptr) {
        resolve_shed(std::move(p), shed_status, std::move(shed_error));
        return fut;
    }
    // The frame is registered on `target`: if it is never written, the
    // worker's loss re-dispatches or sheds it (never abandons it).
    send(*target, kForever, [&](int fd) { write_detect_request(fd, id, *pixels); });
    return fut;
}

Router::Worker* Router::pick_worker_locked(bool ignore_inflight_limit) {
    const auto eligible = [&](const Worker& w) {
        if (w.state != WorkerState::kUp) return false;
        if (ignore_inflight_limit || config_.worker_inflight_limit == 0) return true;
        return w.inflight < config_.worker_inflight_limit;
    };
    Worker* best = nullptr;
    for (auto& w : workers_) {
        if (!eligible(*w)) continue;
        if (best == nullptr || w->inflight < best->inflight ||
            (w->inflight == best->inflight &&
             w->gauges.queue_depth < best->gauges.queue_depth)) {
            best = w.get();
        }
    }
    return best;
}

std::uint64_t Router::register_locked(Worker& w, PendingRequest p) {
    const std::uint64_t id = next_request_id_++;
    w.pending.emplace(id, std::move(p));
    w.inflight++;
    return id;
}

void Router::resolve_shed(PendingRequest p, serve::ServeStatus status,
                          std::string error) {
    serve::ServeResult r;
    r.status = status;
    r.frame.frame_index = p.frame_index;
    r.frame.latency_ms = ms_since(p.submit_time);
    r.error = std::move(error);
    p.promise.set_value(std::move(r));
}

// The one exit of a frame from the router's books: counts its outcome, then
// releases its client's in-flight slot and the drain barrier. The caller
// fulfils the promise after dropping mu_, so the count is visible first.
void Router::finish_locked(std::uint64_t client_id, serve::ServeStatus status) {
    switch (status) {
        case serve::ServeStatus::kOk: ++counters_.ok; break;
        case serve::ServeStatus::kDropped: ++counters_.dropped; break;
        case serve::ServeStatus::kRejected: ++counters_.rejected; break;
        case serve::ServeStatus::kTimeout: ++counters_.timeout; break;
        case serve::ServeStatus::kFailed: ++counters_.failed; break;
        case serve::ServeStatus::kShutdown: ++counters_.shutdown; break;
    }
    last_resolution_ = Clock::now();
    clients_[client_id].inflight--;
    if (--total_pending_ == 0) drained_cv_.notify_all();
}

void Router::note_first_submit_locked() {
    if (!clock_started_) {
        clock_started_ = true;
        first_submit_ = Clock::now();
        last_resolution_ = first_submit_;
    }
}

void Router::receiver_loop(Worker& w, int fd) {
    try {
        Frame frame;
        // A shutdown-ack is the worker's last frame: it has answered and
        // written everything, so its connection ends here.
        while (read_frame(fd, frame) &&
               static_cast<Opcode>(frame.header.opcode) != Opcode::kShutdownAck) {
            switch (static_cast<Opcode>(frame.header.opcode)) {
                case Opcode::kDetectResponse:
                case Opcode::kError:
                case Opcode::kStatsResponse:
                case Opcode::kReloadResponse:
                    handle_reply(w, frame);
                    break;
                case Opcode::kPong:
                    handle_pong(w, frame);
                    break;
                default:
                    break;  // tolerated: never wedge the fleet on one frame
            }
        }
    } catch (const std::exception&) {
        // Corrupt stream or socket error: same handling as a closed peer.
    }
    take_worker_out(w, WorkerState::kDead);
}

void Router::handle_reply(Worker& w, Frame& frame) {
    const auto op = static_cast<Opcode>(frame.header.opcode);
    const std::uint64_t id = frame.header.request_id;
    WireDetectResult wire;
    if (op == Opcode::kDetectResponse) {
        wire = decode_detect_response(frame.payload);
    } else if (op == Opcode::kError) {
        wire.status = serve::ServeStatus::kFailed;
        wire.error = decode_error(frame.payload);
    }
    std::optional<PendingRequest> detect;
    std::optional<std::promise<Frame>> call;
    {
        sync::MutexLock lock(mu_);
        // Any answered request proves liveness as well as a pong does.
        if (w.state == WorkerState::kUp) w.breaker.succeed();
        const auto it = w.pending.find(id);
        const bool detect_reply = op == Opcode::kDetectResponse || op == Opcode::kError;
        if (detect_reply && it != w.pending.end()) {
            detect = std::move(it->second);
            w.pending.erase(it);
            if (w.inflight > 0) w.inflight--;
            finish_locked(detect->client_id, wire.status);
        } else if (const auto c = w.calls.find(id); c != w.calls.end()) {
            call = std::move(c->second);
            w.calls.erase(c);
        }
        // Neither: stale (re-dispatched, shed, or its call timed out).
    }
    if (call) {
        call->set_value(std::move(frame));  // the caller decodes it
        return;
    }
    if (!detect) return;
    capacity_cv_.notify_all();
    serve::ServeResult r;
    r.status = wire.status;
    r.frame.frame_index = detect->frame_index;  // fleet-wide index, not worker-local
    r.frame.detections = std::move(wire.detections);
    r.frame.latency_ms = ms_since(detect->submit_time);
    r.timings = wire.timings;
    r.error = std::move(wire.error);
    detect->promise.set_value(std::move(r));
}

void Router::handle_pong(Worker& w, const Frame& frame) {
    const WorkerGauges g = decode_pong(frame.payload);
    bool readmitted = false;
    {
        sync::MutexLock lock(mu_);
        w.gauges = g;
        // Only the answer to the outstanding ping counts: a pong to a ping
        // that already timed out says nothing about the worker now.
        if (w.ping_id == 0 || frame.header.request_id != w.ping_id) return;
        w.ping_id = 0;
        if (w.state == WorkerState::kHalfOpen) {
            w.state = WorkerState::kUp;
            ++counters_.worker_readmits;
            readmitted = true;
        }
        if (w.state == WorkerState::kUp) w.breaker.succeed();
    }
    if (readmitted) capacity_cv_.notify_all();
}

void Router::take_worker_out(Worker& w, WorkerState to_state) {
    std::vector<PendingRequest> stranded;
    std::map<std::uint64_t, std::promise<Frame>> broken;
    {
        sync::MutexLock lock(mu_);
        if (w.state == WorkerState::kDead) return;
        if (to_state == WorkerState::kDead) {
            w.state = WorkerState::kDead;
            w.breaker.reset();
            if (!stopping_) ++counters_.worker_deaths;
        } else {
            if (w.state == WorkerState::kEjected) return;
            w.state = WorkerState::kEjected;
            ++counters_.worker_ejects;
        }
        w.ping_id = 0;
        stranded.reserve(w.pending.size());
        for (auto& [id, p] : w.pending) stranded.push_back(std::move(p));
        w.pending.clear();
        w.inflight = 0;
        broken.swap(w.calls);
    }
    capacity_cv_.notify_all();
    socket_cv_.notify_all();  // a dead worker's socket is waited for no more
    broken.clear();  // unanswered: each call's future throws broken_promise
    redispatch_or_shed(std::move(stranded));
}

void Router::redispatch_or_shed(std::vector<PendingRequest> stranded) {
    for (auto& p : stranded) {
        const std::shared_ptr<const Image> pixels = p.frame;
        Worker* target = nullptr;
        std::uint64_t id = 0;
        {
            sync::MutexLock lock(mu_);
            if (!stopping_ && p.retries_left > 0) {
                // Retries jump the in-flight cap: they already waited once.
                target = pick_worker_locked(true);
            }
            if (target != nullptr) {
                p.retries_left--;
                ++counters_.retried;
                id = register_locked(*target, std::move(p));
            } else {
                finish_locked(p.client_id, serve::ServeStatus::kShutdown);
            }
        }
        if (target == nullptr) {
            resolve_shed(std::move(p), serve::ServeStatus::kShutdown,
                         "worker lost; no re-dispatch budget or healthy worker");
            continue;
        }
        send(*target, kForever, [&](int fd) { write_detect_request(fd, id, *pixels); });
    }
}

template <typename Write>
void Router::send(Worker& w, Clock::time_point deadline, Write write) {
    {
        sync::MutexLock lock(mu_);
        while (w.writing && w.state != WorkerState::kDead) {
            if (deadline == kForever) {
                socket_cv_.wait(mu_);
            } else if (socket_cv_.wait_until(mu_, deadline) == std::cv_status::timeout) {
                break;
            }
        }
        if (w.writing || w.state == WorkerState::kDead) return;
        w.writing = true;
    }
    try {
        write(w.fd.get());
    } catch (const std::exception&) {
        // The stream may now end inside a frame. Shut the socket down so the
        // receiver reads EOF and takes the worker out (so a respawn's join
        // returns), and every later write fails at once.
        ::shutdown(w.fd.get(), SHUT_RDWR);
    }
    {
        sync::MutexLock lock(mu_);
        w.writing = false;
    }
    socket_cv_.notify_all();
}

Router::Call Router::start_call(Worker& w, Opcode op,
                                const std::vector<std::uint8_t>& payload,
                                Clock::time_point deadline) {
    Call c{&w, 0, {}};
    {
        sync::MutexLock lock(mu_);
        if (w.state == WorkerState::kDead) return c;
        c.id = next_request_id_++;
        c.reply = w.calls[c.id].get_future();
    }
    // Not sent means no reply: finish_call waits out the same deadline.
    send(w, deadline, [&](int fd) { write_frame(fd, op, c.id, payload); });
    return c;
}

std::optional<Frame> Router::finish_call(Call& c, Clock::time_point deadline) {
    if (!c.reply.valid()) return std::nullopt;
    if (c.reply.wait_until(deadline) != std::future_status::ready) {
        sync::MutexLock lock(mu_);
        c.worker->calls.erase(c.id);
        return std::nullopt;
    }
    try {
        return c.reply.get();
    } catch (const std::exception&) {
        return std::nullopt;  // worker lost before its reply
    }
}

void Router::health_loop() {
    for (;;) {
        {
            sync::MutexLock lock(mu_);
            const auto tick_deadline =
                Clock::now() +
                std::chrono::milliseconds(config_.health_interval_ms);
            while (!stopping_ &&
                   health_cv_.wait_until(mu_, tick_deadline) !=
                       std::cv_status::timeout) {
            }
            if (stopping_) return;
        }
        for (auto& wp : workers_) {
            Worker& w = *wp;
            enum class Action { kNone, kPing, kEject, kRespawn };
            Action action = Action::kNone;
            std::uint64_t ping_id = 0;
            {
                sync::MutexLock lock(mu_);
                const auto now = Clock::now();
                const bool overdue =
                    w.ping_id != 0 &&
                    now - w.ping_sent_at >
                        std::chrono::milliseconds(config_.health_timeout_ms);
                switch (w.state) {
                    case WorkerState::kUp:
                    case WorkerState::kHalfOpen:
                        if (overdue) {
                            w.ping_id = 0;
                            if (!w.breaker.fail(now)) break;
                            if (w.state == WorkerState::kUp) {
                                action = Action::kEject;  // strands its frames
                            } else {
                                // Failed trial ping: the breaker snaps back
                                // open, an eject like the first opening.
                                w.state = WorkerState::kEjected;
                                ++counters_.worker_ejects;
                            }
                        } else if (w.ping_id == 0) {
                            action = Action::kPing;
                        }
                        break;
                    case WorkerState::kEjected:
                        if (w.breaker.poll(now) == serve::Breaker::State::kHalfOpen) {
                            w.state = WorkerState::kHalfOpen;
                            action = Action::kPing;  // the trial probe
                        }
                        break;
                    case WorkerState::kReloading:
                        // Out of dispatch for a rolling reload; the reload RPC
                        // itself is the liveness probe, so no pings (a slow
                        // checkpoint load must not look like a dead worker).
                        break;
                    case WorkerState::kDead:
                        if (config_.respawn && w.pid > 0 && !stopping_) {
                            action = Action::kRespawn;
                        }
                        break;
                }
                if (action == Action::kPing) {
                    ping_id = w.ping_id = next_request_id_++;
                    w.ping_sent_at = now;
                }
            }
            switch (action) {
                case Action::kNone:
                    break;
                case Action::kPing:
                    // A ping never waits for the socket: behind a stuck
                    // request write it counts as sent and unanswered, so that
                    // worker goes overdue and is ejected, which re-dispatches
                    // its frames, instead of wedging this thread.
                    send(w, kNoWait, [&](int fd) {
                        write_frame(fd, Opcode::kPing, ping_id, nullptr, 0);
                    });
                    break;
                case Action::kEject:
                    take_worker_out(w, WorkerState::kEjected);
                    break;
                case Action::kRespawn:
                    try {
                        if (w.receiver.joinable()) w.receiver.join();
                        reap_child(w.pid, 100);
                        spawn_into_slot(w.slot);
                        {
                            sync::MutexLock lock(mu_);
                            w.state = WorkerState::kUp;
                            w.ping_id = 0;
                            w.gauges = WorkerGauges{};
                            ++counters_.worker_respawns;
                        }
                        start_receiver(w);
                        capacity_cv_.notify_all();
                    } catch (const std::exception&) {
                        // Spawn failed (fd exhaustion, fork error): the slot
                        // stays dead and the next tick retries.
                    }
                    break;
            }
        }
    }
}

void Router::drain() {
    sync::MutexLock lock(mu_);
    while (total_pending_ != 0) drained_cv_.wait(mu_);
}

void Router::stop() {
    sync::MutexLock sg(stop_mu_);
    if (stopped_.exchange(true)) return;
    {
        sync::MutexLock lock(mu_);
        stopping_ = true;
    }
    capacity_cv_.notify_all();
    health_cv_.notify_all();
    // Health thread first: no more pings or respawns while tearing down.
    if (health_.joinable()) health_.join();
    // Ask every connected worker to drain and exit, then give the workers
    // the same bounded window to answer their frames and acknowledge. A
    // worker's receiver takes it out at the ack, so severing the rest below
    // never cuts off a reply a worker is still writing.
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(config_.shutdown_timeout_ms);
    for (auto& wp : workers_) {
        send(*wp, deadline,
             [](int fd) { write_frame(fd, Opcode::kShutdown, 0, nullptr, 0); });
    }
    {
        sync::MutexLock lock(mu_);
        const auto connected = [&] {
            return std::any_of(workers_.begin(), workers_.end(), [](const auto& w) {
                return w->state != WorkerState::kDead;
            });
        };
        while (connected() &&
               socket_cv_.wait_until(mu_, deadline) != std::cv_status::timeout) {
        }
    }
    // Sever connections: blocked receivers wake with EOF and their
    // take_worker_out resolves any straggler as kShutdown (stopping_ is set,
    // so nothing is re-dispatched and nothing is abandoned). A write still
    // in progress fails at once; it must end before its fd closes.
    for (auto& wp : workers_) {
        if (wp->fd) ::shutdown(wp->fd.get(), SHUT_RDWR);
    }
    for (auto& wp : workers_) {
        if (wp->receiver.joinable()) wp->receiver.join();
    }
    {
        sync::MutexLock lock(mu_);
        for (auto& wp : workers_) {
            while (wp->writing) socket_cv_.wait(mu_);
        }
    }
    for (auto& wp : workers_) wp->fd.reset();
    for (auto& wp : workers_) {
        reap_child(wp->pid, config_.shutdown_timeout_ms);
        wp->pid = -1;
    }
}

FleetStats Router::fleet_stats(std::int64_t timeout_ms) {
    // Every probe goes out first; then all replies share one deadline.
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    std::vector<Call> probes;
    for (auto& wp : workers_) {
        probes.push_back(start_call(*wp, Opcode::kStatsRequest, {}, deadline));
    }
    FleetStats out;
    {
        sync::MutexLock lock(mu_);
        out = counters_;
        if (clock_started_) {
            out.wall_seconds =
                std::chrono::duration<double>(last_resolution_ - first_submit_)
                    .count();
        }
    }
    out.throughput_fps =
        out.wall_seconds > 0 ? static_cast<double>(out.ok) / out.wall_seconds : 0;
    for (Call& probe : probes) {
        const std::optional<Frame> reply = finish_call(probe, deadline);
        if (!reply || static_cast<Opcode>(reply->header.opcode) != Opcode::kStatsResponse) {
            continue;  // lost, late or refused: the router counters cover it
        }
        try {
            WireStats ws = decode_stats_response(reply->payload);
            out.agg_completed += ws.completed;
            out.agg_throughput_fps += ws.throughput_fps;
            out.workers.push_back(std::move(ws));
        } catch (const std::exception&) {
            // A malformed stats reply leaves that worker out.
        }
    }
    return out;
}

std::optional<WireReloadResponse> Router::request_reload(
    Worker& w, const WireReloadRequest& req, std::int64_t timeout_ms) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    Call c = start_call(w, Opcode::kReloadRequest, encode_reload_request(req), deadline);
    const std::optional<Frame> reply = finish_call(c, deadline);
    if (!reply) return std::nullopt;
    try {
        switch (static_cast<Opcode>(reply->header.opcode)) {
            case Opcode::kReloadResponse:
                return decode_reload_response(reply->payload);
            case Opcode::kError:
                return WireReloadResponse{.ok = false,
                                          .model_version = 0,
                                          .error = decode_error(reply->payload)};
            default:
                return std::nullopt;
        }
    } catch (const std::exception&) {
        return std::nullopt;  // a malformed reply
    }
}

RolloutReport Router::rolling_reload(const std::string& weights_path,
                                     std::int64_t timeout_ms) {
    sync::MutexLock rollout_lock(rollout_mu_);
    RolloutReport report;
    report.total = workers_.size();
    std::vector<Worker*> committed;
    for (auto& wp : workers_) {
        Worker& w = *wp;
        // Take the slot out of dispatch: pick_worker_locked only selects kUp,
        // so no new frame lands here while the swap is in flight. Submits
        // wait on capacity_cv_ rather than shed (see submit()'s any_up).
        {
            sync::MutexLock lock(mu_);
            if (stopping_) {
                report.error = "router stopped";
                break;
            }
            if (w.state != WorkerState::kUp) {
                report.error = "worker slot " + std::to_string(w.slot) +
                               " not up (" + to_string(w.state) + ")";
                break;
            }
            w.state = WorkerState::kReloading;
            w.ping_id = 0;
        }
        // Drain: wait for this worker's in-flight frames to come back so the
        // swap never races a request against the model it was dispatched to.
        bool drained = false;
        bool still_ours = false;
        {
            sync::MutexLock lock(mu_);
            const auto deadline =
                Clock::now() + std::chrono::milliseconds(timeout_ms);
            while (!w.pending.empty() &&
                   w.state == WorkerState::kReloading) {
                if (capacity_cv_.wait_until(mu_, deadline) ==
                    std::cv_status::timeout) {
                    break;
                }
            }
            drained = w.pending.empty();
            still_ours = w.state == WorkerState::kReloading;
        }
        if (!drained || !still_ours) {
            {
                sync::MutexLock lock(mu_);
                if (w.state == WorkerState::kReloading) {
                    w.state = WorkerState::kUp;  // old model, back in dispatch
                }
            }
            capacity_cv_.notify_all();
            report.error = !still_ours
                               ? "worker slot " + std::to_string(w.slot) +
                                     " lost during drain"
                               : "drain timeout on worker slot " +
                                     std::to_string(w.slot);
            break;
        }
        WireReloadRequest req;
        req.weights_path = weights_path;
        const std::optional<WireReloadResponse> resp =
            request_reload(w, req, timeout_ms);
        // Back into dispatch either way: on success it serves the new model,
        // on failure the worker-side canary left the old model byte-intact.
        {
            sync::MutexLock lock(mu_);
            if (w.state == WorkerState::kReloading) w.state = WorkerState::kUp;
        }
        capacity_cv_.notify_all();
        if (!resp || !resp->ok) {
            report.error = resp ? ("worker slot " + std::to_string(w.slot) +
                                   " rejected reload: " + resp->error)
                                : ("worker slot " + std::to_string(w.slot) +
                                   " lost or timed out during reload");
            break;
        }
        committed.push_back(&w);
        ++report.reloaded;
        report.model_version = resp->model_version;
    }
    if (report.reloaded == report.total && report.error.empty()) {
        report.ok = true;
        return report;
    }
    // Abort: restore the previous version on every already-swapped worker so
    // the fleet never serves two model versions past the rollout's end.
    WireReloadRequest rb;
    rb.rollback = true;
    for (Worker* w : committed) {
        const std::optional<WireReloadResponse> resp =
            request_reload(*w, rb, timeout_ms);
        if (resp && resp->ok) ++report.rolled_back;
    }
    if (report.error.empty()) report.error = "rollout aborted";
    return report;
}

std::size_t Router::slots() const noexcept { return workers_.size(); }

WorkerState Router::worker_state(std::size_t slot) const {
    sync::MutexLock lock(mu_);
    return workers_.at(slot)->state;
}

pid_t Router::worker_pid(std::size_t slot) const {
    sync::MutexLock lock(mu_);
    return workers_.at(slot)->pid;
}

int Router::alive_workers() const {
    sync::MutexLock lock(mu_);
    int n = 0;
    for (const auto& w : workers_) {
        if (w->state == WorkerState::kUp) ++n;
    }
    return n;
}

void Router::kill_worker(std::size_t slot) {
    pid_t pid = -1;
    {
        sync::MutexLock lock(mu_);
        pid = workers_.at(slot)->pid;
    }
    if (pid > 0) ::kill(pid, SIGKILL);
}

}  // namespace dronet::cluster
