#include "cluster/worker.hpp"

#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "cluster/protocol.hpp"
#include "io/fdio.hpp"

namespace dronet::cluster {

namespace {

/// Pending slots between the reader and the resolver. Deep enough that the
/// reader never blocks on the resolver under normal pipelining (the router's
/// per-worker in-flight cap is far smaller); kBlock backpressure bounds
/// memory if a router misbehaves.
constexpr std::size_t kPendingCapacity = 256;

}  // namespace

WorkerServer::WorkerServer(serve::DetectionService& service, int fd)
    : service_(service),
      fd_(fd),
      pending_(kPendingCapacity, serve::BackpressurePolicy::kBlock) {
    io::ignore_sigpipe();
}

void WorkerServer::respond(std::uint64_t request_id, const serve::ServeResult& r) {
    WireDetectResult wire;
    wire.status = r.status;
    wire.frame_index = r.frame.frame_index;
    wire.timings = r.timings;
    wire.detections = r.frame.detections;
    wire.error = r.error;
    const std::vector<std::uint8_t> payload = encode_detect_response(wire);
    sync::MutexLock lock(write_mu_);
    write_frame(fd_, Opcode::kDetectResponse, request_id, payload);
}

void WorkerServer::start_reload(std::uint64_t request_id, bool rollback,
                                std::string path) {
    auto respond_reload = [this, request_id](const serve::ReloadOutcome& out) {
        WireReloadResponse wire;
        wire.ok = out.ok;
        wire.model_version = out.model_version;
        wire.error = out.error;
        if (peer_gone_.load(std::memory_order_acquire)) return;
        try {
            sync::MutexLock lock(write_mu_);
            write_frame(fd_, Opcode::kReloadResponse, request_id,
                        encode_reload_response(wire));
        } catch (const std::exception&) {
            peer_gone_.store(true, std::memory_order_release);
        }
    };
    if (reload_busy_.exchange(true, std::memory_order_acq_rel)) {
        serve::ReloadOutcome busy;
        busy.model_version = service_.model_version();
        busy.error = "reload already in progress";
        respond_reload(busy);
        return;
    }
    // The previous reload thread (if any) has finished its work — busy was
    // false — but still needs joining before we reuse the slot.
    if (reload_thread_.joinable()) reload_thread_.join();
    reload_thread_ = std::thread([this, rollback, path = std::move(path),
                                  respond_reload] {
        serve::ReloadOutcome out;
        try {
            out = rollback ? service_.rollback()
                           : service_.reload_checkpoint(path);
        } catch (const std::exception& e) {
            out.ok = false;
            out.model_version = service_.model_version();
            out.error = e.what();
        }
        // Clear busy before replying: a router that serializes reloads on the
        // reply must never race the flag into a spurious busy rejection.
        reload_busy_.store(false, std::memory_order_release);
        respond_reload(out);
    });
}

void WorkerServer::resolver_loop() {
    while (auto pending = pending_.pop()) {
        // The service contract: every submitted future resolves (success,
        // shed, timeout, or failure) — this wait never hangs.
        if (peer_gone_.load(std::memory_order_acquire)) {
            pending->result.wait();
            continue;
        }
        // Shared, so this thread owns the result (or the exception it holds)
        // until the reply is written: future::get() releases it before the
        // handler reads the message, and the service thread may then free it
        // through a reference count the thread sanitizer cannot see.
        const std::shared_future<serve::ServeResult> result = pending->result.share();
        const serve::ServeResult* r = nullptr;
        std::optional<std::string> error;
        try {
            r = &result.get();
        } catch (const std::exception& e) {
            // A frame the service cannot preprocess (an unsupported channel
            // count) resolves as an exception. It is answered kError: thrown
            // out of this thread it would abort the whole worker process.
            error = e.what();
        }
        try {
            if (error) {
                sync::MutexLock lock(write_mu_);
                write_frame(fd_, Opcode::kError, pending->request_id,
                            encode_error(*error));
            } else {
                respond(pending->request_id, *r);
            }
        } catch (const std::exception&) {
            // Peer vanished mid-stream; keep draining futures so the service
            // can quiesce, but stop writing.
            peer_gone_.store(true, std::memory_order_release);
        }
    }
}

std::uint64_t WorkerServer::run() {
    std::thread resolver(&WorkerServer::resolver_loop, this);
    bool shutdown_requested = false;
    std::exception_ptr stream_error;
    try {
        Frame frame;
        while (read_header(fd_, frame.header)) {
            const auto opcode = static_cast<Opcode>(frame.header.opcode);
            const std::uint64_t id = frame.header.request_id;
            if (opcode == Opcode::kDetectRequest) {
                // The pixels go from the socket straight into the frame the
                // service is handed; only the small opcodes use frame.payload.
                Image img;
                try {
                    img = read_detect_request(fd_, frame.header);
                } catch (const BadRequest& e) {
                    sync::MutexLock lock(write_mu_);
                    write_frame(fd_, Opcode::kError, id, encode_error(e.what()));
                    continue;
                }
                Pending p;
                p.request_id = id;
                p.result = service_.submit(std::move(img));
                ++served_;
                (void)pending_.push(std::move(p));
                continue;
            }
            read_payload(fd_, frame);
            switch (opcode) {
                case Opcode::kPing: {
                    const serve::ServeStatsSnapshot s = service_.stats();
                    const WorkerGauges g{s.queue_depth, s.in_flight, s.uptime_ms};
                    sync::MutexLock lock(write_mu_);
                    write_frame(fd_, Opcode::kPong, id, encode_pong(g));
                    break;
                }
                case Opcode::kStatsRequest: {
                    const std::vector<std::uint8_t> payload =
                        encode_stats_response(service_.stats());
                    sync::MutexLock lock(write_mu_);
                    write_frame(fd_, Opcode::kStatsResponse, id, payload);
                    break;
                }
                case Opcode::kReloadRequest: {
                    WireReloadRequest req;
                    try {
                        req = decode_reload_request(frame.payload);
                    } catch (const std::exception& e) {
                        sync::MutexLock lock(write_mu_);
                        write_frame(fd_, Opcode::kError, id, encode_error(e.what()));
                        break;
                    }
                    start_reload(id, req.rollback, std::move(req.weights_path));
                    break;
                }
                case Opcode::kShutdown:
                    shutdown_requested = true;
                    break;
                default: {
                    sync::MutexLock lock(write_mu_);
                    write_frame(fd_, Opcode::kError, id,
                                encode_error(std::string("unexpected opcode ") +
                                             to_string(opcode)));
                    break;
                }
            }
            if (shutdown_requested) break;
        }
    } catch (...) {
        // Corrupt stream or dead peer: answer what we already accepted, then
        // surface the error to the process entry point.
        stream_error = std::current_exception();
        peer_gone_.store(true, std::memory_order_release);
    }
    // Drain: no new requests arrive; the resolver finishes answering every
    // accepted frame before the queue reports empty-and-closed.
    pending_.close();
    resolver.join();
    if (reload_thread_.joinable()) reload_thread_.join();
    if (shutdown_requested && !peer_gone_.load(std::memory_order_acquire)) {
        try {
            sync::MutexLock lock(write_mu_);
            write_frame(fd_, Opcode::kShutdownAck, 0, nullptr, 0);
        } catch (const std::exception&) {
            // Router left without waiting for the ack; nothing to do.
        }
    }
    if (stream_error) std::rethrow_exception(stream_error);
    return served_;
}

}  // namespace dronet::cluster
