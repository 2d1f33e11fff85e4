// The worker-process half of the sharded serving tier.
//
// A WorkerServer wraps one DetectionService behind a single connected socket:
// a reader loop decodes frames (protocol.hpp) and submits detect requests to
// the service, reading each request's pixels straight into the Image it
// submits, and a resolver thread turns the resulting futures back into
// detect-response frames. Requests therefore pipeline — the router can keep
// several frames in flight per worker and the service's own queue, micro-
// batching, and self-healing machinery (docs/robustness.md) all apply
// unchanged inside the worker process.
//
// Lifecycle: run() serves until the peer closes the socket or sends
// kShutdown; every in-flight frame is resolved and answered (kShutdown
// additionally gets a kShutdownAck as the final frame) before run() returns.
// tools/serve_worker is the process entry point around this class.
//
// A reload or rollback request runs on the reader, which answers it before
// it reads the next frame. The router drains a worker and sends it nothing
// else while it reloads, and a rollback only swaps a pointer. So a stats
// probe that arrives during a reload is answered when the reload returns,
// and a SIGTERM drain starts at that point too.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>

#include "serve/bounded_queue.hpp"
#include "serve/detection_service.hpp"
#include "sync/mutex.hpp"

namespace dronet::cluster {

class WorkerServer {
  public:
    /// Serves `service` over the connected socket `fd` (not owned; the caller
    /// keeps it open for the duration of run()).
    WorkerServer(serve::DetectionService& service, int fd);

    WorkerServer(const WorkerServer&) = delete;
    WorkerServer& operator=(const WorkerServer&) = delete;

    /// Blocks serving the connection; returns the number of detect requests
    /// handled. Protocol errors from a corrupt stream propagate as
    /// std::runtime_error after in-flight work is resolved.
    std::uint64_t run();

  private:
    struct Pending {
        std::uint64_t request_id = 0;
        std::future<serve::ServeResult> result;
    };

    void resolver_loop();
    void respond(std::uint64_t request_id, const serve::ServeResult& r);

    serve::DetectionService& service_;
    int fd_;
    sync::Mutex write_mu_{"WorkerServer::write_mu"};  ///< reader (pong/stats/error) vs resolver responses
    /// FIFO of submitted-but-unanswered requests. Every future resolves (the
    /// service guarantees it), so the resolver can wait on them in order;
    /// responses still carry their request id, so ordering is cosmetic.
    serve::BoundedQueue<Pending> pending_;
    std::atomic<bool> peer_gone_{false};  ///< stop writing after EPIPE
    std::uint64_t served_ = 0;
};

}  // namespace dronet::cluster
