// serve_worker — one worker process of the sharded serving tier.
//
// Spawned by the cluster Router (or started by hand and adopted via an
// AF_UNIX socketpair): builds its model, wraps a DetectionService in a
// WorkerServer, and serves the wire protocol on the connected socket passed
// with --fd until the router closes it or sends kShutdown.
//
// Usage:
//   serve_worker --fd N [--workers N] [--size S] [--model DroNet]
//                [--filter-scale F] [--capacity Q] [--batch B]
//                [--batch-timeout-us U] [--deadline-ms D] [--retries R]
//                [--gemm-threads N] [--int8]
//                [--score-threshold T]
//
// Model weights come from the pretrained checkpoint when present, otherwise
// from the seeded He initializer — build_model is deterministic, so every
// worker in a fleet serves identical weights either way and fleet results
// match a single in-process service frame for frame.
//
// SIGTERM/SIGINT trigger a graceful drain: the handler half-closes the
// router socket's read side, the reader loop sees clean EOF, and the
// resolver answers every accepted frame while the service's workers serve
// the queue; then the process exits 0 — so fleet orchestration can restart
// workers without stranding futures or tripping non-zero-exit alarms.
#include <signal.h>
#include <sys/socket.h>

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "cluster/worker.hpp"
#include "io/fdio.hpp"
#include "models/model_zoo.hpp"
#include "models/pretrained.hpp"
#include "serve/detection_service.hpp"
#include "tensor/gemm.hpp"

namespace {

struct Args {
    int fd = -1;
    int workers = 1;
    int size = 256;
    std::string model = "DroNet";
    float filter_scale = 1.0f;
    std::size_t capacity = 16;
    int batch = 1;
    std::int64_t batch_timeout_us = 0;
    std::int64_t deadline_ms = 0;
    int retries = 0;
    int gemm_threads = 1;
    bool int8 = false;
    float score_threshold = -1.0f;  ///< < 0: keep the pipeline default
};

/// Router socket fd for the signal handler; -1 until serving starts.
std::atomic<int> g_serve_fd{-1};

/// Async-signal-safe graceful drain: shutdown(SHUT_RD) unblocks the reader's
/// read_full with a clean EOF, after which run() drains and returns normally.
extern "C" void on_terminate_signal(int /*signo*/) {
    const int fd = g_serve_fd.load(std::memory_order_relaxed);
    if (fd >= 0) ::shutdown(fd, SHUT_RD);
}

Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
            return argv[++i];
        };
        if (a == "--fd") args.fd = std::stoi(next());
        else if (a == "--workers") args.workers = std::stoi(next());
        else if (a == "--size") args.size = std::stoi(next());
        else if (a == "--model") args.model = next();
        else if (a == "--filter-scale") args.filter_scale = std::stof(next());
        else if (a == "--capacity") args.capacity = static_cast<std::size_t>(std::stoul(next()));
        else if (a == "--batch") args.batch = std::stoi(next());
        else if (a == "--batch-timeout-us") args.batch_timeout_us = std::stoll(next());
        else if (a == "--deadline-ms") args.deadline_ms = std::stoll(next());
        else if (a == "--retries") args.retries = std::stoi(next());
        else if (a == "--gemm-threads") args.gemm_threads = std::stoi(next());
        else if (a == "--int8") args.int8 = true;
        else if (a == "--score-threshold") args.score_threshold = std::stof(next());
        else throw std::runtime_error("unknown flag " + a);
    }
    if (args.fd < 0) throw std::runtime_error("--fd is required");
    return args;
}

/// The network the service clones its reference and replicas from. The
/// service is built from it as a temporary, so the process serves holding
/// two networks (reference and replica), not a third idle copy.
dronet::Network build_prototype(const Args& args) {
    using namespace dronet;
    const ModelId id = model_from_string(args.model);
    Network net = [&] {
        if (args.filter_scale == 1.0f) {
            if (auto pre = load_pretrained(id, args.size)) return std::move(*pre);
        }
        return build_model(id, {.input_size = args.size,
                                .filter_scale = args.filter_scale});
    }();
    net.set_batch(1);
    if (net.config().width != args.size) net.resize_input(args.size, args.size);
    return net;
}

int run(int argc, char** argv) {
    using namespace dronet;
    const Args args = parse_args(argc, argv);
    set_gemm_threads(args.gemm_threads);

    serve::ServiceConfig sc;
    sc.workers = args.workers;
    sc.queue_capacity = args.capacity;
    sc.policy = serve::BackpressurePolicy::kBlock;
    sc.max_batch = args.batch;
    sc.batch_timeout_us = args.batch_timeout_us;
    sc.precision = args.int8 ? Precision::kInt8 : Precision::kF32;
    sc.deadline_ms = args.deadline_ms;
    sc.max_retries = args.retries;
    if (args.score_threshold >= 0.0f) {
        sc.pipeline.eval.score_threshold = args.score_threshold;
    }
    serve::DetectionService service(build_prototype(args), sc);

    g_serve_fd.store(args.fd, std::memory_order_relaxed);
    struct sigaction sa = {};
    sa.sa_handler = on_terminate_signal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);

    cluster::WorkerServer server(service, args.fd);
    const std::uint64_t served = server.run();
    service.stop();
    std::fprintf(stderr, "# serve_worker: served %llu requests\n",
                 static_cast<unsigned long long>(served));
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "serve_worker: error: %s\n", e.what());
        return 1;
    }
}
