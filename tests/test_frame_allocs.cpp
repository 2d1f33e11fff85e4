// Steady-state heap allocations on the frame path, counted.
//
// This binary replaces the global operator new/delete to count allocations
// of at least 64 KB: one 320x240 RGB float frame is 900 KB and the 128x128
// network input 192 KB, while per-frame bookkeeping (futures, map nodes,
// detection vectors, small wire payloads) stays far below. After a warm-up
// each path serves a few frames, and its count must be:
//   * Detector::detect: none;
//   * a DetectionService: none beyond the frames submitted;
//   * Router::submit to a fake worker: none beyond the caller's frame;
//   * a WorkerServer: exactly one per detect request, the Image its pixels
//     are read into.
// A sanitizer's allocator sees these calls too and makes the counts
// meaningless, so the test carries the `alloc-count` label, which
// scripts/run_all.sh runs in the plain tree and excludes from the sanitized
// ones.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <new>
#include <system_error>
#include <thread>
#include <vector>

#include "cluster/protocol.hpp"
#include "cluster/router.hpp"
#include "cluster/worker.hpp"
#include "core/detector.hpp"
#include "io/fdio.hpp"
#include "models/model_zoo.hpp"
#include "serve/detection_service.hpp"

namespace {

constexpr std::size_t kBigBytes = 64 * 1024;
std::atomic<std::uint64_t> g_big_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
    if (n >= kBigBytes) g_big_allocs.fetch_add(1, std::memory_order_relaxed);
    if (n == 0) n = 1;
    void* p = align <= alignof(std::max_align_t)
                  ? std::malloc(n)
                  : std::aligned_alloc(align, (n + align - 1) / align * align);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

void* counted_alloc_nothrow(std::size_t n, std::size_t align) noexcept {
    try {
        return counted_alloc(n, align);
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
    return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
    return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    return counted_alloc_nothrow(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    return counted_alloc_nothrow(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
    return counted_alloc_nothrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
    return counted_alloc_nothrow(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
    std::free(p);
}

namespace dronet {
namespace {

using cluster::Frame;
using cluster::Opcode;
using serve::ServeResult;
using serve::ServeStatus;

constexpr int kInput = 128;
constexpr int kFrames = 8;

std::uint64_t big_allocs() { return g_big_allocs.load(std::memory_order_relaxed); }

/// A camera frame that must be resized to the network input.
Image camera_frame() {
    Image img(320, 240, 3);
    for (std::size_t i = 0; i < img.size(); ++i) {
        img.data()[i] = static_cast<float>(i % 251) / 251.0f;
    }
    return img;
}

Network small_dronet() {
    return build_model(ModelId::kDroNet, {.input_size = kInput, .filter_scale = 0.25f});
}

serve::ServiceConfig batching_config(int workers) {
    serve::ServiceConfig sc;
    sc.workers = workers;
    sc.max_batch = 4;
    sc.batch_timeout_us = 1000;
    return sc;
}

struct SocketPair {
    io::UniqueFd a;
    io::UniqueFd b;
    SocketPair() {
        int sv[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
            throw std::system_error(errno, std::generic_category(), "socketpair");
        }
        a.reset(sv[0]);
        b.reset(sv[1]);
    }
};

/// Submits `n` copies of `frame` through `submit` and waits for every one to
/// come back kOk.
template <typename Submit>
void serve_frames(const Image& frame, int n, Submit submit) {
    std::vector<std::future<ServeResult>> futures;
    futures.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) futures.push_back(submit(frame));
    for (auto& f : futures) ASSERT_EQ(f.get().status, ServeStatus::kOk);
}

TEST(FrameAllocs, DetectorDetectAllocatesNone) {
    Detector::Options options;
    options.input_size = kInput;
    options.filter_scale = 0.25f;
    Detector detector(options);
    const Image frame = camera_frame();
    for (int i = 0; i < 2; ++i) (void)detector.detect(frame);
    const std::uint64_t before = big_allocs();
    for (int i = 0; i < kFrames; ++i) (void)detector.detect(frame);
    EXPECT_EQ(big_allocs() - before, 0u);
}

TEST(FrameAllocs, ServiceAllocatesNoneBeyondSubmittedFrames) {
    serve::DetectionService service(small_dronet(), batching_config(2));
    const Image frame = camera_frame();
    const auto submit = [&](const Image& f) { return service.submit(f); };
    serve_frames(frame, 4 * kFrames, submit);
    const std::uint64_t before = big_allocs();
    serve_frames(frame, kFrames, submit);  // each submit copies the frame once
    EXPECT_EQ(big_allocs() - before, static_cast<std::uint64_t>(kFrames));
    service.stop();
}

/// Answers every detect request with an empty kOk result and every ping with
/// a pong, reading into one reused Frame.
void fake_worker(int fd) {
    const std::vector<std::uint8_t> ok = cluster::encode_detect_response({});
    const std::vector<std::uint8_t> pong = cluster::encode_pong({});
    try {
        Frame f;
        while (cluster::read_frame(fd, f)) {
            switch (static_cast<Opcode>(f.header.opcode)) {
                case Opcode::kDetectRequest:
                    cluster::write_frame(fd, Opcode::kDetectResponse, f.header.request_id, ok);
                    break;
                case Opcode::kPing:
                    cluster::write_frame(fd, Opcode::kPong, f.header.request_id, pong);
                    break;
                case Opcode::kShutdown:
                    cluster::write_frame(fd, Opcode::kShutdownAck, 0, nullptr, 0);
                    return;
                default:
                    break;
            }
        }
    } catch (const std::exception&) {
        // The router severed the connection.
    }
}

TEST(FrameAllocs, RouterSubmitAllocatesNoneBeyondTheCallersFrame) {
    SocketPair sp;
    std::thread worker(fake_worker, sp.b.get());
    {
        cluster::RouterConfig rc;
        rc.adopt_fds = {sp.a.release()};
        rc.worker_inflight_limit = 4;
        cluster::Router router(rc);
        const Image frame = camera_frame();
        // Router::submit takes its frame by value: the copy is the caller's.
        const auto submit = [&](const Image& f) { return router.submit(1, f); };
        serve_frames(frame, kFrames, submit);
        const std::uint64_t before = big_allocs();
        serve_frames(frame, kFrames, submit);
        EXPECT_EQ(big_allocs() - before, static_cast<std::uint64_t>(kFrames));
        router.stop();
    }
    worker.join();
}

/// The bytes of `n` detect requests for `frame`, as a router sends them.
std::vector<std::uint8_t> request_stream(const Image& frame, int n, std::uint64_t first_id) {
    const std::vector<std::uint8_t> payload = cluster::encode_detect_request(frame);
    cluster::FrameHeader h;
    h.opcode = static_cast<std::uint16_t>(Opcode::kDetectRequest);
    h.payload_bytes = static_cast<std::uint32_t>(payload.size());
    std::vector<std::uint8_t> bytes;
    for (int i = 0; i < n; ++i) {
        h.request_id = first_id + static_cast<std::uint64_t>(i);
        const auto* hp = reinterpret_cast<const std::uint8_t*>(&h);
        bytes.insert(bytes.end(), hp, hp + sizeof(h));
        bytes.insert(bytes.end(), payload.begin(), payload.end());
    }
    return bytes;
}

TEST(FrameAllocs, WorkerServerAllocatesOnlyTheDecodedFrame) {
    serve::DetectionService service(small_dronet(), batching_config(1));
    SocketPair sp;
    std::thread worker([&, fd = sp.b.get()] {
        cluster::WorkerServer server(service, fd);
        (void)server.run();
        sp.b.reset();  // our side of the hang-up, after the ack
    });
    const Image frame = camera_frame();
    const std::vector<std::uint8_t> warm = request_stream(frame, 2 * kFrames, 1);
    const std::vector<std::uint8_t> measured = request_stream(frame, kFrames, 1000);
    Frame reply;
    const auto send_and_answer = [&](const std::vector<std::uint8_t>& bytes, int n) {
        std::thread writer([&] { io::write_full(sp.a.get(), bytes.data(), bytes.size()); });
        for (int i = 0; i < n; ++i) {
            ASSERT_TRUE(cluster::read_frame(sp.a.get(), reply));
            ASSERT_EQ(static_cast<Opcode>(reply.header.opcode), Opcode::kDetectResponse);
        }
        writer.join();
    };
    send_and_answer(warm, 2 * kFrames);
    const std::uint64_t before = big_allocs();
    send_and_answer(measured, kFrames);
    EXPECT_EQ(big_allocs() - before, static_cast<std::uint64_t>(kFrames));
    cluster::write_frame(sp.a.get(), Opcode::kShutdown, 0, nullptr, 0);
    while (cluster::read_frame(sp.a.get(), reply)) {
    }
    worker.join();
    service.stop();
}

}  // namespace
}  // namespace dronet
