// Tests for the sharded serving tier (src/cluster): wire-protocol codecs and
// framing, the WorkerServer loop over a real socketpair, and the Router —
// dispatch, its books (frame indices, drain), retry-on-worker-loss, the
// eject/half-open/re-admit breaker, and spawned serve_worker processes end
// to end. These carry the `cluster` ctest label; scripts/run_all.sh re-runs
// them under AddressSanitizer. The worker-kill chaos runs live in
// test_cluster_chaos.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/protocol.hpp"
#include "cluster/router.hpp"
#include "cluster/worker.hpp"
#include "data/dataset.hpp"
#include "io/fdio.hpp"
#include "models/model_zoo.hpp"
#include "nn/clone.hpp"
#include "nn/conv_layer.hpp"
#include "nn/weights_io.hpp"
#include "serve/detection_service.hpp"
#include "tensor/rng.hpp"
#include "video/pipeline.hpp"

#ifndef DRONET_SERVE_WORKER_PATH
#define DRONET_SERVE_WORKER_PATH ""
#endif

namespace dronet {
namespace {

using cluster::Frame;
using cluster::Opcode;
using serve::ServeResult;
using serve::ServeStatus;

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

PipelineConfig low_threshold_pipeline() {
    // Near-zero threshold so random-weight networks emit detections and the
    // end-to-end comparisons below are non-vacuous without checkpoints.
    PipelineConfig pc;
    pc.eval.score_threshold = 5e-4f;
    pc.eval.nms_threshold = 0.45f;
    return pc;
}

Image patterned_image(int w, int h, int c, float scale) {
    Image img(w, h, c);
    for (std::size_t i = 0; i < img.size(); ++i) {
        img.data()[i] = scale * static_cast<float>(i % 97) / 97.0f;
    }
    return img;
}

void randomize_params(Network& net, std::uint64_t seed) {
    Rng rng(seed);
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
        for (Param* p : net.layer(static_cast<int>(i)).params()) {
            rng.fill_uniform(p->v, -1.0f, 1.0f);
        }
        if (auto* conv = dynamic_cast<ConvolutionalLayer*>(
                &net.layer(static_cast<int>(i)))) {
            if (conv->config().batch_normalize) {
                rng.fill_uniform(conv->rolling_mean(), -0.5f, 0.5f);
                rng.fill_uniform(conv->rolling_variance(), 0.5f, 1.5f);
            }
        }
    }
}

/// A same-architecture checkpoint with different (seeded) weights — the
/// rollout candidate. Spawned serve_worker processes at the same size and
/// filter scale build the identical deterministic model, so the candidate is
/// loadable by every worker in the fleet. It is saved as
/// `<temp dir>/<name>.<pid>.weights` (per process: ctest runs test_cluster
/// and test_cluster_inproc, one binary with two filters, concurrently) and
/// removed when it goes out of scope, a failed ASSERT included.
struct PerturbedCheckpoint {
    std::filesystem::path path;

    PerturbedCheckpoint(const Network& live, const char* name, std::uint64_t seed)
        : path(std::filesystem::temp_directory_path() /
               (std::string(name) + "." + std::to_string(::getpid()) + ".weights")) {
        Network cand = clone_network(live);
        randomize_params(cand, seed);
        save_weights(cand, path);
    }
    ~PerturbedCheckpoint() {
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }
    PerturbedCheckpoint(const PerturbedCheckpoint&) = delete;
    PerturbedCheckpoint& operator=(const PerturbedCheckpoint&) = delete;
};

// ---- protocol ---------------------------------------------------------------

TEST(Protocol, FrameRoundTripOverSocketpair) {
    SocketPair sp;
    const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 251};
    cluster::write_frame(sp.a.get(), Opcode::kDetectRequest, 42, payload);
    Frame f;
    ASSERT_TRUE(cluster::read_frame(sp.b.get(), f));
    EXPECT_EQ(f.header.magic, cluster::kMagic);
    EXPECT_EQ(f.header.version, cluster::kProtocolVersion);
    EXPECT_EQ(static_cast<Opcode>(f.header.opcode), Opcode::kDetectRequest);
    EXPECT_EQ(f.header.request_id, 42u);
    EXPECT_EQ(f.payload, payload);
}

TEST(Protocol, CleanEofReturnsFalseMidFrameEofThrows) {
    {
        SocketPair sp;
        sp.a.reset();  // peer closed without writing
        Frame f;
        EXPECT_FALSE(cluster::read_frame(sp.b.get(), f));
    }
    {
        SocketPair sp;
        const std::uint8_t half_header[10] = {};
        io::write_full(sp.a.get(), half_header, sizeof(half_header));
        sp.a.reset();  // EOF inside the header
        Frame f;
        EXPECT_THROW((void)cluster::read_frame(sp.b.get(), f), std::runtime_error);
    }
}

TEST(Protocol, RejectsBadMagicAndBadVersion) {
    {
        SocketPair sp;
        cluster::FrameHeader h;
        h.magic = 0xdeadbeef;
        io::write_full(sp.a.get(), &h, sizeof(h));
        Frame f;
        EXPECT_THROW((void)cluster::read_frame(sp.b.get(), f), std::runtime_error);
    }
    {
        SocketPair sp;
        cluster::FrameHeader h;
        h.version = cluster::kProtocolVersion + 1;
        io::write_full(sp.a.get(), &h, sizeof(h));
        Frame f;
        EXPECT_THROW((void)cluster::read_frame(sp.b.get(), f), std::runtime_error);
    }
}

TEST(Protocol, DetectRequestRoundTripPreservesPixels) {
    const Image img = patterned_image(17, 11, 3, 1.0f);
    const Image back = cluster::decode_detect_request(cluster::encode_detect_request(img));
    ASSERT_EQ(back.width(), 17);
    ASSERT_EQ(back.height(), 11);
    ASSERT_EQ(back.channels(), 3);
    ASSERT_EQ(back.size(), img.size());
    EXPECT_EQ(std::memcmp(back.data(), img.data(), img.size() * sizeof(float)), 0);
}

/// Every byte a peer sends on `fd` until it closes, read in `chunk`-byte
/// reads.
std::vector<std::uint8_t> drain(int fd, std::size_t chunk) {
    std::vector<std::uint8_t> got;
    std::vector<std::uint8_t> buf(chunk);
    for (;;) {
        const ssize_t n = ::read(fd, buf.data(), buf.size());
        if (n <= 0) return got;
        got.insert(got.end(), buf.begin(), buf.begin() + n);
    }
}

std::vector<std::uint8_t> encoded_request_bytes(std::uint64_t id, const Image& img) {
    SocketPair sp;
    std::vector<std::uint8_t> got;
    std::thread reader([&] { got = drain(sp.b.get(), 1 << 16); });
    cluster::write_frame(sp.a.get(), Opcode::kDetectRequest, id,
                         cluster::encode_detect_request(img));
    sp.a.reset();
    reader.join();
    return got;
}

TEST(Protocol, WriteDetectRequestIsByteIdenticalToEncodedFrame) {
    for (const Image& img : {patterned_image(17, 11, 3, 1.0f),
                             patterned_image(1, 1, 1, 0.5f),
                             patterned_image(160, 120, 3, 1.0f)}) {
        SocketPair sp;
        std::vector<std::uint8_t> got;
        std::thread reader([&] { got = drain(sp.b.get(), 1 << 16); });
        cluster::write_detect_request(sp.a.get(), 77, img);
        sp.a.reset();
        reader.join();
        EXPECT_EQ(got, encoded_request_bytes(77, img)) << img.width() << "x" << img.height();
    }
}

TEST(Protocol, WriteDetectRequestSurvivesSmallChunkReader) {
    // A tiny send buffer and a reader taking 13 bytes at a time: the gather
    // write returns short again and again, across the boundary between two
    // requests too, and must resume each time where it stopped. (Short
    // writes ending inside every kind of part: Fdio.GatherWriteFull*.)
    const Image img = patterned_image(61, 29, 3, 1.0f);
    SocketPair sp;
    const int small = 4096;
    ASSERT_EQ(::setsockopt(sp.a.get(), SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)), 0);
    std::vector<std::uint8_t> got;
    std::thread reader([&] { got = drain(sp.b.get(), 13); });
    cluster::write_detect_request(sp.a.get(), 5, img);
    cluster::write_detect_request(sp.a.get(), 6, img);
    sp.a.reset();
    reader.join();
    std::vector<std::uint8_t> want = encoded_request_bytes(5, img);
    const std::vector<std::uint8_t> second = encoded_request_bytes(6, img);
    want.insert(want.end(), second.begin(), second.end());
    EXPECT_EQ(got, want);
}

/// A detect-request payload with the given geometry and `pixel_bytes` of
/// pixels, whether or not the two agree.
std::vector<std::uint8_t> detect_payload(std::uint16_t w, std::uint16_t h, std::uint16_t c,
                                         std::size_t pixel_bytes) {
    std::vector<std::uint8_t> payload(8 + pixel_bytes, 0x3f);
    const std::uint16_t geometry[4] = {w, h, c, 0};
    std::memcpy(payload.data(), geometry, sizeof(geometry));
    return payload;
}

struct BadGeometry {
    const char* name;
    std::vector<std::uint8_t> payload;
    const char* error;
};

/// Geometries that disagree with the payload length: short, long, zero, and
/// sizes whose product is far past any payload.
std::vector<BadGeometry> bad_geometries() {
    const std::size_t px = 8 * 8 * 3 * sizeof(float);
    return {
        {"short", detect_payload(8, 8, 3, px - 4), "truncated"},
        {"long", detect_payload(8, 8, 3, px + 4), "trailing"},
        {"zero", detect_payload(0, 8, 3, px), "empty geometry"},
        {"huge", detect_payload(65535, 65535, 65535, 64), "truncated"},
        {"no geometry", {1, 2, 3}, "truncated"},
    };
}

TEST(Protocol, DirectReaderConsumesBadGeometryAndStaysInStep) {
    const Image good = patterned_image(8, 8, 3, 1.0f);
    for (const BadGeometry& bad : bad_geometries()) {
        SocketPair sp;
        cluster::write_frame(sp.a.get(), Opcode::kDetectRequest, 1, bad.payload);
        cluster::write_detect_request(sp.a.get(), 2, good);
        cluster::FrameHeader h;
        ASSERT_TRUE(cluster::read_header(sp.b.get(), h));
        try {
            (void)cluster::read_detect_request(sp.b.get(), h);
            ADD_FAILURE() << bad.name << ": accepted";
        } catch (const cluster::BadRequest& e) {
            EXPECT_NE(std::string(e.what()).find(bad.error), std::string::npos)
                << bad.name << ": " << e.what();
        }
        // The codec applies the same check to the same bytes.
        EXPECT_THROW((void)cluster::decode_detect_request(bad.payload), cluster::BadRequest)
            << bad.name;
        ASSERT_TRUE(cluster::read_header(sp.b.get(), h)) << bad.name;
        EXPECT_EQ(h.request_id, 2u);
        const Image back = cluster::read_detect_request(sp.b.get(), h);
        ASSERT_EQ(back.size(), good.size());
        EXPECT_EQ(std::memcmp(back.data(), good.data(), good.size() * sizeof(float)), 0)
            << bad.name;
    }
}

TEST(Protocol, DetectResponseRoundTripPreservesEverything) {
    cluster::WireDetectResult r;
    r.status = ServeStatus::kFailed;
    r.frame_index = -7;
    r.timings.queue_wait_ms = 1.5;
    r.timings.preprocess_ms = 0.25;
    r.timings.forward_ms = 12.75;
    r.timings.postprocess_ms = 0.125;
    Detection d;
    d.box = {0.1f, 0.2f, 0.3f, 0.4f};
    d.objectness = 0.9f;
    d.class_prob = 0.8f;
    d.class_id = 3;
    r.detections = {d, d};
    r.error = "forward failed: injected";
    const cluster::WireDetectResult back =
        cluster::decode_detect_response(cluster::encode_detect_response(r));
    EXPECT_EQ(back.status, r.status);
    EXPECT_EQ(back.frame_index, r.frame_index);
    EXPECT_DOUBLE_EQ(back.timings.forward_ms, r.timings.forward_ms);
    ASSERT_EQ(back.detections.size(), 2u);
    EXPECT_FLOAT_EQ(back.detections[1].box.w, 0.3f);
    EXPECT_EQ(back.detections[1].class_id, 3);
    EXPECT_EQ(back.error, r.error);
}

TEST(Protocol, PongStatsAndErrorRoundTrip) {
    const cluster::WorkerGauges g{3, 2, 12345};
    const cluster::WorkerGauges gb = cluster::decode_pong(cluster::encode_pong(g));
    EXPECT_EQ(gb.queue_depth, 3u);
    EXPECT_EQ(gb.in_flight, 2u);
    EXPECT_EQ(gb.uptime_ms, 12345u);

    serve::ServeStats stats;
    stats.record_submitted();
    stats.record_completed({.queue_wait_ms = 1, .preprocess_ms = 1,
                            .forward_ms = 5, .postprocess_ms = 1});
    serve::ServeStatsSnapshot snap = stats.snapshot();
    snap.queue_depth = 4;
    snap.in_flight = 1;
    snap.uptime_ms = 99;
    const cluster::WireStats ws =
        cluster::decode_stats_response(cluster::encode_stats_response(snap));
    EXPECT_EQ(ws.submitted, 1u);
    EXPECT_EQ(ws.completed, 1u);
    EXPECT_EQ(ws.gauges.queue_depth, 4u);
    EXPECT_EQ(ws.gauges.uptime_ms, 99u);
    EXPECT_EQ(ws.json, snap.to_json());

    EXPECT_EQ(cluster::decode_error(cluster::encode_error("boom")), "boom");
}

TEST(Protocol, TruncatedPayloadDecodesAsError) {
    cluster::WireDetectResult r;
    r.detections.resize(3);
    std::vector<std::uint8_t> payload = cluster::encode_detect_response(r);
    payload.resize(payload.size() / 2);
    EXPECT_THROW((void)cluster::decode_detect_response(payload), std::runtime_error);
    EXPECT_THROW((void)cluster::decode_pong({1, 2, 3}), std::runtime_error);
    EXPECT_THROW((void)cluster::decode_detect_request({0, 0}), std::runtime_error);
}

// ---- WorkerServer over a live socketpair ------------------------------------

/// A WorkerServer serving `service` over `fd` on its own thread. It keeps
/// what run() returned or threw, and when run() returns it shuts its end for
/// writing, so the peer reads EOF after the last reply. The destructor shuts
/// the socket down and joins: neither a stream error nor an ASSERT_* that
/// returns early can end the binary in std::terminate.
class ServerThread {
  public:
    ServerThread(serve::DetectionService& service, io::UniqueFd fd)
        : fd_(std::move(fd)), thread_([this, &service] {
              try {
                  cluster::WorkerServer server(service, fd_.get());
                  served_ = server.run();
              } catch (const std::exception& e) {
                  error_ = e.what();
              } catch (...) {
                  error_ = "unknown exception";
              }
              ::shutdown(fd_.get(), SHUT_WR);
          }) {}
    ~ServerThread() {
        ::shutdown(fd_.get(), SHUT_RDWR);
        join();
    }
    ServerThread(const ServerThread&) = delete;
    ServerThread& operator=(const ServerThread&) = delete;

    void join() {
        if (thread_.joinable()) thread_.join();
    }
    /// What run() returned, once it has.
    std::uint64_t served() {
        join();
        return served_;
    }
    /// What run() threw, once it has; empty when it returned.
    std::string error() {
        join();
        return error_;
    }

  private:
    io::UniqueFd fd_;
    std::uint64_t served_ = 0;
    std::string error_;
    std::thread thread_;
};

TEST(WorkerServer, ServesDetectPingStatsAndShutdownAck) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.pipeline = low_threshold_pipeline();
    serve::DetectionService service(net, sc);

    SocketPair sp;
    ServerThread server(service, std::move(sp.b));

    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(64), 2, /*seed=*/3);
    cluster::write_frame(sp.a.get(), Opcode::kDetectRequest, 101,
                         cluster::encode_detect_request(frames.image(0)));
    cluster::write_frame(sp.a.get(), Opcode::kDetectRequest, 102,
                         cluster::encode_detect_request(frames.image(1)));
    cluster::write_frame(sp.a.get(), Opcode::kPing, 103, nullptr, 0);
    cluster::write_frame(sp.a.get(), Opcode::kStatsRequest, 104, nullptr, 0);
    cluster::write_frame(sp.a.get(), Opcode::kShutdown, 0, nullptr, 0);

    std::map<std::uint64_t, Opcode> replies;
    bool got_ack = false;
    Frame f;
    while (cluster::read_frame(sp.a.get(), f)) {
        const auto op = static_cast<Opcode>(f.header.opcode);
        if (op == Opcode::kShutdownAck) {
            got_ack = true;
        } else {
            replies[f.header.request_id] = op;
            if (op == Opcode::kDetectResponse) {
                const cluster::WireDetectResult r =
                    cluster::decode_detect_response(f.payload);
                EXPECT_EQ(r.status, ServeStatus::kOk);
            }
        }
    }
    EXPECT_EQ(server.served(), 2u);
    EXPECT_EQ(server.error(), "");
    service.stop();
    EXPECT_TRUE(got_ack);
    ASSERT_EQ(replies.size(), 4u);
    EXPECT_EQ(replies[101], Opcode::kDetectResponse);
    EXPECT_EQ(replies[102], Opcode::kDetectResponse);
    EXPECT_EQ(replies[103], Opcode::kPong);
    EXPECT_EQ(replies[104], Opcode::kStatsResponse);
}

TEST(WorkerServer, MalformedDetectRequestGetsErrorReply) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    serve::ServiceConfig sc;
    sc.workers = 1;
    serve::DetectionService service(net, sc);

    SocketPair sp;
    ServerThread server(service, std::move(sp.b));
    cluster::write_frame(sp.a.get(), Opcode::kDetectRequest, 7,
                         std::vector<std::uint8_t>{1, 2, 3});  // truncated
    cluster::write_frame(sp.a.get(), Opcode::kShutdown, 0, nullptr, 0);
    bool got_error = false;
    Frame f;
    while (cluster::read_frame(sp.a.get(), f)) {
        if (static_cast<Opcode>(f.header.opcode) == Opcode::kError &&
            f.header.request_id == 7) {
            got_error = true;
            EXPECT_NE(cluster::decode_error(f.payload).find("truncated"),
                      std::string::npos);
        }
    }
    EXPECT_EQ(server.error(), "");
    service.stop();
    EXPECT_TRUE(got_error);
}

TEST(WorkerServer, BadGeometryIsAnsweredAndTheNextRequestServed) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    serve::ServiceConfig sc;
    sc.workers = 1;
    serve::DetectionService service(net, sc);

    SocketPair sp;
    ServerThread server(service, std::move(sp.b));
    const std::vector<BadGeometry> cases = bad_geometries();
    const Image good = patterned_image(16, 16, 3, 1.0f);
    std::uint64_t id = 1;
    for (const BadGeometry& bad : cases) {
        cluster::write_frame(sp.a.get(), Opcode::kDetectRequest, id++, bad.payload);
        cluster::write_detect_request(sp.a.get(), id++, good);
    }
    cluster::write_frame(sp.a.get(), Opcode::kShutdown, 0, nullptr, 0);
    std::map<std::uint64_t, Frame> replies;
    Frame f;
    while (cluster::read_frame(sp.a.get(), f)) {
        if (static_cast<Opcode>(f.header.opcode) != Opcode::kShutdownAck) {
            replies[f.header.request_id] = f;
        }
    }
    EXPECT_EQ(server.served(), cases.size());
    EXPECT_EQ(server.error(), "");
    service.stop();
    ASSERT_EQ(replies.size(), 2 * cases.size());
    id = 1;
    for (const BadGeometry& bad : cases) {
        const Frame& err = replies[id++];
        ASSERT_EQ(static_cast<Opcode>(err.header.opcode), Opcode::kError) << bad.name;
        EXPECT_NE(cluster::decode_error(err.payload).find(bad.error), std::string::npos)
            << bad.name;
        const Frame& ok = replies[id++];
        ASSERT_EQ(static_cast<Opcode>(ok.header.opcode), Opcode::kDetectResponse)
            << bad.name;
        EXPECT_EQ(cluster::decode_detect_response(ok.payload).status, ServeStatus::kOk);
    }
}

TEST(WorkerServer, UnsupportedChannelCountGetsErrorReply) {
    // The wire decodes any channel count; the service resolves a frame it
    // cannot preprocess with an exception. The worker must answer it kError
    // and keep serving, not let the exception abort the process.
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    serve::ServiceConfig sc;
    sc.workers = 1;
    serve::DetectionService service(net, sc);

    SocketPair sp;
    ServerThread server(service, std::move(sp.b));
    cluster::write_frame(sp.a.get(), Opcode::kDetectRequest, 11,
                         cluster::encode_detect_request(patterned_image(8, 8, 2, 1.0f)));
    cluster::write_frame(sp.a.get(), Opcode::kDetectRequest, 12,
                         cluster::encode_detect_request(patterned_image(8, 8, 3, 1.0f)));
    cluster::write_frame(sp.a.get(), Opcode::kShutdown, 0, nullptr, 0);
    std::map<std::uint64_t, Opcode> replies;
    std::string error;
    bool got_ack = false;
    Frame f;
    while (cluster::read_frame(sp.a.get(), f)) {
        const auto op = static_cast<Opcode>(f.header.opcode);
        if (op == Opcode::kShutdownAck) {
            got_ack = true;
            continue;
        }
        replies[f.header.request_id] = op;
        if (op == Opcode::kError) error = cluster::decode_error(f.payload);
    }
    EXPECT_EQ(server.error(), "");
    service.stop();
    EXPECT_EQ(replies[11], Opcode::kError);
    EXPECT_NE(error.find("channels"), std::string::npos) << error;
    EXPECT_EQ(replies[12], Opcode::kDetectResponse);
    EXPECT_TRUE(got_ack);
}

TEST(WorkerServer, ReloadSwapsRollsBackAndRejectsBadCandidates) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    const PerturbedCheckpoint cand(net, "dronet_worker_reload", 0x31);
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.pipeline = low_threshold_pipeline();
    serve::DetectionService service(net, sc);

    SocketPair sp;
    ServerThread server(service, std::move(sp.b));

    auto roundtrip = [&](const cluster::WireReloadRequest& req,
                         std::uint64_t id) {
        cluster::write_frame(sp.a.get(), Opcode::kReloadRequest, id,
                             cluster::encode_reload_request(req));
        Frame f;
        while (cluster::read_frame(sp.a.get(), f)) {
            if (static_cast<Opcode>(f.header.opcode) == Opcode::kReloadResponse &&
                f.header.request_id == id) {
                return cluster::decode_reload_response(f.payload);
            }
        }
        throw std::runtime_error("worker hung up before the reload reply");
    };

    // Commit the candidate, roll it back, then watch a bad path get rejected
    // with the live model untouched — all over the wire, each answered by
    // the worker's reader before it reads the next request.
    const cluster::WireReloadResponse swapped =
        roundtrip({.rollback = false, .weights_path = cand.path.string()}, 301);
    EXPECT_TRUE(swapped.ok) << swapped.error;
    EXPECT_EQ(swapped.model_version, 2u);
    const cluster::WireReloadResponse rolled =
        roundtrip({.rollback = true, .weights_path = ""}, 302);
    EXPECT_TRUE(rolled.ok) << rolled.error;
    EXPECT_EQ(rolled.model_version, 1u);
    const cluster::WireReloadResponse rejected = roundtrip(
        {.rollback = false, .weights_path = "/nonexistent/nope.weights"}, 303);
    EXPECT_FALSE(rejected.ok);
    EXPECT_FALSE(rejected.error.empty());
    EXPECT_EQ(rejected.model_version, 1u);

    cluster::write_frame(sp.a.get(), Opcode::kShutdown, 0, nullptr, 0);
    Frame f;
    while (cluster::read_frame(sp.a.get(), f)) {
    }
    EXPECT_EQ(server.error(), "");
    service.stop();
    EXPECT_EQ(service.model_version(), 1u);
}

// ---- a scriptable fake worker for deterministic Router tests ----------------

/// Speaks the wire protocol on one socketpair end but only answers when the
/// test says so: detect requests are held until release_all(), pings are
/// answered only while answer_pings is on (or held for answer_oldest_ping()
/// while hold_pings is on), stall_on_next_detect() stops it reading
/// mid-frame until resume(), and stall_on_shutdown() holds its ack until
/// resume(). That makes dispatch, retry, and breaker transitions
/// deterministic — no timing races on real compute.
class FakeWorker {
  public:
    explicit FakeWorker(io::UniqueFd fd)
        : fd_(std::move(fd)), thread_([this] { loop(); }) {}
    ~FakeWorker() {
        disconnect();
        resume();
        join();
    }

    void join() {
        if (thread_.joinable()) thread_.join();
    }

    /// Severs the connection abruptly, as a crashed worker process would.
    void disconnect() {
        if (fd_) ::shutdown(fd_.get(), SHUT_RDWR);
    }

    void set_answer_pings(bool v) { answer_pings_.store(v); }
    /// Keeps the ids of pings read from now on, answering none of them.
    void set_hold_pings(bool v) { hold_pings_.store(v); }

    /// Answers the oldest held ping; false when none is held.
    bool answer_oldest_ping() {
        std::uint64_t id = 0;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (held_pings_.empty()) return false;
            id = held_pings_.front();
            held_pings_.erase(held_pings_.begin());
        }
        std::lock_guard<std::mutex> wl(write_mu_);
        cluster::write_frame(fd_.get(), Opcode::kPong, id, cluster::encode_pong({}));
        return true;
    }

    /// Scripted verdict for subsequent reload requests (rollbacks always
    /// succeed, like the real service keeping prev_set_ around).
    void set_reload_ok(bool v) { reload_ok_.store(v); }
    /// Answers subsequent reload requests with an error frame carrying
    /// kReloadErrorText, as a worker answers a payload it cannot decode.
    void set_reload_error(bool v) { reload_error_.store(v); }
    static constexpr const char* kReloadErrorText = "cannot decode reload-request";
    int reload_requests() { return reload_requests_.load(); }
    int rollback_requests() { return rollback_requests_.load(); }

    std::size_t held() {
        std::lock_guard<std::mutex> lock(mu_);
        return held_.size();
    }

    /// The payload of every detect request read so far, in arrival order.
    std::vector<std::vector<std::uint8_t>> detect_payloads() {
        std::lock_guard<std::mutex> lock(mu_);
        return detect_payloads_;
    }

    /// The next detect request's header is read, then nothing more until
    /// resume(): a worker that stopped reading in the middle of a frame.
    void stall_on_next_detect() {
        std::lock_guard<std::mutex> lock(mu_);
        stall_armed_ = true;
    }
    /// On the shutdown, stalls until resume() before it writes the ack: a
    /// worker still busy after it read the shutdown. ack_sent() tells
    /// whether the ack then got through.
    void stall_on_shutdown() {
        std::lock_guard<std::mutex> lock(mu_);
        stall_shutdown_ = true;
    }
    bool ack_sent() { return ack_sent_.load(); }
    void resume() {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stall_armed_ = false;
            stall_shutdown_ = false;
            stalled_ = false;
        }
        stall_cv_.notify_all();
    }
    /// Waits until the armed stall has taken hold (generous deadline).
    [[nodiscard]] bool wait_for_stall() {
        std::unique_lock<std::mutex> lock(mu_);
        return stall_cv_.wait_for(lock, std::chrono::seconds(30),
                                  [&] { return stalled_; });
    }

    /// Answers every held detect request with an empty kOk result.
    void release_all() {
        std::vector<std::uint64_t> ids;
        {
            std::lock_guard<std::mutex> lock(mu_);
            ids.swap(held_);
        }
        cluster::WireDetectResult ok;
        const std::vector<std::uint8_t> payload = cluster::encode_detect_response(ok);
        std::lock_guard<std::mutex> wl(write_mu_);
        for (std::uint64_t id : ids) {
            cluster::write_frame(fd_.get(), Opcode::kDetectResponse, id, payload);
        }
    }

    /// Waits until `n` detect requests are held (generous deadline).
    [[nodiscard]] bool wait_for_held(std::size_t n,
                                     std::chrono::seconds deadline =
                                         std::chrono::seconds(30)) {
        const auto until = std::chrono::steady_clock::now() + deadline;
        while (std::chrono::steady_clock::now() < until) {
            if (held() >= n) return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return held() >= n;
    }

  private:
    void loop() {
        try {
            Frame f;
            while (cluster::read_header(fd_.get(), f.header)) {
                if (static_cast<Opcode>(f.header.opcode) == Opcode::kDetectRequest) {
                    std::unique_lock<std::mutex> lock(mu_);
                    if (stall_armed_) {
                        stalled_ = true;
                        stall_cv_.notify_all();
                        stall_cv_.wait(lock, [&] { return !stalled_; });
                    }
                }
                cluster::read_payload(fd_.get(), f);
                switch (static_cast<Opcode>(f.header.opcode)) {
                    case Opcode::kDetectRequest: {
                        std::lock_guard<std::mutex> lock(mu_);
                        held_.push_back(f.header.request_id);
                        detect_payloads_.push_back(f.payload);
                        break;
                    }
                    case Opcode::kPing:
                        if (hold_pings_.load()) {
                            std::lock_guard<std::mutex> lock(mu_);
                            held_pings_.push_back(f.header.request_id);
                        } else if (answer_pings_.load()) {
                            std::lock_guard<std::mutex> wl(write_mu_);
                            cluster::write_frame(fd_.get(), Opcode::kPong,
                                                 f.header.request_id,
                                                 cluster::encode_pong({}));
                        }
                        break;
                    case Opcode::kReloadRequest: {
                        if (reload_error_.load()) {
                            std::lock_guard<std::mutex> wl(write_mu_);
                            cluster::write_frame(fd_.get(), Opcode::kError,
                                                 f.header.request_id,
                                                 cluster::encode_error(kReloadErrorText));
                            break;
                        }
                        const cluster::WireReloadRequest req =
                            cluster::decode_reload_request(f.payload);
                        cluster::WireReloadResponse resp;
                        if (req.rollback) {
                            rollback_requests_.fetch_add(1);
                            resp.ok = true;
                            resp.model_version = 1;
                        } else {
                            reload_requests_.fetch_add(1);
                            resp.ok = reload_ok_.load();
                            resp.model_version = resp.ok ? 2 : 1;
                            if (!resp.ok) resp.error = "canary rejected candidate";
                        }
                        std::lock_guard<std::mutex> wl(write_mu_);
                        cluster::write_frame(fd_.get(), Opcode::kReloadResponse,
                                             f.header.request_id,
                                             cluster::encode_reload_response(resp));
                        break;
                    }
                    case Opcode::kShutdown: {
                        release_all();  // drain like a real worker would
                        {
                            std::unique_lock<std::mutex> lock(mu_);
                            if (stall_shutdown_) {
                                stalled_ = true;
                                stall_cv_.notify_all();
                                stall_cv_.wait(lock, [&] { return !stalled_; });
                            }
                        }
                        std::lock_guard<std::mutex> wl(write_mu_);
                        cluster::write_frame(fd_.get(), Opcode::kShutdownAck, 0,
                                             nullptr, 0);
                        ack_sent_.store(true);
                        return;
                    }
                    default:
                        break;  // stats requests left unanswered on purpose
                }
            }
        } catch (...) {
            // Disconnected mid-frame — exactly what disconnect() simulates.
        }
    }

    io::UniqueFd fd_;
    std::mutex mu_;
    std::condition_variable stall_cv_;
    bool stall_armed_ = false;
    bool stall_shutdown_ = false;
    bool stalled_ = false;
    std::vector<std::uint64_t> held_;
    std::vector<std::vector<std::uint8_t>> detect_payloads_;
    std::vector<std::uint64_t> held_pings_;
    std::mutex write_mu_;
    std::atomic<bool> answer_pings_{true};
    std::atomic<bool> hold_pings_{false};
    std::atomic<bool> reload_ok_{true};
    std::atomic<bool> reload_error_{false};
    std::atomic<bool> ack_sent_{false};
    std::atomic<int> reload_requests_{0};
    std::atomic<int> rollback_requests_{0};
    std::thread thread_;
};

cluster::RouterConfig adopt_config(std::vector<int> fds) {
    cluster::RouterConfig rc;
    rc.adopt_fds = std::move(fds);
    rc.health_interval_ms = 20;
    rc.health_timeout_ms = 200;
    return rc;
}

// ---- Router with adopted in-process workers ---------------------------------

TEST(Router, AdoptedWorkerEndToEndMatchesSerialPipeline) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    const PipelineConfig pc = low_threshold_pipeline();
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.pipeline = pc;
    serve::DetectionService service(net, sc);

    SocketPair sp;
    const int adopt_fd = sp.a.release();
    ServerThread server(service, std::move(sp.b));

    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(64), 6, /*seed=*/11);
    {
        cluster::Router router(adopt_config({adopt_fd}));
        std::vector<std::future<ServeResult>> futures;
        for (int i = 0; i < 6; ++i) {
            futures.push_back(router.submit(/*client_id=*/1 + (i % 2),
                                            frames.image(i)));
        }
        // Serial reference on a replica-equivalent path: the fleet must be
        // bit-identical to the in-process pipeline, wire transfer included.
        Network ref = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
        DetectionPipeline serial(ref, pc);
        for (int i = 0; i < 6; ++i) {
            const ServeResult r = futures[static_cast<std::size_t>(i)].get();
            ASSERT_EQ(r.status, ServeStatus::kOk) << "frame " << i;
            const Detections expected = serial.process(frames.image(i)).detections;
            ASSERT_EQ(r.frame.detections.size(), expected.size()) << "frame " << i;
            for (std::size_t d = 0; d < expected.size(); ++d) {
                EXPECT_EQ(std::memcmp(&r.frame.detections[d].box,
                                      &expected[d].box, sizeof(Box)), 0);
            }
        }
        const cluster::FleetStats fs = router.fleet_stats();
        EXPECT_TRUE(fs.accounting_ok()) << fs.to_json();
        EXPECT_EQ(fs.ok, 6u);
        ASSERT_EQ(fs.workers.size(), 1u);
        EXPECT_EQ(fs.workers[0].completed, 6u);
        EXPECT_NE(fs.to_json().find("\"aggregate\""), std::string::npos);
        router.stop();
    }
    EXPECT_EQ(server.error(), "");
    service.stop();
}

// drain() waits for the futures, not only the counters: every frame's
// promise is fulfilled in the same critical section that counts it. Each
// round holds its frames, releases them and drains while the replies are
// still arriving.
TEST(Router, DrainReturnsWithEveryFutureReady) {
    SocketPair sp;
    const int adopt_fd = sp.a.release();
    FakeWorker fake(std::move(sp.b));
    cluster::RouterConfig rc = adopt_config({adopt_fd});
    rc.worker_inflight_limit = 0;
    cluster::Router router(rc);

    const Image img = patterned_image(8, 8, 3, 1.0f);
    constexpr int kRounds = 50;
    constexpr int kFrames = 4;
    for (int round = 0; round < kRounds; ++round) {
        std::vector<std::future<ServeResult>> futures;
        for (int i = 0; i < kFrames; ++i) futures.push_back(router.submit(1, img));
        ASSERT_TRUE(fake.wait_for_held(kFrames));
        fake.release_all();
        router.drain();
        for (std::size_t i = 0; i < futures.size(); ++i) {
            ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
                      std::future_status::ready)
                << "round " << round << " frame " << i;
        }
    }
    const cluster::FleetStats fs = router.fleet_stats(/*timeout_ms=*/100);
    EXPECT_TRUE(fs.accounting_ok()) << fs.to_json();
    EXPECT_EQ(fs.ok, static_cast<std::uint64_t>(kRounds * kFrames));
    router.stop();
}

// One counter indexes every frame in submit order, whichever way it leaves:
// answered by a worker, failed at the wire limit, or shed.
TEST(Router, FrameIndicesFollowSubmissionOrder) {
    SocketPair sp;
    const int adopt_fd = sp.a.release();
    FakeWorker fake(std::move(sp.b));
    cluster::Router router(adopt_config({adopt_fd}));

    const Image img = patterned_image(8, 8, 3, 1.0f);
    std::future<ServeResult> dispatched0 = router.submit(1, img);
    std::future<ServeResult> too_wide = router.submit(2, Image(65536, 1, 3));
    std::future<ServeResult> dispatched2 = router.submit(1, img);
    ASSERT_TRUE(fake.wait_for_held(2));
    fake.release_all();
    router.drain();
    router.stop();
    std::future<ServeResult> shed = router.submit(3, img);  // after stop: kShutdown

    const ServeResult r0 = dispatched0.get();
    const ServeResult r1 = too_wide.get();
    const ServeResult r2 = dispatched2.get();
    const ServeResult r3 = shed.get();
    EXPECT_EQ(r0.status, ServeStatus::kOk);
    EXPECT_EQ(r1.status, ServeStatus::kFailed);
    EXPECT_EQ(r2.status, ServeStatus::kOk);
    EXPECT_EQ(r3.status, ServeStatus::kShutdown);
    EXPECT_EQ(r0.frame.frame_index, 0);
    EXPECT_EQ(r1.frame.frame_index, 1);
    EXPECT_EQ(r2.frame.frame_index, 2);
    EXPECT_EQ(r3.frame.frame_index, 3);
}

// Least-loaded dispatch: equal in-flight counts (and the fakes' zero queue
// gauges) tie to the lowest slot, so a burst alternates across the workers.
TEST(Router, LeastLoadedSpreadsEqualLoadAcrossWorkers) {
    SocketPair spa;
    SocketPair spb;
    const int fd_a = spa.a.release();
    const int fd_b = spb.a.release();
    FakeWorker fake_a(std::move(spa.b));
    FakeWorker fake_b(std::move(spb.b));
    cluster::RouterConfig rc = adopt_config({fd_a, fd_b});
    rc.worker_inflight_limit = 0;
    cluster::Router router(rc);

    const Image img = patterned_image(8, 8, 3, 1.0f);
    std::vector<std::future<ServeResult>> futures;
    for (int i = 0; i < 4; ++i) futures.push_back(router.submit(1, img));
    ASSERT_TRUE(fake_a.wait_for_held(2));
    ASSERT_TRUE(fake_b.wait_for_held(2));
    EXPECT_EQ(fake_a.held(), 2u);
    EXPECT_EQ(fake_b.held(), 2u);
    fake_a.release_all();
    fake_b.release_all();
    for (auto& f : futures) EXPECT_EQ(f.get().status, ServeStatus::kOk);
    router.stop();
}

TEST(Router, LostWorkerRetriesInflightFramesOnHealthyOne) {
    SocketPair spa;
    SocketPair spb;
    const int fd_a = spa.a.release();
    const int fd_b = spb.a.release();
    FakeWorker fake_a(std::move(spa.b));
    FakeWorker fake_b(std::move(spb.b));
    cluster::RouterConfig rc = adopt_config({fd_a, fd_b});
    rc.worker_inflight_limit = 0;
    rc.max_retries = 1;
    cluster::Router router(rc);

    const Image img = patterned_image(8, 8, 3, 1.0f);
    auto f0 = router.submit(1, img);  // slot 0 (fake_a)
    auto f1 = router.submit(1, img);  // slot 1 (fake_b)
    ASSERT_TRUE(fake_a.wait_for_held(1));
    ASSERT_TRUE(fake_b.wait_for_held(1));

    fake_a.disconnect();  // crash: its in-flight frame must move to fake_b
    ASSERT_TRUE(fake_b.wait_for_held(2));
    fake_b.release_all();
    EXPECT_EQ(f0.get().status, ServeStatus::kOk);
    EXPECT_EQ(f1.get().status, ServeStatus::kOk);
    const cluster::FleetStats fs = router.fleet_stats(/*timeout_ms=*/100);
    EXPECT_TRUE(fs.accounting_ok());
    EXPECT_EQ(fs.retried, 1u);
    EXPECT_EQ(fs.worker_deaths, 1u);
    EXPECT_EQ(fs.ok, 2u);
    router.stop();
}

// The router writes a request straight from the frame it keeps for
// re-dispatch. Here that write is stuck on a worker that stopped reading
// mid-frame; the health loop ejects the worker, the frame is re-dispatched,
// answered and resolved, and only then does the stuck write finish. The
// pending record and the write share the pixels, so the write never reads
// freed memory (which ASan cannot see: the kernel does the reading).
TEST(Router, StuckWriteKeepsPixelsAliveAcrossRedispatch) {
    SocketPair spa;
    SocketPair spb;
    const int fd_a = spa.a.release();
    const int fd_b = spb.a.release();
    FakeWorker fake_a(std::move(spa.b));
    FakeWorker fake_b(std::move(spb.b));
    cluster::RouterConfig rc = adopt_config({fd_a, fd_b});
    rc.worker_inflight_limit = 0;
    rc.max_retries = 1;
    rc.health_interval_ms = 10;
    rc.health_timeout_ms = 40;
    rc.eject_threshold = 2;
    rc.readmit_ms = 600000;  // stays ejected for the whole test
    cluster::Router router(rc);

    // 3 MB: far more than the socket buffers hold, so the write blocks.
    const Image frame = patterned_image(512, 512, 3, 1.0f);
    const std::vector<std::uint8_t> want = cluster::encode_detect_request(frame);
    fake_a.stall_on_next_detect();
    std::future<ServeResult> fut;
    std::thread submitter([&] { fut = router.submit(1, frame); });  // slot 0 first
    // A failed ASSERT below must still unstick the write and join, or the
    // joinable thread would end the whole binary.
    struct Unstick {
        FakeWorker& fake;
        std::thread& thread;
        ~Unstick() {
            fake.resume();
            if (thread.joinable()) thread.join();
        }
    } unstick{fake_a, submitter};
    ASSERT_TRUE(fake_a.wait_for_stall());
    // The stuck write holds slot 0's write lock; the health loop must not
    // queue behind it, so slot 0 goes overdue, is ejected and its frame
    // moves to slot 1.
    ASSERT_TRUE(fake_b.wait_for_held(1));
    EXPECT_EQ(router.worker_state(0), cluster::WorkerState::kEjected);
    fake_b.release_all();  // resolves the frame while the first write is stuck
    fake_a.resume();
    submitter.join();
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)), std::future_status::ready);
    EXPECT_EQ(fut.get().status, ServeStatus::kOk);
    ASSERT_TRUE(fake_a.wait_for_held(1));
    // The stale answer from slot 0 must not resolve anything a second time.
    fake_a.release_all();
    for (FakeWorker* fake : {&fake_a, &fake_b}) {
        const auto payloads = fake->detect_payloads();
        ASSERT_EQ(payloads.size(), 1u);
        ASSERT_EQ(payloads[0].size(), want.size());
        EXPECT_EQ(std::memcmp(payloads[0].data(), want.data(), want.size()), 0);
    }
    const cluster::FleetStats fs = router.fleet_stats(/*timeout_ms=*/100);
    EXPECT_TRUE(fs.accounting_ok()) << fs.to_json();
    EXPECT_EQ(fs.submitted, 1u);
    EXPECT_EQ(fs.ok, 1u);
    EXPECT_EQ(fs.retried, 1u);
    EXPECT_GE(fs.worker_ejects, 1u);
    EXPECT_EQ(fs.worker_deaths, 0u);
    router.stop();
}

/// Slot 0's first request write, 3 MB to a fake that stopped reading in the
/// middle of it, stays stuck until the fake resumes. The destructor resumes
/// it and joins the submitter, so a failed ASSERT still ends the test.
class StuckWrite {
  public:
    StuckWrite(cluster::Router& router, FakeWorker& fake) : fake_(fake) {
        fake_.stall_on_next_detect();
        submitter_ = std::thread(
            [this, &router] { result_ = router.submit(1, patterned_image(512, 512, 3, 1.0f)); });
    }
    ~StuckWrite() { finish(); }
    StuckWrite(const StuckWrite&) = delete;
    StuckWrite& operator=(const StuckWrite&) = delete;

    [[nodiscard]] bool taken_hold() { return fake_.wait_for_stall(); }
    /// Lets the write go on, and returns the frame's future once submit does.
    std::future<ServeResult> result() {
        finish();
        return std::move(result_);
    }

  private:
    void finish() {
        fake_.resume();
        if (submitter_.joinable()) submitter_.join();
    }

    FakeWorker& fake_;
    std::future<ServeResult> result_;
    std::thread submitter_;
};

/// Two fakes; slot 0 stays kUp with its frame however long its write is
/// stuck, since no ping goes overdue.
cluster::RouterConfig stuck_write_config(int fd_a, int fd_b) {
    cluster::RouterConfig rc = adopt_config({fd_a, fd_b});
    rc.worker_inflight_limit = 0;
    rc.health_timeout_ms = 600000;
    return rc;
}

// stop() waits for a socket a stuck write holds no longer than
// shutdown_timeout_ms. Severing the connections then fails the stuck write,
// and its frame resolves kShutdown.
TEST(Router, StopDoesNotWaitBehindStuckWrite) {
    SocketPair spa;
    SocketPair spb;
    const int fd_a = spa.a.release();
    const int fd_b = spb.a.release();
    FakeWorker fake_a(std::move(spa.b));
    FakeWorker fake_b(std::move(spb.b));
    cluster::RouterConfig rc = stuck_write_config(fd_a, fd_b);
    rc.shutdown_timeout_ms = 200;
    cluster::Router router(rc);
    std::future<void> stopped;  // declared first: waited for after `stuck` resumes
    StuckWrite stuck(router, fake_a);
    ASSERT_TRUE(stuck.taken_hold());
    stopped = std::async(std::launch::async, [&] { router.stop(); });
    ASSERT_EQ(stopped.wait_for(std::chrono::seconds(1)), std::future_status::ready);
    std::future<ServeResult> fut = stuck.result();
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)), std::future_status::ready);
    EXPECT_EQ(fut.get().status, ServeStatus::kShutdown);
}

// fleet_stats(timeout_ms) returns within its timeout while a request write
// holds a socket; the router counters are read whatever the workers do.
TEST(Router, FleetStatsDoesNotWaitBehindStuckWrite) {
    SocketPair spa;
    SocketPair spb;
    const int fd_a = spa.a.release();
    const int fd_b = spb.a.release();
    FakeWorker fake_a(std::move(spa.b));
    FakeWorker fake_b(std::move(spb.b));
    cluster::Router router(stuck_write_config(fd_a, fd_b));
    std::future<cluster::FleetStats> stats;  // declared first: see above
    StuckWrite stuck(router, fake_a);
    ASSERT_TRUE(stuck.taken_hold());
    stats = std::async(std::launch::async, [&] { return router.fleet_stats(100); });
    ASSERT_EQ(stats.wait_for(std::chrono::seconds(1)), std::future_status::ready);
    const cluster::FleetStats fs = stats.get();
    EXPECT_EQ(fs.submitted, 1u) << fs.to_json();
    EXPECT_EQ(fs.ok, 0u);
    EXPECT_EQ(fs.retried, 0u);
    EXPECT_EQ(fs.worker_deaths, 0u);
    EXPECT_TRUE(fs.workers.empty());  // fakes leave stats requests unanswered
    std::future<ServeResult> fut = stuck.result();
    ASSERT_TRUE(fake_a.wait_for_held(1));
    fake_a.release_all();
    EXPECT_EQ(fut.get().status, ServeStatus::kOk);
    router.stop();
}

/// Submits `frame`, which the wire cannot carry, to a router over two fakes:
/// it resolves kFailed before submit returns, naming `limit`; no worker sees
/// it or dies, and the next frame is served.
void expect_fails_alone(Image frame, const std::string& limit) {
    SocketPair spa;
    SocketPair spb;
    const int fd_a = spa.a.release();
    const int fd_b = spb.a.release();
    FakeWorker fake_a(std::move(spa.b));
    FakeWorker fake_b(std::move(spb.b));
    cluster::Router router(adopt_config({fd_a, fd_b}));
    std::future<ServeResult> bad = router.submit(1, std::move(frame));
    ASSERT_EQ(bad.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    const ServeResult r = bad.get();
    EXPECT_EQ(r.status, ServeStatus::kFailed);
    EXPECT_NE(r.error.find(limit), std::string::npos) << r.error;
    std::future<ServeResult> next = router.submit(1, patterned_image(8, 8, 3, 1.0f));
    ASSERT_TRUE(fake_a.wait_for_held(1));  // both idle: the lowest slot
    fake_a.release_all();
    EXPECT_EQ(next.get().status, ServeStatus::kOk);
    EXPECT_EQ(router.worker_state(0), cluster::WorkerState::kUp);
    EXPECT_EQ(router.worker_state(1), cluster::WorkerState::kUp);
    EXPECT_EQ(fake_a.detect_payloads().size(), 1u);
    EXPECT_TRUE(fake_b.detect_payloads().empty());
    const cluster::FleetStats fs = router.fleet_stats(/*timeout_ms=*/100);
    EXPECT_TRUE(fs.accounting_ok()) << fs.to_json();
    EXPECT_EQ(fs.failed, 1u);
    EXPECT_EQ(fs.ok, 1u);
    EXPECT_EQ(fs.worker_deaths, 0u);
    router.stop();
}

TEST(Router, FrameOverSideLimitFailsAlone) {
    // Its width does not fit the geometry's u16 field.
    expect_fails_alone(Image(65536, 1, 3), "65535");
}

// 256 MiB of pixels: left out of the TSan run, which shadows every byte.
TEST(Router, FrameOverPayloadCapFailsAlone) {
    expect_fails_alone(Image(16385, 4096, 1), std::to_string(cluster::kMaxPayloadBytes));
}

TEST(Router, EjectsUnresponsiveWorkerThenReadmitsViaHalfOpen) {
    SocketPair sp;
    const int adopt_fd = sp.a.release();
    FakeWorker fake(std::move(sp.b));
    cluster::RouterConfig rc = adopt_config({adopt_fd});
    rc.health_interval_ms = 10;
    rc.health_timeout_ms = 30;
    rc.eject_threshold = 2;
    rc.readmit_ms = 50;
    rc.max_retries = 0;  // a stranded frame has nowhere to go: kShutdown
    cluster::Router router(rc);

    const Image img = patterned_image(8, 8, 3, 1.0f);
    auto held_future = router.submit(1, img);
    ASSERT_TRUE(fake.wait_for_held(1));

    fake.set_answer_pings(false);  // worker wedges
    // The breaker may already be cycling ejected <-> half-open (readmit_ms is
    // tiny); any non-kUp state is "breaker open" for this assertion.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (router.worker_state(0) == cluster::WorkerState::kUp &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_NE(router.worker_state(0), cluster::WorkerState::kUp);
    // The ejected worker's in-flight frame resolved (kShutdown: no budget,
    // no healthy peer) instead of hanging.
    ASSERT_EQ(held_future.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    EXPECT_EQ(held_future.get().status, ServeStatus::kShutdown);
    // With no healthy worker, new submits shed immediately.
    EXPECT_EQ(router.submit(1, img).get().status, ServeStatus::kRejected);

    fake.set_answer_pings(true);  // worker recovers
    while (router.worker_state(0) != cluster::WorkerState::kUp &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(router.worker_state(0), cluster::WorkerState::kUp);
    auto after = router.submit(1, img);
    // The fake still holds the pre-eject request (its answer will be stale and
    // ignored by the router), so the new frame is the second held entry.
    ASSERT_TRUE(fake.wait_for_held(2));
    fake.release_all();
    EXPECT_EQ(after.get().status, ServeStatus::kOk);
    const cluster::FleetStats fs = router.fleet_stats(/*timeout_ms=*/100);
    EXPECT_TRUE(fs.accounting_ok()) << fs.to_json();
    EXPECT_GE(fs.worker_ejects, 1u);
    EXPECT_GE(fs.worker_readmits, 1u);
    router.stop();
}

TEST(Router, FailedHalfOpenProbeCountsAsEject) {
    SocketPair sp;
    const int adopt_fd = sp.a.release();
    FakeWorker fake(std::move(sp.b));
    cluster::RouterConfig rc = adopt_config({adopt_fd});
    rc.health_interval_ms = 10;
    rc.health_timeout_ms = 30;
    rc.eject_threshold = 2;
    rc.readmit_ms = 50;
    cluster::Router router(rc);

    fake.set_answer_pings(false);  // every probe, the half-open one included, fails
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    const auto wait_for_state = [&](cluster::WorkerState s) {
        while (router.worker_state(0) != s &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return router.worker_state(0) == s;
    };
    ASSERT_TRUE(wait_for_state(cluster::WorkerState::kEjected));
    ASSERT_TRUE(wait_for_state(cluster::WorkerState::kHalfOpen));
    ASSERT_TRUE(wait_for_state(cluster::WorkerState::kEjected));
    // The breaker opened twice: once from kUp, once when the probe failed.
    const cluster::FleetStats fs = router.fleet_stats(/*timeout_ms=*/100);
    EXPECT_GE(fs.worker_ejects, 2u) << fs.to_json();
    EXPECT_EQ(fs.worker_readmits, 0u) << fs.to_json();
    router.stop();
}

// Only the answer to the outstanding ping counts: a pong to a ping that
// already timed out must not stand in for the half-open trial.
TEST(Router, StalePongDoesNotReadmitHalfOpenWorker) {
    SocketPair sp;
    const int adopt_fd = sp.a.release();
    FakeWorker fake(std::move(sp.b));
    cluster::RouterConfig rc = adopt_config({adopt_fd});
    rc.health_interval_ms = 10;
    rc.health_timeout_ms = 200;
    rc.eject_threshold = 1;
    rc.readmit_ms = 20;
    fake.set_hold_pings(true);
    cluster::Router router(rc);

    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (router.worker_state(0) != cluster::WorkerState::kHalfOpen &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(router.worker_state(0), cluster::WorkerState::kHalfOpen);
    // The oldest held ping is the one that timed out and ejected the worker;
    // the trial ping sent on half-open is still unanswered.
    ASSERT_TRUE(fake.answer_oldest_ping());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_NE(router.worker_state(0), cluster::WorkerState::kUp);
    const cluster::FleetStats fs = router.fleet_stats(/*timeout_ms=*/100);
    EXPECT_EQ(fs.worker_readmits, 0u) << fs.to_json();
    router.stop();
}

// A non-positive ping interval would spin the health thread, and a threshold
// below one has no meaning for a breaker that counts failures (the service's
// breaker_threshold 0 means "off").
TEST(Router, RejectsBadHealthKnobs) {
    // The checks throw before any worker is spawned; without them this one
    // would fail its exec and stay dead.
    cluster::RouterConfig rc;
    rc.workers = 1;
    rc.worker_argv = {"never-spawned"};
    rc.respawn = false;
    rc.health_interval_ms = 0;
    EXPECT_THROW(cluster::Router{rc}, std::invalid_argument);
    rc.health_interval_ms = 50;
    rc.eject_threshold = 0;
    EXPECT_THROW(cluster::Router{rc}, std::invalid_argument);
}

TEST(Router, StopResolvesHeldFramesAsShutdown) {
    SocketPair sp;
    const int adopt_fd = sp.a.release();
    FakeWorker fake(std::move(sp.b));
    cluster::RouterConfig rc = adopt_config({adopt_fd});
    rc.shutdown_timeout_ms = 200;  // fake drains on kShutdown, so this is slack
    cluster::Router router(rc);
    const Image img = patterned_image(8, 8, 3, 1.0f);
    auto fut = router.submit(1, img);
    ASSERT_TRUE(fake.wait_for_held(1));
    router.stop();  // fake answers the held frame during its shutdown drain
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)), std::future_status::ready);
    const ServeResult r = fut.get();
    EXPECT_TRUE(r.status == ServeStatus::kOk || r.status == ServeStatus::kShutdown)
        << to_string(r.status);
    // After stop, submits resolve kShutdown immediately.
    EXPECT_EQ(router.submit(1, img).get().status, ServeStatus::kShutdown);
}

// stop() severs the connections only once each worker sent its
// shutdown-ack, its last frame, or the deadline passed: a worker still busy
// after it read the shutdown is not cut off in the middle of its replies.
TEST(Router, StopWaitsForTheShutdownAck) {
    SocketPair sp;
    const int adopt_fd = sp.a.release();
    FakeWorker fake(std::move(sp.b));
    fake.stall_on_shutdown();
    cluster::RouterConfig rc = adopt_config({adopt_fd});
    rc.shutdown_timeout_ms = 30000;
    cluster::Router router(rc);
    std::future<void> stopped = std::async(std::launch::async, [&] { router.stop(); });
    ASSERT_TRUE(fake.wait_for_stall());
    EXPECT_EQ(stopped.wait_for(std::chrono::milliseconds(100)), std::future_status::timeout);
    fake.resume();
    ASSERT_EQ(stopped.wait_for(std::chrono::seconds(10)), std::future_status::ready);
    // stop() can return on reading the ack before the fake's thread records
    // that its write went through; that thread ends right after recording.
    fake.join();
    EXPECT_TRUE(fake.ack_sent());
}

// ---- rolling fleet reload (scripted fakes: deterministic, TSan-visible) -----

TEST(Router, RollingReloadDrainsThenSwapsEveryWorker) {
    SocketPair spa;
    SocketPair spb;
    const int fd_a = spa.a.release();
    const int fd_b = spb.a.release();
    FakeWorker fake_a(std::move(spa.b));
    FakeWorker fake_b(std::move(spb.b));
    cluster::RouterConfig rc = adopt_config({fd_a, fd_b});
    rc.worker_inflight_limit = 0;
    cluster::Router router(rc);

    const Image img = patterned_image(8, 8, 3, 1.0f);
    auto f0 = router.submit(1, img);  // slot 0 (fake_a), held
    auto f1 = router.submit(1, img);  // slot 1 (fake_b), held
    ASSERT_TRUE(fake_a.wait_for_held(1));
    ASSERT_TRUE(fake_b.wait_for_held(1));

    // The rollout must drain each worker's in-flight frames before swapping:
    // with both fakes holding a frame, it cannot complete (or even send the
    // first reload request) until we release them.
    std::atomic<bool> done{false};
    cluster::RolloutReport report;
    std::thread rollout([&] {
        report = router.rolling_reload("fake-candidate.weights",
                                       /*timeout_ms=*/30000);
        done.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(done.load());
    EXPECT_EQ(fake_a.reload_requests(), 0);
    fake_a.release_all();
    fake_b.release_all();
    rollout.join();

    EXPECT_TRUE(report.ok) << report.error;
    EXPECT_EQ(report.total, 2u);
    EXPECT_EQ(report.reloaded, 2u);
    EXPECT_EQ(report.rolled_back, 0u);
    EXPECT_EQ(report.model_version, 2u);
    EXPECT_EQ(fake_a.reload_requests(), 1);
    EXPECT_EQ(fake_b.reload_requests(), 1);
    EXPECT_EQ(fake_a.rollback_requests(), 0);
    EXPECT_NE(report.to_json().find("\"reloaded\":2"), std::string::npos)
        << report.to_json();
    EXPECT_EQ(f0.get().status, ServeStatus::kOk);
    EXPECT_EQ(f1.get().status, ServeStatus::kOk);

    // Both slots are dispatchable again after the rollout.
    auto after = router.submit(2, img);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (fake_a.held() + fake_b.held() < 1 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    fake_a.release_all();
    fake_b.release_all();
    EXPECT_EQ(after.get().status, ServeStatus::kOk);
    router.stop();
}

TEST(Router, RollingReloadAbortsAndRollsBackCommittedWorkers) {
    SocketPair spa;
    SocketPair spb;
    const int fd_a = spa.a.release();
    const int fd_b = spb.a.release();
    FakeWorker fake_a(std::move(spa.b));
    FakeWorker fake_b(std::move(spb.b));
    fake_b.set_reload_ok(false);  // slot 1's canary will reject the candidate
    cluster::Router router(adopt_config({fd_a, fd_b}));

    const cluster::RolloutReport report =
        router.rolling_reload("fake-candidate.weights", /*timeout_ms=*/30000);
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.total, 2u);
    EXPECT_EQ(report.reloaded, 1u);     // slot 0 swapped before the abort...
    EXPECT_EQ(report.rolled_back, 1u);  // ...and was restored by it
    EXPECT_EQ(report.model_version, 0u);  // no fleet-wide new version
    EXPECT_NE(report.error.find("canary rejected"), std::string::npos)
        << report.error;
    EXPECT_EQ(fake_a.rollback_requests(), 1);
    EXPECT_EQ(fake_b.rollback_requests(), 0);

    // The fleet keeps serving the old version after the abort.
    const Image img = patterned_image(8, 8, 3, 1.0f);
    auto f0 = router.submit(1, img);
    auto f1 = router.submit(1, img);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (fake_a.held() + fake_b.held() < 2 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    fake_a.release_all();
    fake_b.release_all();
    EXPECT_EQ(f0.get().status, ServeStatus::kOk);
    EXPECT_EQ(f1.get().status, ServeStatus::kOk);
    router.stop();
}

// An error frame answers whichever request carries its id: a reload request
// the worker cannot decode fails the rollout at once, with the worker's text.
TEST(Router, RollingReloadAnsweredWithErrorFailsAtOnce) {
    SocketPair sp;
    const int adopt_fd = sp.a.release();
    FakeWorker fake(std::move(sp.b));
    fake.set_reload_error(true);
    cluster::Router router(adopt_config({adopt_fd}));

    const auto start = std::chrono::steady_clock::now();
    const cluster::RolloutReport report =
        router.rolling_reload("fake-candidate.weights", /*timeout_ms=*/5000);
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.reloaded, 0u);
    EXPECT_NE(report.error.find(FakeWorker::kReloadErrorText), std::string::npos)
        << report.error;
    EXPECT_EQ(router.worker_state(0), cluster::WorkerState::kUp);
    router.stop();
}

// ---- spawned serve_worker processes -----------------------------------------

TEST(Router, RolloutReportJsonEscapesError) {
    // The error carries worker text and the caller's checkpoint path.
    cluster::RolloutReport report;
    report.error = "a\"b\\c\nd";
    const std::string json = report.to_json();
    EXPECT_NE(json.find(R"("error":"a\"b\\c\nd")"), std::string::npos) << json;
    EXPECT_EQ(json.find('\n'), std::string::npos) << json;
}

TEST(Router, SpawnedWorkersEndToEnd) {
    const std::string worker_bin = DRONET_SERVE_WORKER_PATH;
    ASSERT_FALSE(worker_bin.empty());
    cluster::RouterConfig rc;
    rc.worker_argv = {worker_bin, "--size", "64", "--filter-scale", "0.25",
                      "--workers", "1"};
    rc.workers = 2;
    rc.worker_inflight_limit = 1;
    cluster::Router router(rc);
    EXPECT_EQ(router.slots(), 2u);
    EXPECT_GT(router.worker_pid(0), 0);
    EXPECT_GT(router.worker_pid(1), 0);

    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(64), 8, /*seed=*/5);
    std::vector<std::future<ServeResult>> futures;
    for (int i = 0; i < 8; ++i) {
        futures.push_back(router.submit(1 + (i % 2), frames.image(i)));
    }
    for (auto& f : futures) EXPECT_EQ(f.get().status, ServeStatus::kOk);
    router.drain();
    const cluster::FleetStats fs = router.fleet_stats();
    EXPECT_TRUE(fs.accounting_ok()) << fs.to_json();
    EXPECT_EQ(fs.ok, 8u);
    EXPECT_EQ(fs.workers.size(), 2u);
    EXPECT_EQ(fs.agg_completed, 8u);
    EXPECT_EQ(router.alive_workers(), 2);

    // A frame the workers cannot preprocess fails alone: no worker dies, so
    // nothing is retried, and the next frame is served.
    const ServeResult bad = router.submit(1, patterned_image(8, 8, 2, 1.0f)).get();
    EXPECT_EQ(bad.status, ServeStatus::kFailed);
    EXPECT_NE(bad.error.find("channels"), std::string::npos) << bad.error;
    EXPECT_EQ(router.submit(1, frames.image(0)).get().status, ServeStatus::kOk);
    const cluster::FleetStats after = router.fleet_stats();
    EXPECT_TRUE(after.accounting_ok()) << after.to_json();
    EXPECT_EQ(after.failed, 1u);
    EXPECT_EQ(after.worker_deaths, 0u);
    EXPECT_EQ(after.retried, 0u);
    EXPECT_EQ(router.alive_workers(), 2);
    router.stop();
    router.stop();  // idempotent
}

TEST(Router, SpawnedFleetRollingReloadMatchesColdStart) {
    const std::string worker_bin = DRONET_SERVE_WORKER_PATH;
    ASSERT_FALSE(worker_bin.empty());
    // The spawned workers build the same deterministic model at this size and
    // filter scale, so a local clone can author the rollout candidate.
    Network local =
        build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    const PerturbedCheckpoint cand(local, "dronet_rollout_cand", 0x90d);

    cluster::RouterConfig rc;
    rc.worker_argv = {worker_bin,  "--size",           "64",
                      "--filter-scale", "0.25",        "--workers",
                      "1",         "--score-threshold", "0.0005"};
    rc.workers = 2;
    cluster::Router router(rc);

    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(64), 8, /*seed=*/21);
    std::vector<std::future<ServeResult>> futures;
    for (int i = 0; i < 8; ++i) {
        futures.push_back(router.submit(1 + (i % 2), frames.image(i)));
    }
    const cluster::RolloutReport report =
        router.rolling_reload(cand.path.string(), /*timeout_ms=*/60000);
    // Every future accepted before/during the rollout resolves kOk.
    for (auto& f : futures) EXPECT_EQ(f.get().status, ServeStatus::kOk);
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(report.reloaded, 2u);
    EXPECT_EQ(report.model_version, 2u);

    // Every worker reports the new version in its wire stats...
    router.drain();
    const cluster::FleetStats fs = router.fleet_stats();
    EXPECT_TRUE(fs.accounting_ok()) << fs.to_json();
    ASSERT_EQ(fs.workers.size(), 2u);
    for (const auto& w : fs.workers) {
        EXPECT_EQ(w.model_version, 2u);
        EXPECT_EQ(w.reloads, 1u);
        EXPECT_EQ(w.rollbacks, 0u);
    }

    // ...and post-rollout fleet outputs are bit-identical to a cold start of
    // the candidate checkpoint.
    Network cold =
        build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    load_weights(cold, cand.path);
    serve::ServiceConfig sc;
    sc.workers = 1;
    // Match the spawned workers' pipeline exactly: default NMS threshold,
    // score threshold from their --score-threshold flag.
    sc.pipeline.eval.score_threshold = 0.0005f;
    serve::DetectionService reference(cold, sc);
    bool any_detection = false;
    for (int i = 0; i < 4; ++i) {
        const ServeResult got = router.submit(3, frames.image(i)).get();
        ASSERT_EQ(got.status, ServeStatus::kOk);
        const ServeResult want = reference.submit(frames.image(i)).get();
        ASSERT_EQ(want.status, ServeStatus::kOk);
        ASSERT_EQ(got.frame.detections.size(), want.frame.detections.size())
            << "frame " << i;
        for (std::size_t d = 0; d < want.frame.detections.size(); ++d) {
            EXPECT_EQ(std::memcmp(&got.frame.detections[d].box,
                                  &want.frame.detections[d].box, sizeof(Box)), 0);
            EXPECT_EQ(got.frame.detections[d].objectness,
                      want.frame.detections[d].objectness);
            EXPECT_EQ(got.frame.detections[d].class_prob,
                      want.frame.detections[d].class_prob);
        }
        any_detection = any_detection || !want.frame.detections.empty();
    }
    EXPECT_TRUE(any_detection);  // the bit-identical comparison was non-vacuous
    reference.stop();
    router.stop();
}

TEST(SpawnedWorker, SigtermDrainsAcceptedFramesAndExitsZero) {
    const std::string worker_bin = DRONET_SERVE_WORKER_PATH;
    ASSERT_FALSE(worker_bin.empty());
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::close(sv[0]);
        const std::string fd_arg = std::to_string(sv[1]);
        ::execl(worker_bin.c_str(), worker_bin.c_str(), "--fd", fd_arg.c_str(),
                "--size", "64", "--filter-scale", "0.25", "--workers", "1",
                static_cast<char*>(nullptr));
        ::_exit(127);  // exec failed
    }
    ::close(sv[1]);
    io::UniqueFd fd(sv[0]);

    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(64), 2, /*seed=*/9);
    // Prove the worker is serving (and so its signal handlers are installed)
    // before the signal lands.
    cluster::write_frame(fd.get(), Opcode::kDetectRequest, 1,
                         cluster::encode_detect_request(frames.image(0)));
    Frame f;
    ASSERT_TRUE(cluster::read_frame(fd.get(), f));
    EXPECT_EQ(static_cast<Opcode>(f.header.opcode), Opcode::kDetectResponse);

    // SIGTERM with a frame possibly in flight: the handler half-closes the
    // read side, the worker drains whatever it accepted, replies, and closes
    // the socket at a frame boundary — a clean EOF, then exit code 0.
    cluster::write_frame(fd.get(), Opcode::kDetectRequest, 2,
                         cluster::encode_detect_request(frames.image(1)));
    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    int responses = 1;
    while (cluster::read_frame(fd.get(), f)) {
        if (static_cast<Opcode>(f.header.opcode) == Opcode::kDetectResponse) {
            ++responses;
        }
    }
    EXPECT_LE(responses, 2);  // frame 2 raced the signal: served or never read

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << status;
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace dronet
