#include "cluster/protocol.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "io/fdio.hpp"

namespace dronet::cluster {

namespace {

// Append/consume helpers. Encoding is memcpy-based (host order, see header
// comment); decoding bounds-checks every consume so a corrupt or truncated
// payload becomes a clean runtime_error, never an out-of-bounds read.

template <typename T>
void put(std::vector<std::uint8_t>& buf, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    buf.insert(buf.end(), p, p + sizeof(T));
}

void put_bytes(std::vector<std::uint8_t>& buf, const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf.insert(buf.end(), p, p + n);
}

class Cursor {
  public:
    explicit Cursor(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

    template <typename T>
    [[nodiscard]] T take(const char* what) {
        static_assert(std::is_trivially_copyable_v<T>);
        T v;
        take_bytes(&v, sizeof(T), what);
        return v;
    }

    void take_bytes(void* out, std::size_t n, const char* what) {
        if (buf_.size() - pos_ < n) {
            throw std::runtime_error(std::string("protocol: payload truncated at ") +
                                     what);
        }
        std::memcpy(out, buf_.data() + pos_, n);
        pos_ += n;
    }

    [[nodiscard]] std::string take_string(const char* what) {
        const auto len = take<std::uint32_t>(what);
        if (buf_.size() - pos_ < len) {
            throw std::runtime_error(std::string("protocol: payload truncated at ") +
                                     what);
        }
        std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), len);
        pos_ += len;
        return s;
    }

    void expect_consumed(const char* what) const {
        if (pos_ != buf_.size()) {
            throw std::runtime_error(std::string("protocol: trailing bytes after ") +
                                     what);
        }
    }

  private:
    const std::vector<std::uint8_t>& buf_;
    std::size_t pos_ = 0;
};

void put_string(std::vector<std::uint8_t>& buf, const std::string& s) {
    put(buf, static_cast<std::uint32_t>(s.size()));
    put_bytes(buf, s.data(), s.size());
}

void put_gauges(std::vector<std::uint8_t>& buf, const WorkerGauges& g) {
    put(buf, g.queue_depth);
    put(buf, g.in_flight);
    put(buf, g.uptime_ms);
}

WorkerGauges take_gauges(Cursor& c) {
    WorkerGauges g;
    g.queue_depth = c.take<std::uint64_t>("gauges");
    g.in_flight = c.take<std::uint64_t>("gauges");
    g.uptime_ms = c.take<std::uint64_t>("gauges");
    return g;
}

FrameHeader header_for(Opcode opcode, std::uint64_t request_id,
                       std::size_t payload_bytes) {
    if (payload_bytes > kMaxPayloadBytes) {
        throw std::runtime_error("protocol: refusing to send oversized payload");
    }
    FrameHeader h;
    h.opcode = static_cast<std::uint16_t>(opcode);
    h.request_id = request_id;
    h.payload_bytes = static_cast<std::uint32_t>(payload_bytes);
    return h;
}

iovec part(const void* data, std::size_t n) { return {const_cast<void*>(data), n}; }

/// Reads exactly `n` payload bytes; the stream ending first is an error.
void read_payload_bytes(int fd, void* out, std::size_t n) {
    if (n > 0 && io::read_full(fd, out, n) != n) {
        throw std::runtime_error("protocol: stream ended inside a frame payload");
    }
}

/// The detect request's 8-byte geometry prefix.
struct DetectGeometry {
    std::uint16_t width = 0;
    std::uint16_t height = 0;
    std::uint16_t channels = 0;
    std::uint16_t reserved = 0;
};
static_assert(sizeof(DetectGeometry) == 8, "detect geometry layout must be packed");

DetectGeometry geometry_of(const Image& frame) {
    return {static_cast<std::uint16_t>(frame.width()),
            static_cast<std::uint16_t>(frame.height()),
            static_cast<std::uint16_t>(frame.channels()), 0};
}

/// The one check of a detect request: what is wrong with geometry `g` on a
/// payload of `payload_bytes` (the geometry's 8 included, so at least 8), or
/// null when it is valid. Sizes multiply in 64 bits: no u16 triple overflows.
const char* detect_request_error(const DetectGeometry& g, std::size_t payload_bytes) {
    if (g.width == 0 || g.height == 0 || g.channels == 0) {
        return "protocol: detect-request with empty geometry";
    }
    const std::uint64_t pixel_bytes = std::uint64_t{g.width} * g.height * g.channels *
                                      sizeof(float);
    const std::uint64_t have = payload_bytes - sizeof(DetectGeometry);
    if (have < pixel_bytes) return "protocol: payload truncated at detect-request pixels";
    if (have > pixel_bytes) return "protocol: trailing bytes after detect-request";
    return nullptr;
}

constexpr const char* kDetectRequestTruncated =
    "protocol: payload truncated at detect-request";

}  // namespace

const char* to_string(Opcode op) noexcept {
    switch (op) {
        case Opcode::kDetectRequest: return "detect-request";
        case Opcode::kDetectResponse: return "detect-response";
        case Opcode::kPing: return "ping";
        case Opcode::kPong: return "pong";
        case Opcode::kStatsRequest: return "stats-request";
        case Opcode::kStatsResponse: return "stats-response";
        case Opcode::kShutdown: return "shutdown";
        case Opcode::kShutdownAck: return "shutdown-ack";
        case Opcode::kError: return "error";
        case Opcode::kReloadRequest: return "reload-request";
        case Opcode::kReloadResponse: return "reload-response";
    }
    return "?";
}

bool read_header(int fd, FrameHeader& out) {
    FrameHeader h;
    const std::size_t got = io::read_full(fd, &h, sizeof(h));
    if (got == 0) return false;  // peer closed at a frame boundary
    if (got != sizeof(h)) {
        throw std::runtime_error("protocol: stream ended inside a frame header");
    }
    if (h.magic != kMagic) {
        throw std::runtime_error("protocol: bad magic (not a DroNet cluster stream)");
    }
    if (h.version != kProtocolVersion) {
        throw std::runtime_error("protocol: version mismatch (got " +
                                 std::to_string(h.version) + ", speak " +
                                 std::to_string(kProtocolVersion) + ")");
    }
    if (h.payload_bytes > kMaxPayloadBytes) {
        throw std::runtime_error("protocol: payload length " +
                                 std::to_string(h.payload_bytes) +
                                 " exceeds the " +
                                 std::to_string(kMaxPayloadBytes) + "-byte cap");
    }
    out = h;
    return true;
}

void read_payload(int fd, Frame& out) {
    out.payload.resize(out.header.payload_bytes);
    read_payload_bytes(fd, out.payload.data(), out.payload.size());
}

bool read_frame(int fd, Frame& out) {
    if (!read_header(fd, out.header)) return false;
    read_payload(fd, out);
    return true;
}

void write_frame(int fd, Opcode opcode, std::uint64_t request_id,
                 const void* payload, std::size_t payload_bytes) {
    const FrameHeader h = header_for(opcode, request_id, payload_bytes);
    // One gather write per frame: header and payload leave as a unit without
    // being copied into one buffer, and small frames cost one syscall.
    const iovec parts[] = {part(&h, sizeof(h)), part(payload, payload_bytes)};
    io::write_full(fd, parts);
}

void write_frame(int fd, Opcode opcode, std::uint64_t request_id,
                 const std::vector<std::uint8_t>& payload) {
    write_frame(fd, opcode, request_id, payload.data(), payload.size());
}

std::vector<std::uint8_t> encode_detect_request(const Image& frame) {
    const std::size_t pixel_bytes = frame.size() * sizeof(float);
    std::vector<std::uint8_t> buf;
    buf.reserve(sizeof(DetectGeometry) + pixel_bytes);
    put(buf, geometry_of(frame));
    put_bytes(buf, frame.data(), pixel_bytes);
    return buf;
}

Image decode_detect_request(const std::vector<std::uint8_t>& payload) {
    if (payload.size() < sizeof(DetectGeometry)) throw BadRequest(kDetectRequestTruncated);
    Cursor c(payload);
    const auto g = c.take<DetectGeometry>("detect-request");
    if (const char* bad = detect_request_error(g, payload.size())) throw BadRequest(bad);
    Image img(g.width, g.height, g.channels);
    c.take_bytes(img.data(), img.size() * sizeof(float), "detect-request pixels");
    return img;
}

void write_detect_request(int fd, std::uint64_t request_id, const Image& frame) {
    const DetectGeometry g = geometry_of(frame);
    const std::size_t pixel_bytes = frame.size() * sizeof(float);
    const FrameHeader h =
        header_for(Opcode::kDetectRequest, request_id, sizeof(g) + pixel_bytes);
    const iovec parts[] = {part(&h, sizeof(h)), part(&g, sizeof(g)),
                           part(frame.data(), pixel_bytes)};
    io::write_full(fd, parts);
}

Image read_detect_request(int fd, const FrameHeader& header) {
    std::size_t left = header.payload_bytes;
    DetectGeometry g;
    const char* bad = kDetectRequestTruncated;
    if (left >= sizeof(g)) {
        read_payload_bytes(fd, &g, sizeof(g));
        left -= sizeof(g);
        bad = detect_request_error(g, header.payload_bytes);
    }
    if (bad != nullptr) {
        // Consume the rest through a small buffer, never one sized by the
        // untrusted length, so the next frame starts where it should.
        char sink[4096];
        while (left > 0) {
            const std::size_t n = std::min(left, sizeof(sink));
            read_payload_bytes(fd, sink, n);
            left -= n;
        }
        throw BadRequest(bad);
    }
    Image img(g.width, g.height, g.channels);
    read_payload_bytes(fd, img.data(), left);
    return img;
}

std::vector<std::uint8_t> encode_detect_response(const WireDetectResult& r) {
    std::vector<std::uint8_t> buf;
    buf.reserve(64 + r.detections.size() * 28 + r.error.size());
    put(buf, static_cast<std::uint8_t>(r.status));
    put(buf, std::uint8_t{0});
    put(buf, std::uint16_t{0});
    put(buf, r.frame_index);
    put(buf, r.timings.queue_wait_ms);
    put(buf, r.timings.preprocess_ms);
    put(buf, r.timings.forward_ms);
    put(buf, r.timings.postprocess_ms);
    put(buf, static_cast<std::uint32_t>(r.detections.size()));
    for (const Detection& d : r.detections) {
        put(buf, d.box.x);
        put(buf, d.box.y);
        put(buf, d.box.w);
        put(buf, d.box.h);
        put(buf, d.objectness);
        put(buf, d.class_prob);
        put(buf, static_cast<std::int32_t>(d.class_id));
    }
    put_string(buf, r.error);
    return buf;
}

WireDetectResult decode_detect_response(const std::vector<std::uint8_t>& payload) {
    Cursor c(payload);
    WireDetectResult r;
    const auto status = c.take<std::uint8_t>("detect-response");
    if (status > static_cast<std::uint8_t>(serve::ServeStatus::kShutdown)) {
        throw std::runtime_error("protocol: detect-response with unknown status");
    }
    r.status = static_cast<serve::ServeStatus>(status);
    (void)c.take<std::uint8_t>("detect-response");
    (void)c.take<std::uint16_t>("detect-response");
    r.frame_index = c.take<std::int32_t>("detect-response");
    r.timings.queue_wait_ms = c.take<double>("detect-response");
    r.timings.preprocess_ms = c.take<double>("detect-response");
    r.timings.forward_ms = c.take<double>("detect-response");
    r.timings.postprocess_ms = c.take<double>("detect-response");
    const auto n = c.take<std::uint32_t>("detect-response");
    r.detections.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        Detection d;
        d.box.x = c.take<float>("detection");
        d.box.y = c.take<float>("detection");
        d.box.w = c.take<float>("detection");
        d.box.h = c.take<float>("detection");
        d.objectness = c.take<float>("detection");
        d.class_prob = c.take<float>("detection");
        d.class_id = c.take<std::int32_t>("detection");
        r.detections.push_back(d);
    }
    r.error = c.take_string("detect-response error");
    c.expect_consumed("detect-response");
    return r;
}

std::vector<std::uint8_t> encode_pong(const WorkerGauges& g) {
    std::vector<std::uint8_t> buf;
    buf.reserve(24);
    put_gauges(buf, g);
    return buf;
}

WorkerGauges decode_pong(const std::vector<std::uint8_t>& payload) {
    Cursor c(payload);
    WorkerGauges g = take_gauges(c);
    c.expect_consumed("pong");
    return g;
}

std::vector<std::uint8_t> encode_stats_response(
    const serve::ServeStatsSnapshot& snapshot) {
    std::vector<std::uint8_t> buf;
    put(buf, snapshot.submitted);
    put(buf, snapshot.completed);
    put(buf, snapshot.dropped);
    put(buf, snapshot.rejected);
    put(buf, snapshot.failed);
    put(buf, snapshot.retries);
    put(buf, snapshot.deadline_expired);
    put(buf, snapshot.worker_restarts);
    put(buf, snapshot.batches);
    put(buf, snapshot.model_version);
    put(buf, snapshot.reloads);
    put(buf, snapshot.reload_failures);
    put(buf, snapshot.rollbacks);
    put(buf, snapshot.wall_seconds);
    put(buf, snapshot.throughput_fps);
    put_gauges(buf, WorkerGauges{snapshot.queue_depth, snapshot.in_flight,
                                 snapshot.uptime_ms});
    put_string(buf, snapshot.to_json());
    return buf;
}

WireStats decode_stats_response(const std::vector<std::uint8_t>& payload) {
    Cursor c(payload);
    WireStats s;
    s.submitted = c.take<std::uint64_t>("stats");
    s.completed = c.take<std::uint64_t>("stats");
    s.dropped = c.take<std::uint64_t>("stats");
    s.rejected = c.take<std::uint64_t>("stats");
    s.failed = c.take<std::uint64_t>("stats");
    s.retries = c.take<std::uint64_t>("stats");
    s.deadline_expired = c.take<std::uint64_t>("stats");
    s.worker_restarts = c.take<std::uint64_t>("stats");
    s.batches = c.take<std::uint64_t>("stats");
    s.model_version = c.take<std::uint64_t>("stats");
    s.reloads = c.take<std::uint64_t>("stats");
    s.reload_failures = c.take<std::uint64_t>("stats");
    s.rollbacks = c.take<std::uint64_t>("stats");
    s.wall_seconds = c.take<double>("stats");
    s.throughput_fps = c.take<double>("stats");
    s.gauges = take_gauges(c);
    s.json = c.take_string("stats json");
    c.expect_consumed("stats-response");
    return s;
}

std::vector<std::uint8_t> encode_error(const std::string& message) {
    std::vector<std::uint8_t> buf;
    put_string(buf, message);
    return buf;
}

std::string decode_error(const std::vector<std::uint8_t>& payload) {
    Cursor c(payload);
    std::string s = c.take_string("error");
    c.expect_consumed("error");
    return s;
}

std::vector<std::uint8_t> encode_reload_request(const WireReloadRequest& r) {
    std::vector<std::uint8_t> buf;
    buf.reserve(5 + r.weights_path.size());
    put(buf, static_cast<std::uint8_t>(r.rollback ? 1 : 0));
    put_string(buf, r.weights_path);
    return buf;
}

WireReloadRequest decode_reload_request(const std::vector<std::uint8_t>& payload) {
    Cursor c(payload);
    WireReloadRequest r;
    const auto op = c.take<std::uint8_t>("reload-request");
    if (op > 1) {
        throw std::runtime_error("protocol: reload-request with unknown op");
    }
    r.rollback = op == 1;
    r.weights_path = c.take_string("reload-request path");
    if (r.rollback && !r.weights_path.empty()) {
        throw std::runtime_error("protocol: rollback request carries a path");
    }
    c.expect_consumed("reload-request");
    return r;
}

std::vector<std::uint8_t> encode_reload_response(const WireReloadResponse& r) {
    std::vector<std::uint8_t> buf;
    buf.reserve(13 + r.error.size());
    put(buf, static_cast<std::uint8_t>(r.ok ? 1 : 0));
    put(buf, r.model_version);
    put_string(buf, r.error);
    return buf;
}

WireReloadResponse decode_reload_response(const std::vector<std::uint8_t>& payload) {
    Cursor c(payload);
    WireReloadResponse r;
    const auto ok = c.take<std::uint8_t>("reload-response");
    if (ok > 1) {
        throw std::runtime_error("protocol: reload-response with unknown flag");
    }
    r.ok = ok == 1;
    r.model_version = c.take<std::uint64_t>("reload-response");
    r.error = c.take_string("reload-response error");
    c.expect_consumed("reload-response");
    return r;
}

}  // namespace dronet::cluster
