// Wire protocol of the sharded serving tier (docs/serving.md, fleet section).
//
// The router and its worker processes exchange length-prefixed binary frames
// over connected local sockets (socketpair for spawned workers, AF_UNIX for
// adopted ones). Every frame is a fixed 24-byte header followed by
// `payload_bytes` of opcode-specific payload:
//
//   offset  field          meaning
//   0       u32 magic      0x444E5254 ("DRNT") — rejects foreign streams
//   4       u16 version    kProtocolVersion; mismatches are a hard error
//   6       u16 opcode     Opcode below
//   8       u64 request_id router-chosen correlation id (echoed in replies)
//   16      u32 payload    payload byte count (bounded by kMaxPayloadBytes)
//   20      u32 reserved   zero; room for flags without a version bump
//
// Multi-byte fields are host byte order: both ends always share one machine
// (the tier shards across processes, not hosts), so no swapping is done —
// the version field is the guard against ever silently crossing that line.
// All socket transfers go through the shared EINTR-safe io::read_full /
// io::write_full helpers, the same single definition nn/weights_io uses for
// crash-safe checkpoints.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "image/image.hpp"
#include "serve/detection_service.hpp"
#include "serve/serve_stats.hpp"

namespace dronet::cluster {

inline constexpr std::uint32_t kMagic = 0x444E5254;  // "DRNT"
/// v2 added the model-lifecycle opcodes (kReloadRequest/kReloadResponse) and
/// the lifecycle counters in the stats block — the version field doing the
/// job it was reserved for.
inline constexpr std::uint16_t kProtocolVersion = 2;
/// Upper bound on one frame's payload; a 4096x4096 RGB float frame is ~192 MB,
/// anything past 256 MB is a corrupt length field, not a request.
inline constexpr std::uint32_t kMaxPayloadBytes = 256u << 20;

enum class Opcode : std::uint16_t {
    kDetectRequest = 1,   ///< router -> worker: one frame to detect
    kDetectResponse = 2,  ///< worker -> router: ServeResult for a request id
    kPing = 3,            ///< router -> worker: health probe
    kPong = 4,            ///< worker -> router: alive + live gauges
    kStatsRequest = 5,    ///< router -> worker: ask for a ServeStats snapshot
    kStatsResponse = 6,   ///< worker -> router: counters block + full JSON
    kShutdown = 7,        ///< router -> worker: drain in-flight work and exit
    kShutdownAck = 8,     ///< worker -> router: final frame before exit
    kError = 9,           ///< worker -> router: request-level protocol error
    kReloadRequest = 10,  ///< router -> worker: hot-swap (or roll back) the model
    kReloadResponse = 11, ///< worker -> router: reload outcome + live version
};

[[nodiscard]] const char* to_string(Opcode op) noexcept;

struct FrameHeader {
    std::uint32_t magic = kMagic;
    std::uint16_t version = kProtocolVersion;
    std::uint16_t opcode = 0;
    std::uint64_t request_id = 0;
    std::uint32_t payload_bytes = 0;
    std::uint32_t reserved = 0;
};
static_assert(sizeof(FrameHeader) == 24, "wire header layout must be packed");

struct Frame {
    FrameHeader header;
    std::vector<std::uint8_t> payload;
};

/// Reads one complete frame. Returns false on a clean end-of-stream exactly
/// at a frame boundary (peer closed). Throws std::runtime_error for a
/// malformed header (bad magic, version mismatch, oversized payload) or a
/// mid-frame EOF, std::system_error for socket errors. read_header followed
/// by read_payload.
[[nodiscard]] bool read_frame(int fd, Frame& out);

/// The first half of read_frame: reads and checks one header (magic,
/// version, the kMaxPayloadBytes cap). The caller then consumes exactly
/// `payload_bytes` with read_payload or read_detect_request.
[[nodiscard]] bool read_header(int fd, FrameHeader& out);
/// The second half of read_frame: reads `out.header.payload_bytes` into
/// `out.payload` (whose capacity is reused across frames).
void read_payload(int fd, Frame& out);

/// Writes one complete frame, header and payload in one gather write (no
/// copy into a frame buffer). Throws std::system_error on socket errors
/// (EPIPE when the peer died). Callers serialize per-fd writes.
void write_frame(int fd, Opcode opcode, std::uint64_t request_id,
                 const void* payload, std::size_t payload_bytes);
void write_frame(int fd, Opcode opcode, std::uint64_t request_id,
                 const std::vector<std::uint8_t>& payload);

// ---- payload codecs ---------------------------------------------------------
// Decoders validate lengths and throw std::runtime_error on short/oversized
// payloads; they never read past the buffer.

/// Detect request: u16 width, u16 height, u16 channels, u16 reserved, then
/// width*height*channels f32 pixels (planar CHW, exactly Image's layout).
/// One definition of this layout and its check serves all four calls below:
/// a request is valid only when no size is zero and the payload is exactly
/// 8 + width*height*channels*4 bytes. Failures throw BadRequest.
[[nodiscard]] std::vector<std::uint8_t> encode_detect_request(const Image& frame);
[[nodiscard]] Image decode_detect_request(const std::vector<std::uint8_t>& payload);

/// A detect request whose geometry fails the check. read_detect_request
/// throws it only after consuming the payload, so the stream is still in
/// step and the reader may answer kError and read on.
struct BadRequest : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/// Sends `frame` as a detect-request frame: header, geometry and pixels in
/// one gather write straight from the Image, with no payload buffer. The
/// bytes equal write_frame(fd, kDetectRequest, id, encode_detect_request(frame)).
void write_detect_request(int fd, std::uint64_t request_id, const Image& frame);

/// Reads the payload of a detect request whose header read_header returned:
/// the geometry, checked against `header.payload_bytes` before anything is
/// allocated, then the pixels straight into the returned Image. Throws
/// BadRequest for a bad geometry, std::runtime_error when the stream ends
/// inside the payload.
[[nodiscard]] Image read_detect_request(int fd, const FrameHeader& header);

/// One ServeResult crossing the wire. frame_index is the worker's local
/// submission index; the router rewrites it with its own fleet-wide index.
struct WireDetectResult {
    serve::ServeStatus status = serve::ServeStatus::kOk;
    std::int32_t frame_index = 0;
    serve::FrameTimings timings;
    Detections detections;
    std::string error;
};
[[nodiscard]] std::vector<std::uint8_t> encode_detect_response(const WireDetectResult& r);
[[nodiscard]] WireDetectResult decode_detect_response(const std::vector<std::uint8_t>& payload);

/// Pong payload: the worker's live load signals, cheap enough for every
/// health-probe round trip. The router's least-loaded policy uses its own
/// in-flight accounting as the primary signal and queue_depth as a tiebreak.
struct WorkerGauges {
    std::uint64_t queue_depth = 0;
    std::uint64_t in_flight = 0;
    std::uint64_t uptime_ms = 0;
};
[[nodiscard]] std::vector<std::uint8_t> encode_pong(const WorkerGauges& g);
[[nodiscard]] WorkerGauges decode_pong(const std::vector<std::uint8_t>& payload);

/// Stats response: the counters the router folds into fleet aggregates as a
/// fixed binary block, plus the worker's full ServeStatsSnapshot::to_json()
/// string embedded verbatim in the fleet JSON (no router-side JSON parsing).
struct WireStats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t rejected = 0;
    std::uint64_t failed = 0;
    std::uint64_t retries = 0;
    std::uint64_t deadline_expired = 0;
    std::uint64_t worker_restarts = 0;
    std::uint64_t batches = 0;
    std::uint64_t model_version = 0;
    std::uint64_t reloads = 0;
    std::uint64_t reload_failures = 0;
    std::uint64_t rollbacks = 0;
    double wall_seconds = 0;
    double throughput_fps = 0;
    WorkerGauges gauges;
    std::string json;
};
[[nodiscard]] std::vector<std::uint8_t> encode_stats_response(
    const serve::ServeStatsSnapshot& snapshot);
[[nodiscard]] WireStats decode_stats_response(const std::vector<std::uint8_t>& payload);

/// Error payload: a request-scoped diagnostic string (e.g. "bad channel
/// count"); the router resolves the matching future as kFailed.
[[nodiscard]] std::vector<std::uint8_t> encode_error(const std::string& message);
[[nodiscard]] std::string decode_error(const std::vector<std::uint8_t>& payload);

/// Reload request: u8 op (0 = load the checkpoint at `weights_path`,
/// 1 = roll back to the previous model set; the path must be empty), then
/// the path string. The worker answers with exactly one kReloadResponse
/// (or kError for a malformed payload).
struct WireReloadRequest {
    bool rollback = false;
    std::string weights_path;
};
[[nodiscard]] std::vector<std::uint8_t> encode_reload_request(const WireReloadRequest& r);
[[nodiscard]] WireReloadRequest decode_reload_request(const std::vector<std::uint8_t>& payload);

/// Reload response: u8 ok, u64 model_version now live in the worker, and the
/// rejection diagnostic (empty on success).
struct WireReloadResponse {
    bool ok = false;
    std::uint64_t model_version = 0;
    std::string error;
};
[[nodiscard]] std::vector<std::uint8_t> encode_reload_response(const WireReloadResponse& r);
[[nodiscard]] WireReloadResponse decode_reload_response(const std::vector<std::uint8_t>& payload);

}  // namespace dronet::cluster
