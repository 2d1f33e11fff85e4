#include "nn/weights_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <stdexcept>

#include "fault/fault.hpp"
#include "io/fdio.hpp"

namespace dronet {
namespace {

constexpr std::int32_t kMajor = 0;
constexpr std::int32_t kMinor = 2;
constexpr std::int32_t kRevision = 0;

// Checkpoints go through the shared EINTR-safe helpers (io/fdio.hpp) — the
// same single definition the cluster wire protocol uses — so a signal landing
// mid-transfer can never shear a read or write in two.

void write_floats(int fd, const std::vector<float>& v) {
    io::write_full(fd, v.data(), v.size() * sizeof(float));
}

void read_floats(int fd, std::vector<float>& v, const char* what) {
    const std::size_t want = v.size() * sizeof(float);
    // A short-read fault shrinks `take`; the truncation check below then
    // reports exactly what a really-truncated file would.
    const std::size_t take = DRONET_FAULT_IO(fault::kSiteWeightsRead, want);
    const std::size_t got = io::read_full(fd, v.data(), take);
    if (got != want) {
        throw std::runtime_error(std::string("load_weights: truncated at ") + what);
    }
}

}  // namespace

// Crash-safe checkpointing: all bytes go to a sibling temp file which is
// atomically renamed over `path` only after a successful fsync+close. A crash
// (or injected fault) at any point mid-write leaves the previous checkpoint
// untouched — load_weights can never see a half-written file.
void save_weights(const Network& net, const std::filesystem::path& path) {
    const std::filesystem::path tmp = path.string() + ".tmp";
    try {
        {
            io::UniqueFd out(::open(tmp.c_str(),
                                    O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
            if (!out) {
                throw std::runtime_error("save_weights: cannot open " + tmp.string());
            }
            io::write_full(out.get(), &kMajor, sizeof(kMajor));
            io::write_full(out.get(), &kMinor, sizeof(kMinor));
            io::write_full(out.get(), &kRevision, sizeof(kRevision));
            const std::uint64_t seen =
                static_cast<std::uint64_t>(net.batch_num()) * net.config().batch;
            io::write_full(out.get(), &seen, sizeof(seen));
            auto& mutable_net = const_cast<Network&>(net);
            for (std::size_t i = 0; i < net.num_layers(); ++i) {
                Layer& l = mutable_net.layer(static_cast<int>(i));
                if (l.kind() != LayerKind::kConvolutional) continue;
                DRONET_FAULT_POINT(fault::kSiteWeightsWrite);
                auto& conv = dynamic_cast<ConvolutionalLayer&>(l);
                write_floats(out.get(), conv.biases().v);
                if (conv.config().batch_normalize) {
                    write_floats(out.get(), conv.scales().v);
                    write_floats(out.get(), conv.rolling_mean());
                    write_floats(out.get(), conv.rolling_variance());
                }
                write_floats(out.get(), conv.weights().v);
            }
            if (::fsync(out.get()) != 0) {
                throw std::runtime_error("save_weights: write failed for " + tmp.string());
            }
        }
        std::filesystem::rename(tmp, path);  // atomic on POSIX
        // The rename is only durable once the directory entry itself is on
        // disk: fsync the parent directory, or a crash right here could roll
        // the directory back and lose the just-committed checkpoint even
        // though its data blocks were synced.
        const std::filesystem::path dir =
            path.has_parent_path() ? path.parent_path() : ".";
        DRONET_FAULT_POINT(fault::kSiteWeightsDirFsync);
        io::UniqueFd dfd(::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
        if (!dfd || ::fsync(dfd.get()) != 0) {
            throw std::runtime_error("save_weights: cannot fsync directory " +
                                     dir.string());
        }
    } catch (...) {
        std::error_code ec;
        std::filesystem::remove(tmp, ec);  // best-effort; a real crash leaves it
        throw;
    }
}

std::int64_t expected_weight_file_bytes(const Network& net) {
    // 3 version ints + the 8-byte `seen` counter.
    std::int64_t floats = 0;
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
        const Layer& l = net.layer(static_cast<int>(i));
        if (l.kind() != LayerKind::kConvolutional) continue;
        const auto& conv = dynamic_cast<const ConvolutionalLayer&>(l);
        const ConvConfig& c = conv.config();
        floats += static_cast<std::int64_t>(c.filters) *
                  (1 + (c.batch_normalize ? 3 : 0));  // biases [+ scales, mean, var]
        floats += static_cast<std::int64_t>(c.filters) * conv.input_shape().c *
                  c.ksize * c.ksize;
    }
    return 20 + 4 * floats;
}

void load_weights(Network& net, const std::filesystem::path& path) {
    std::error_code ec;
    const auto actual = std::filesystem::file_size(path, ec);
    if (!ec) {
        const std::int64_t expected = expected_weight_file_bytes(net);
        if (static_cast<std::int64_t>(actual) != expected) {
            throw std::runtime_error(
                "load_weights: " + path.string() + " holds " + std::to_string(actual) +
                " bytes but the network layout needs exactly " +
                std::to_string(expected) +
                " (truncated checkpoint or cfg/weights mismatch)");
        }
    }
    io::UniqueFd in(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
    if (!in) throw std::runtime_error("load_weights: cannot open " + path.string());
    std::int32_t header[3] = {0, 0, 0};  // major, minor, revision
    std::uint64_t seen = 0;
    if (io::read_full(in.get(), header, sizeof(header)) != sizeof(header) ||
        io::read_full(in.get(), &seen, sizeof(seen)) != sizeof(seen)) {
        throw std::runtime_error("load_weights: truncated header in " + path.string());
    }
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
        Layer& l = net.layer(static_cast<int>(i));
        if (l.kind() != LayerKind::kConvolutional) continue;
        auto& conv = dynamic_cast<ConvolutionalLayer&>(l);
        read_floats(in.get(), conv.biases().v, "biases");
        if (conv.config().batch_normalize) {
            read_floats(in.get(), conv.scales().v, "scales");
            read_floats(in.get(), conv.rolling_mean(), "rolling_mean");
            read_floats(in.get(), conv.rolling_variance(), "rolling_variance");
        }
        read_floats(in.get(), conv.weights().v, "weights");
    }
    // Trailing bytes indicate a structure/file mismatch.
    char extra = 0;
    if (io::read_full(in.get(), &extra, 1) != 0) {
        throw std::runtime_error("load_weights: file larger than network: " + path.string());
    }
    if (net.config().batch > 0) {
        net.set_batch_num(static_cast<std::int64_t>(seen) / net.config().batch);
    }
    if (RegionLayer* head = net.region()) {
        head->set_seen(static_cast<std::int64_t>(seen));
    }
}

}  // namespace dronet
