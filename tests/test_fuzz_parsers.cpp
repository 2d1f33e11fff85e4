// Fuzz-style robustness tests for the formats the tools accept: PPM images,
// .cfg model descriptions, .weights checkpoints, and the cluster wire
// protocol's framed byte stream. Each suite takes a known-good artifact,
// applies ~50 seeded mutations (truncations and byte flips — deterministic
// via a fixed mt19937 seed), and asserts the loader either parses the mutant
// or throws something rooted in std::exception. Any crash, sanitizer report,
// or non-std exception fails the suite; run_all.sh repeats it under ASan.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/protocol.hpp"
#include "cluster/worker.hpp"
#include "image/image.hpp"
#include "image/ppm.hpp"
#include "io/fdio.hpp"
#include "models/model_zoo.hpp"
#include "nn/cfg.hpp"
#include "nn/clone.hpp"
#include "nn/weights_io.hpp"
#include "serve/detection_service.hpp"

namespace dronet {
namespace {

constexpr int kMutations = 50;

std::filesystem::path fuzz_dir() {
    const auto dir = std::filesystem::temp_directory_path() / "dronet_fuzz";
    std::filesystem::create_directories(dir);
    return dir;
}

std::vector<char> read_bytes(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

void write_bytes(const std::filesystem::path& path, const std::vector<char>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Truncates (even rounds) or flips a few bytes (odd rounds). Truncation is
/// always strictly shortening, so those rounds are guaranteed-malformed.
std::vector<char> mutate(const std::vector<char>& bytes, int round, std::mt19937& rng) {
    std::vector<char> m = bytes;
    if (round % 2 == 0) {
        m.resize(rng() % m.size());
    } else {
        for (int k = 0; k < 3; ++k) {
            m[rng() % m.size()] ^= static_cast<char>(1 + rng() % 255);
        }
    }
    return m;
}

TEST(FuzzParsers, MutatedPpmNeverCrashes) {
    const auto base = fuzz_dir() / "fuzz_base.ppm";
    const auto victim = fuzz_dir() / "fuzz_mutant.ppm";
    Image im(64, 48, 3);
    for (int y = 0; y < im.height(); ++y) {
        for (int x = 0; x < im.width(); ++x) {
            for (int c = 0; c < 3; ++c) {
                im.px(x, y, c) = static_cast<float>((x * 7 + y * 3 + c) % 256) / 255.0f;
            }
        }
    }
    write_ppm(im, base);
    const std::vector<char> bytes = read_bytes(base);
    ASSERT_FALSE(bytes.empty());

    std::mt19937 rng(0x5eed);
    int threw = 0, parsed = 0;
    for (int i = 0; i < kMutations; ++i) {
        write_bytes(victim, mutate(bytes, i, rng));
        try {
            const Image out = read_ppm(victim);
            EXPECT_GT(out.width(), 0);
            ++parsed;
        } catch (const std::exception&) {
            ++threw;  // clean failure is the contract
        }
    }
    EXPECT_EQ(threw + parsed, kMutations);
    EXPECT_GE(threw, kMutations / 2);  // every truncation round must throw
}

TEST(FuzzParsers, MutatedCfgTextNeverCrashes) {
    const Network net =
        build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    const std::string base = network_to_cfg(net);
    ASSERT_FALSE(base.empty());

    std::mt19937 rng(0xc0ffee);
    int threw = 0, parsed = 0;
    for (int i = 0; i < kMutations; ++i) {
        std::string m = base;
        if (i % 2 == 0) {
            m.resize(rng() % m.size());
        } else {
            // Replace a few characters with random printables; same length,
            // so numeric fields keep their digit count (no absurd allocs).
            for (int k = 0; k < 3; ++k) {
                m[rng() % m.size()] = static_cast<char>(' ' + rng() % 95);
            }
        }
        try {
            const Network parsed_net = parse_cfg(m);
            EXPECT_GT(parsed_net.num_layers(), 0u);
            ++parsed;
        } catch (const std::exception&) {
            ++threw;  // validator/parse errors are the expected outcome
        }
    }
    EXPECT_EQ(threw + parsed, kMutations);
    EXPECT_GT(threw, 0);
}

TEST(FuzzParsers, MutatedWeightsFileNeverCrashes) {
    const auto base = fuzz_dir() / "fuzz_base.weights";
    const auto victim = fuzz_dir() / "fuzz_mutant.weights";
    Network net = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    save_weights(net, base);
    const std::vector<char> bytes = read_bytes(base);
    ASSERT_FALSE(bytes.empty());

    std::mt19937 rng(0xbadf00d);
    int threw = 0, loaded = 0;
    for (int i = 0; i < kMutations; ++i) {
        const bool truncated = i % 2 == 0;
        write_bytes(victim, mutate(bytes, i, rng));
        Network target = clone_network(net);
        try {
            load_weights(target, victim);
            // Byte flips keep the length right, so the payload loads (as
            // garbage floats) — acceptable; truncations must never slip by.
            EXPECT_FALSE(truncated) << "truncated checkpoint loaded silently";
            ++loaded;
        } catch (const std::exception& e) {
            EXPECT_NE(std::string(e.what()).find("load_weights"), std::string::npos)
                << e.what();
            ++threw;
        }
    }
    EXPECT_EQ(threw + loaded, kMutations);
    EXPECT_GE(threw, kMutations / 2);
}

TEST(FuzzParsers, MutatedClusterWireFramesNeverCrash) {
    using cluster::Frame;
    using cluster::Opcode;

    // A canonical multi-frame byte stream: detect request, reload request,
    // reload response, ping — captured off a real socketpair so the framing
    // bytes are exactly what a peer would send.
    std::vector<char> blob;
    {
        int sv[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
        io::UniqueFd writer(sv[0]);
        io::UniqueFd reader(sv[1]);
        Image img(16, 12, 3);
        for (std::size_t i = 0; i < img.size(); ++i) {
            img.data()[i] = static_cast<float>(i % 251) / 251.0f;
        }
        cluster::write_frame(writer.get(), Opcode::kDetectRequest, 7,
                             cluster::encode_detect_request(img));
        cluster::WireReloadRequest rreq;
        rreq.rollback = false;
        rreq.weights_path = "/tmp/fuzz_candidate.weights";
        cluster::write_frame(writer.get(), Opcode::kReloadRequest, 8,
                             cluster::encode_reload_request(rreq));
        cluster::WireReloadResponse rresp;
        rresp.ok = true;
        rresp.model_version = 2;
        cluster::write_frame(writer.get(), Opcode::kReloadResponse, 9,
                             cluster::encode_reload_response(rresp));
        cluster::write_frame(writer.get(), Opcode::kPing, 10, nullptr, 0);
        writer.reset();  // EOF so the capture loop below terminates
        char buf[4096];
        ssize_t n;
        while ((n = ::read(reader.get(), buf, sizeof(buf))) > 0) {
            blob.insert(blob.end(), buf, buf + n);
        }
    }
    ASSERT_FALSE(blob.empty());

    // The worker reads detect requests with its own direct reader (geometry
    // first, then the pixels straight into an Image), so every mutant is
    // also served to a real WorkerServer.
    Network net = build_model(ModelId::kDroNet, {.input_size = 32, .filter_scale = 0.25f});
    serve::ServiceConfig sc;
    sc.workers = 1;
    serve::DetectionService service(net, sc);

    std::mt19937 rng(0xf4a3e5u);
    int threw = 0, clean = 0, worker_threw = 0, worker_clean = 0;
    for (int i = 0; i < kMutations; ++i) {
        const std::vector<char> m = mutate(blob, i, rng);
        {
            int sv[2];
            ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
            io::UniqueFd router_end(sv[0]);
            io::UniqueFd worker_end(sv[1]);
            io::write_full(router_end.get(), m.data(), m.size());
            // End of stream after the mutant; replies still have somewhere
            // to go (the socket buffer; nobody reads them).
            ::shutdown(router_end.get(), SHUT_WR);
            try {
                cluster::WorkerServer server(service, worker_end.get());
                (void)server.run();
                ++worker_clean;
            } catch (const std::exception&) {
                ++worker_threw;  // corrupt framing surfaces after the drain
            }
        }
        int sv[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
        io::UniqueFd writer(sv[0]);
        io::UniqueFd reader(sv[1]);
        io::write_full(writer.get(), m.data(), m.size());
        writer.reset();  // mutant fully buffered; reads can never hang
        try {
            Frame f;
            while (cluster::read_frame(reader.get(), f)) {
                // A frame that survives framing must also decode cleanly or
                // throw — never crash. Flipped payload bytes may decode into
                // garbage values; that is acceptable.
                try {
                    switch (static_cast<Opcode>(f.header.opcode)) {
                        case Opcode::kDetectRequest:
                            (void)cluster::decode_detect_request(f.payload);
                            break;
                        case Opcode::kReloadRequest:
                            (void)cluster::decode_reload_request(f.payload);
                            break;
                        case Opcode::kReloadResponse:
                            (void)cluster::decode_reload_response(f.payload);
                            break;
                        default:
                            break;
                    }
                } catch (const std::exception&) {
                    // clean payload rejection
                }
            }
            ++clean;  // stream ended on a frame boundary
        } catch (const std::exception&) {
            ++threw;  // bad magic/version/length or mid-frame EOF
        }
    }
    EXPECT_EQ(threw + clean, kMutations);
    EXPECT_GT(threw, 0);  // flips hit the fixed header often enough to reject
    EXPECT_EQ(worker_threw + worker_clean, kMutations);
    EXPECT_GT(worker_threw, 0);
    service.stop();
}

}  // namespace
}  // namespace dronet
