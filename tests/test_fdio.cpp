// Unit tests for the shared EINTR-safe full-buffer IO helpers (src/io/fdio).
// These are the single read/write definition under both crash-safe weight
// checkpoints (nn/weights_io) and the cluster wire protocol, so the
// short-read/short-write reassembly contract is pinned here once.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <system_error>
#include <thread>
#include <vector>

#include "io/fdio.hpp"

namespace dronet {
namespace {

struct Pipe {
    io::UniqueFd rd;
    io::UniqueFd wr;
    Pipe() {
        int fds[2];
        if (::pipe(fds) != 0) throw std::system_error(errno, std::generic_category());
        rd.reset(fds[0]);
        wr.reset(fds[1]);
    }
};

TEST(Fdio, WriteFullReassemblesShortWritesAcrossPipeBuffer) {
    // 4 MB through a pipe whose kernel buffer is ~64 KB: write_full must loop
    // over many partial writes, read_full over many partial reads, and the
    // byte stream must come out exact.
    Pipe p;
    constexpr std::size_t kBytes = 4u << 20;
    std::vector<std::uint8_t> sent(kBytes);
    for (std::size_t i = 0; i < sent.size(); ++i) {
        sent[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
    }
    std::thread writer([&] { io::write_full(p.wr.get(), sent.data(), sent.size()); });
    std::vector<std::uint8_t> got(kBytes, 0);
    const std::size_t n = io::read_full(p.rd.get(), got.data(), got.size());
    writer.join();
    EXPECT_EQ(n, kBytes);
    EXPECT_EQ(std::memcmp(sent.data(), got.data(), kBytes), 0);
}

TEST(Fdio, ReadFullReassemblesDribbledShortReads) {
    // The writer trickles one byte at a time; a single read_full call still
    // returns the complete buffer.
    Pipe p;
    const std::uint8_t want[10] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    std::thread writer([&] {
        for (std::uint8_t b : want) {
            io::write_full(p.wr.get(), &b, 1);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });
    std::uint8_t got[10] = {};
    EXPECT_EQ(io::read_full(p.rd.get(), got, sizeof(got)), sizeof(got));
    writer.join();
    EXPECT_EQ(std::memcmp(want, got, sizeof(got)), 0);
}

TEST(Fdio, ReadFullReturnsShortCountAtEof) {
    Pipe p;
    const char partial[100] = {};
    io::write_full(p.wr.get(), partial, sizeof(partial));
    p.wr.reset();  // EOF after 100 bytes
    char buf[256];
    EXPECT_EQ(io::read_full(p.rd.get(), buf, sizeof(buf)), 100u);
    // Stream exhausted: the next read reports a clean zero-byte EOF.
    EXPECT_EQ(io::read_full(p.rd.get(), buf, sizeof(buf)), 0u);
}

TEST(Fdio, WriteFullThrowsWhenReaderIsGone) {
    io::ignore_sigpipe();  // EPIPE as an error return, not a process kill
    Pipe p;
    p.rd.reset();
    std::vector<std::uint8_t> payload(1u << 20, 0xab);
    EXPECT_THROW(io::write_full(p.wr.get(), payload.data(), payload.size()),
                 std::system_error);
}

/// Parts of odd sizes, an empty one among them, so the page-sized partial
/// writes of a pipe end inside different parts.
std::vector<std::vector<std::uint8_t>> gather_parts() {
    std::vector<std::vector<std::uint8_t>> parts;
    for (std::size_t n : {24u, 8u, 0u, 100003u, 1u, 7777u, 1u << 20}) {
        std::vector<std::uint8_t> part(n);
        for (std::size_t i = 0; i < n; ++i) {
            part[i] = static_cast<std::uint8_t>((i + parts.size()) * 2654435761u >> 11);
        }
        parts.push_back(std::move(part));
    }
    return parts;
}

std::vector<std::uint8_t> joined(const std::vector<std::vector<std::uint8_t>>& parts) {
    std::vector<std::uint8_t> all;
    for (const auto& p : parts) all.insert(all.end(), p.begin(), p.end());
    return all;
}

std::vector<iovec> iovecs(std::vector<std::vector<std::uint8_t>>& parts) {
    std::vector<iovec> iov;
    for (auto& p : parts) iov.push_back({p.data(), p.size()});
    return iov;
}

TEST(Fdio, GatherWriteFullReassemblesShortWritesAcrossParts) {
    // A reader that drains in small chunks makes writev return short counts
    // that end inside the parts; the stream must still come out in order.
    Pipe p;
    auto parts = gather_parts();
    const std::vector<iovec> iov = iovecs(parts);
    const std::vector<std::uint8_t> want = joined(parts);
    std::thread writer([&] { io::write_full(p.wr.get(), iov); });
    std::vector<std::uint8_t> got;
    std::uint8_t chunk[1000];
    while (got.size() < want.size()) {
        const std::size_t n = io::read_full(p.rd.get(), chunk,
                                            std::min(sizeof(chunk), want.size() - got.size()));
        ASSERT_GT(n, 0u);
        got.insert(got.end(), chunk, chunk + n);
    }
    writer.join();
    EXPECT_EQ(got, want);
}

std::atomic<int> g_signals{0};
extern "C" void count_signal(int) { g_signals.fetch_add(1); }

TEST(Fdio, GatherWriteFullRetriesEintr) {
    // A handler installed without SA_RESTART makes a writev blocked on a full
    // pipe fail with EINTR (or return short once some bytes went through);
    // write_full must carry on either way.
    struct sigaction sa = {};
    struct sigaction old = {};
    sa.sa_handler = count_signal;
    ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);
    g_signals.store(0);
    Pipe p;
    auto parts = gather_parts();
    const std::vector<iovec> iov = iovecs(parts);
    const std::vector<std::uint8_t> want = joined(parts);
    std::atomic<bool> done{false};
    std::thread writer([&] {
        io::write_full(p.wr.get(), iov);
        done.store(true);
    });
    // The pipe fills at ~64 KB, so the writer blocks; interrupt it there.
    for (int i = 0; i < 5; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ::pthread_kill(writer.native_handle(), SIGUSR1);
    }
    std::vector<std::uint8_t> got(want.size());
    EXPECT_EQ(io::read_full(p.rd.get(), got.data(), got.size()), got.size());
    writer.join();
    ::sigaction(SIGUSR1, &old, nullptr);
    EXPECT_TRUE(done.load());
    EXPECT_EQ(g_signals.load(), 5);
    EXPECT_EQ(got, want);
}

TEST(Fdio, UniqueFdClosesOnDestructionAndMoves) {
    int raw = -1;
    {
        Pipe p;
        raw = p.rd.get();
        ASSERT_NE(::fcntl(raw, F_GETFD), -1);
        io::UniqueFd moved = std::move(p.rd);
        EXPECT_FALSE(static_cast<bool>(p.rd));
        EXPECT_EQ(moved.get(), raw);
        ASSERT_NE(::fcntl(raw, F_GETFD), -1);  // still open while owned
    }
    EXPECT_EQ(::fcntl(raw, F_GETFD), -1);  // closed when the owner died
    // release() hands the fd back without closing.
    Pipe p2;
    const int kept = p2.wr.release();
    EXPECT_FALSE(static_cast<bool>(p2.wr));
    ASSERT_NE(::fcntl(kept, F_GETFD), -1);
    ::close(kept);
}

}  // namespace
}  // namespace dronet
