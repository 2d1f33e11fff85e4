#include "io/fdio.hpp"

#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <system_error>

namespace dronet::io {

std::size_t read_full(int fd, void* buf, std::size_t n) {
    auto* p = static_cast<char*>(buf);
    std::size_t done = 0;
    while (done < n) {
        const ssize_t got = ::read(fd, p + done, n - done);
        if (got > 0) {
            done += static_cast<std::size_t>(got);
            continue;
        }
        if (got == 0) break;  // end of stream
        if (errno == EINTR) continue;
        throw std::system_error(errno, std::generic_category(), "read_full");
    }
    return done;
}

void write_full(int fd, const void* buf, std::size_t n) {
    const iovec part{const_cast<void*>(buf), n};
    write_full(fd, std::span<const iovec>(&part, 1));
}

void write_full(int fd, std::span<const iovec> parts) {
    constexpr std::size_t kBatch = 8;  // parts handed to one writev
    std::size_t i = 0;    // first part not fully written
    std::size_t off = 0;  // bytes of parts[i] already written
    for (;;) {
        while (i < parts.size() && parts[i].iov_len == off) {
            ++i;
            off = 0;
        }
        if (i == parts.size()) return;
        iovec batch[kBatch];
        int count = 0;
        for (std::size_t j = i; j < parts.size() && count < static_cast<int>(kBatch); ++j) {
            batch[count] = parts[j];
            if (j == i) {
                batch[count].iov_base = static_cast<char*>(parts[j].iov_base) + off;
                batch[count].iov_len -= off;
            }
            ++count;
        }
        const ssize_t put = ::writev(fd, batch, count);
        if (put < 0 && errno == EINTR) continue;
        // writev() returning 0 with bytes left is only possible for exotic
        // fds; treat it as an error rather than spinning.
        if (put <= 0) {
            throw std::system_error(put < 0 ? errno : EIO, std::generic_category(),
                                    "write_full");
        }
        for (auto left = static_cast<std::size_t>(put); left > 0;) {
            const std::size_t room = parts[i].iov_len - off;
            if (left < room) {
                off += left;
                break;
            }
            left -= room;
            ++i;
            off = 0;
        }
    }
}

void ignore_sigpipe() { std::signal(SIGPIPE, SIG_IGN); }

void UniqueFd::reset(int fd) noexcept {
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
}

}  // namespace dronet::io
