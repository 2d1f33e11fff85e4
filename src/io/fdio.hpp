// EINTR-safe full-buffer POSIX I/O.
//
// Two call sites share these helpers deliberately (one definition of the
// retry loop, not two divergent copies): the crash-safe checkpoint writer in
// nn/weights_io, and the length-prefixed socket framing in src/cluster. Both
// need the same contract — a read or write of N bytes either transfers all N,
// stops early at end-of-stream (reads only), or throws — and both run in
// processes where signals (worker respawns, chaos tests sending SIGTERM/
// SIGCHLD) routinely interrupt syscalls mid-transfer.
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <span>
#include <utility>

namespace dronet::io {

/// Reads until `n` bytes have arrived or the stream ends, retrying on EINTR
/// and short reads. Returns the number of bytes actually read: `n` normally,
/// less only when end-of-file/peer-close intervened (0 for EOF at a clean
/// boundary). Throws std::system_error on a read error.
[[nodiscard]] std::size_t read_full(int fd, void* buf, std::size_t n);

/// Writes all `n` bytes, retrying on EINTR and short writes (sockets and
/// pipes routinely accept fewer bytes than asked under pressure). Throws
/// std::system_error on a write error, including EPIPE when the peer is gone
/// (callers must ignore SIGPIPE; see ignore_sigpipe()). The gather overload
/// below with one part.
void write_full(int fd, const void* buf, std::size_t n);

/// Gather write: sends every byte of `parts`, in order, as one stream with
/// writev, so a header and a payload in different buffers leave without a
/// copy into one. Retries EINTR and short writes the same way (a short write
/// may end anywhere, inside any part). Empty parts are skipped.
void write_full(int fd, std::span<const iovec> parts);

/// Installs SIG_IGN for SIGPIPE (idempotent) so a write to a dead peer
/// surfaces as an EPIPE std::system_error instead of killing the process.
/// Every cluster entry point (router, worker, tools) calls this first.
void ignore_sigpipe();

/// Minimal RAII file descriptor: closes on destruction, move-only.
class UniqueFd {
  public:
    UniqueFd() = default;
    explicit UniqueFd(int fd) noexcept : fd_(fd) {}
    ~UniqueFd() { reset(); }
    UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
    UniqueFd& operator=(UniqueFd&& other) noexcept {
        if (this != &other) reset(other.release());
        return *this;
    }
    UniqueFd(const UniqueFd&) = delete;
    UniqueFd& operator=(const UniqueFd&) = delete;

    [[nodiscard]] int get() const noexcept { return fd_; }
    [[nodiscard]] explicit operator bool() const noexcept { return fd_ >= 0; }
    [[nodiscard]] int release() noexcept { return std::exchange(fd_, -1); }
    /// Closes the held descriptor (if any) and adopts `fd`.
    void reset(int fd = -1) noexcept;

  private:
    int fd_ = -1;
};

}  // namespace dronet::io
