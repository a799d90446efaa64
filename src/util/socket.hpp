#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace satproof::util {

/// RAII owner of one socket file descriptor, plus the handful of I/O
/// helpers the proof-checking service needs: Unix-domain and localhost TCP
/// sockets over POSIX.
///
/// EINTR is retried everywhere. Sends use MSG_NOSIGNAL (a peer that
/// disappeared yields an error return, never SIGPIPE).
class Socket {
 public:
  Socket() = default;
  /// Takes ownership of `fd` (-1 = empty).
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Closes the descriptor (idempotent).
  void close() noexcept;

  /// Writes all `n` bytes; returns false on any error (including a closed
  /// peer).
  bool send_all(const void* data, std::size_t n) noexcept;

  /// Reads exactly `n` bytes unless the peer closes or errors first;
  /// returns the number of bytes actually read (== n on success).
  std::size_t recv_exact(void* data, std::size_t n) noexcept;

  /// Puts the descriptor in O_NONBLOCK mode (the event-loop server runs
  /// every accepted connection and listener non-blocking). Returns false
  /// on failure.
  bool set_nonblocking() noexcept;

  /// Non-blocking read for event-loop use. Returns the byte count (> 0),
  /// 0 on orderly close, kWouldBlock when no data is available, or
  /// kIoError on a hard error. EINTR is retried.
  std::ptrdiff_t recv_nonblocking(void* data, std::size_t n) noexcept;

  /// Non-blocking write for event-loop use. Returns the number of bytes
  /// accepted (>= 0; 0 means the send buffer is full, try again on the
  /// next writable event), or kIoError on a hard error. EINTR is retried.
  std::ptrdiff_t send_nonblocking(const void* data, std::size_t n) noexcept;

  /// recv_nonblocking: no data available right now.
  static constexpr std::ptrdiff_t kWouldBlock = -1;
  /// recv_nonblocking / send_nonblocking: unrecoverable socket error.
  static constexpr std::ptrdiff_t kIoError = -2;

 private:
  int fd_ = -1;
};

/// Binds and listens on a Unix-domain socket at `path`, replacing a stale
/// socket file if one exists. Throws std::runtime_error on failure.
Socket listen_unix(const std::string& path, int backlog = 64);

/// Binds and listens on 127.0.0.1:`port` (0 = ephemeral). Throws
/// std::runtime_error on failure.
Socket listen_tcp_localhost(std::uint16_t port, int backlog = 64);

/// Actual bound port of a TCP listener (resolves port 0).
std::uint16_t local_port(const Socket& listener);

/// Accepts one connection; an invalid Socket means the listener was
/// closed/shut down or accept failed.
Socket accept_connection(Socket& listener);

/// Connects to a Unix-domain socket. Throws std::runtime_error on failure.
Socket connect_unix(const std::string& path);

/// Connects to 127.0.0.1:`port`. Throws std::runtime_error on failure.
Socket connect_tcp_localhost(std::uint16_t port);

/// Anonymous pipe for async-signal-safe wakeups: a signal handler write()s
/// one byte to `write_fd`, the poll loop sees `read_fd` readable.
struct WakePipe {
  WakePipe();  ///< throws std::runtime_error on failure
  ~WakePipe();
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  /// Async-signal-safe: writes one byte, ignoring errors (a full pipe
  /// still means the reader has a pending wakeup).
  void notify() noexcept;
  /// Drains any pending bytes.
  void drain() noexcept;

  int read_fd = -1;
  int write_fd = -1;
};

}  // namespace satproof::util
