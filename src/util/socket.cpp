#include "src/util/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace satproof::util {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Socket::send_all(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t k = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

std::size_t Socket::recv_exact(void* data, std::size_t n) noexcept {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t k = ::recv(fd_, p + got, n - got, 0);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) break;
    got += static_cast<std::size_t>(k);
  }
  return got;
}

bool Socket::set_nonblocking() noexcept {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::ptrdiff_t Socket::recv_nonblocking(void* data, std::size_t n) noexcept {
  for (;;) {
    const ssize_t k = ::recv(fd_, data, n, 0);
    if (k >= 0) return k;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return kWouldBlock;
    return kIoError;
  }
}

std::ptrdiff_t Socket::send_nonblocking(const void* data,
                                        std::size_t n) noexcept {
  for (;;) {
    const ssize_t k = ::send(fd_, data, n, MSG_NOSIGNAL);
    if (k >= 0) return k;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    return kIoError;
  }
}

Socket listen_unix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Socket s(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!s.valid()) throw_errno("socket(AF_UNIX)");
  ::unlink(path.c_str());  // replace a stale socket file from a dead server
  if (::bind(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw_errno("bind(" + path + ")");
  }
  if (::listen(s.fd(), backlog) != 0) throw_errno("listen(" + path + ")");
  return s;
}

Socket listen_tcp_localhost(std::uint16_t port, int backlog) {
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) throw_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw_errno("bind(127.0.0.1:" + std::to_string(port) + ")");
  }
  if (::listen(s.fd(), backlog) != 0) throw_errno("listen(tcp)");
  return s;
}

std::uint16_t local_port(const Socket& listener) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(listener.fd(), reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0) {
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

Socket accept_connection(Socket& listener) {
  for (;;) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    return Socket();
  }
}

Socket connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Socket s(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!s.valid()) throw_errno("socket(AF_UNIX)");
  if (::connect(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    throw_errno("connect(" + path + ")");
  }
  return s;
}

Socket connect_tcp_localhost(std::uint16_t port) {
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) throw_errno("socket(AF_INET)");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    throw_errno("connect(127.0.0.1:" + std::to_string(port) + ")");
  }
  return s;
}

WakePipe::WakePipe() {
  int fds[2];
  if (::pipe(fds) != 0) throw_errno("pipe");
  read_fd = fds[0];
  write_fd = fds[1];
  // Non-blocking on both ends: notify() from a signal handler must never
  // block, and drain() loops until the pipe is empty.
  ::fcntl(write_fd, F_SETFL, O_NONBLOCK);
  ::fcntl(read_fd, F_SETFL, O_NONBLOCK);
}

WakePipe::~WakePipe() {
  if (read_fd >= 0) ::close(read_fd);
  if (write_fd >= 0) ::close(write_fd);
}

void WakePipe::notify() noexcept {
  const char byte = 'x';
  [[maybe_unused]] const ssize_t r = ::write(write_fd, &byte, 1);
}

void WakePipe::drain() noexcept {
  char buf[64];
  while (::read(read_fd, buf, sizeof(buf)) > 0) {
  }
}

}  // namespace satproof::util
