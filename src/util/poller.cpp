#include "src/util/poller.hpp"

#include <cerrno>
#include <cstring>
#include <poll.h>
#include <stdexcept>
#include <string>

namespace satproof::util {

EventPoller::Entry* EventPoller::find(int fd) {
  for (Entry& e : entries_) {
    if (e.fd == fd) return &e;
  }
  return nullptr;
}

void EventPoller::add(int fd, std::uint64_t key, bool want_read,
                      bool want_write) {
  if (find(fd) != nullptr) {
    throw std::runtime_error("EventPoller::add: fd already registered");
  }
  entries_.push_back(Entry{fd, key, want_read, want_write});
}

void EventPoller::modify(int fd, bool want_read, bool want_write) {
  Entry* e = find(fd);
  if (e == nullptr) {
    throw std::runtime_error("EventPoller::modify: fd not registered");
  }
  e->want_read = want_read;
  e->want_write = want_write;
}

void EventPoller::remove(int fd) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].fd != fd) continue;
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    return;
  }
}

std::size_t EventPoller::wait(int timeout_ms, std::vector<PollEvent>& out) {
  out.clear();
  // Rebuild the pollfd array from the registration table. With nothing
  // registered, poll(2) still honours the timeout, so callers can use the
  // wait as a sleep.
  std::vector<pollfd> pfds;
  pfds.reserve(entries_.size());
  for (const Entry& e : entries_) {
    pollfd p{};
    p.fd = e.fd;
    if (e.want_read) p.events |= POLLIN;
    if (e.want_write) p.events |= POLLOUT;
    pfds.push_back(p);
  }
  int r;
  for (;;) {
    r = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms);
    if (r < 0 && errno == EINTR) continue;
    break;
  }
  if (r < 0) {
    throw std::runtime_error(std::string("poll: ") + std::strerror(errno));
  }
  for (std::size_t i = 0; i < pfds.size(); ++i) {
    const short rev = pfds[i].revents;
    if (rev == 0) continue;
    PollEvent pe;
    pe.key = entries_[i].key;
    pe.readable = (rev & POLLIN) != 0;
    pe.writable = (rev & POLLOUT) != 0;
    pe.error = (rev & (POLLERR | POLLHUP | POLLNVAL)) != 0;
    out.push_back(pe);
  }
  return out.size();
}

}  // namespace satproof::util
