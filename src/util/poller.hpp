#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace satproof::util {

/// One readiness notification from EventPoller::wait.
struct PollEvent {
  std::uint64_t key = 0;  ///< caller-chosen identifier passed to add()
  bool readable = false;
  bool writable = false;
  /// Error or hangup on the descriptor. The caller should attempt a final
  /// read (to observe EOF / errno) and then drop the connection.
  bool error = false;
};

/// Level-triggered readiness multiplexer for the service's single I/O
/// thread, built on poll(2) so it behaves the same on every POSIX
/// platform. Each wait costs O(registered descriptors), which is fine for
/// the service's handful of listeners, pipes and client connections.
/// Descriptors are registered under a caller-chosen 64-bit key; the
/// poller never owns them.
///
/// Not thread-safe: one thread owns an EventPoller for its whole life.
class EventPoller {
 public:
  EventPoller() = default;

  EventPoller(const EventPoller&) = delete;
  EventPoller& operator=(const EventPoller&) = delete;

  /// Registers `fd` under `key`. `fd` must not already be registered.
  void add(int fd, std::uint64_t key, bool want_read, bool want_write);

  /// Updates the interest set of a registered descriptor.
  void modify(int fd, bool want_read, bool want_write);

  /// Unregisters a descriptor. Safe to call for an fd that was never
  /// added (no-op), so teardown paths need no bookkeeping.
  void remove(int fd);

  /// Number of registered descriptors.
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Blocks until at least one registered descriptor is ready or
  /// `timeout_ms` elapses (< 0 = wait forever). Clears and fills `out`;
  /// returns the number of events. EINTR is retried with the original
  /// timeout, which is fine for the service's coarse sweep cadence.
  std::size_t wait(int timeout_ms, std::vector<PollEvent>& out);

 private:
  struct Entry {
    int fd = -1;
    std::uint64_t key = 0;
    bool want_read = false;
    bool want_write = false;
  };

  Entry* find(int fd);

  // Registration table, scanned on every wait. Linear search is fine:
  // add/modify/remove are per-connection-lifetime events, not per-byte.
  std::vector<Entry> entries_;
};

}  // namespace satproof::util
