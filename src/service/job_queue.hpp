#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>

#include "src/service/run_check.hpp"
#include "src/util/temp_file.hpp"

namespace satproof::service {

/// One admitted proof-checking job. The CNF and trace were streamed to
/// temp files during upload; the request owns them, so their bytes live
/// exactly as long as the job does.
struct JobRequest {
  std::uint64_t id = 0;
  Backend backend = Backend::kDf;
  std::uint32_t timeout_ms = 0;  ///< wall-clock budget from enqueue; 0 = none
  bool certify = false;  ///< emit an LRAT certificate (kSubmitFlagCertify)
  util::TempFile cnf_file;
  util::TempFile trace_file;
  std::chrono::steady_clock::time_point enqueued_at;
  /// Upload duration (SUBMIT to SUBMIT_END) on the ingest loop, carried
  /// along so the job's span tree can include the ingest stage.
  std::uint64_t ingest_us = 0;
};

/// Priority lane of an admitted job. Fast jobs overtake bulk jobs at
/// every pop, so a burst of multi-MB uploads cannot starve small
/// submissions of worker time.
enum class Lane : std::uint8_t {
  kFast = 0,
  kBulk = 1,
};

/// Upload size at which a job is classed as bulk. Chosen from the
/// suite shape: every Table-2 instance's CNF + binary trace is well under
/// 1 MiB, while "someone replaying an overnight solver log" is tens of MB.
inline constexpr std::uint64_t kBulkLaneThresholdBytes = 1u << 20;

/// Lane for a job whose upload totalled `bytes` (declared, or measured at
/// ingest when the client declared nothing).
[[nodiscard]] inline Lane lane_for_bytes(std::uint64_t bytes) {
  return bytes >= kBulkLaneThresholdBytes ? Lane::kBulk : Lane::kFast;
}

/// Worker-side completion: invoked exactly once, on the worker thread,
/// with the job's outcome. The server's callback encodes the result frame
/// and hands it to the I/O loop; it must not block.
using JobCompletion = std::function<void(JobOutcome outcome, bool timed_out)>;

/// A job plus its scheduling metadata, as stored in the queue.
struct QueuedJob {
  JobRequest request;
  Lane lane = Lane::kFast;
  JobCompletion on_done;
};

/// Bounded two-lane FIFO queue — the backpressure point and the
/// scheduler of the service.
///
/// Admission control lives here and nowhere else: try_enqueue refuses
/// when the queue holds `capacity` not-yet-started jobs (the caller
/// answers BUSY) or after close() (the caller answers DRAINING).
///
/// Lane priority is strict: every fast-lane job leaves before any bulk
/// job. Within a lane, jobs leave in admission order. One mutex guards
/// both lanes; a pop is one lock, one deque front.
///
/// close() stops admission but not draining: pop_blocking keeps handing
/// out queued jobs until both lanes are empty, then returns nullopt to
/// every caller. Every admitted job is executed exactly once.
class JobQueue {
 public:
  explicit JobQueue(std::size_t capacity);

  enum class EnqueueResult { kAccepted, kFull, kClosed };

  /// Admits a job at the back of its lane. On kFull/kClosed the job (and
  /// its temp files) is destroyed.
  EnqueueResult try_enqueue(QueuedJob&& job);

  /// Non-blocking take: the oldest fast-lane job, else the oldest bulk
  /// job. nullopt when both lanes are empty.
  std::optional<QueuedJob> try_pop();

  /// Blocking take: waits until a job is available or the queue is closed
  /// *and* fully drained (nullopt — the worker should exit).
  std::optional<QueuedJob> pop_blocking();

  /// Refuses all future enqueues (drain). Queued jobs still run.
  void close();

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Point-in-time view of the queue, for metrics exposition.
  struct Snapshot {
    std::size_t depth_fast = 0;  ///< fast-lane jobs waiting
    std::size_t depth_bulk = 0;
    std::uint64_t enqueued_fast = 0;  ///< cumulative fast-lane admissions
    std::uint64_t enqueued_bulk = 0;
    /// Jobs admitted but not yet taken by a worker, both lanes.
    [[nodiscard]] std::size_t depth() const { return depth_fast + depth_bulk; }
  };
  [[nodiscard]] Snapshot snapshot() const;

 private:
  /// Pops the front of the first non-empty lane; caller holds mutex_.
  std::optional<QueuedJob> take_locked();

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<QueuedJob> fast_;
  std::deque<QueuedJob> bulk_;
  std::uint64_t enqueued_fast_ = 0;
  std::uint64_t enqueued_bulk_ = 0;
  bool closed_ = false;
};

}  // namespace satproof::service
