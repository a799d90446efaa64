#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

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
/// every pop and steal, so a burst of multi-MB uploads cannot starve
/// small submissions of worker time.
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

/// Bounded, sharded, two-lane work-stealing queue — the backpressure
/// point and the scheduler of the service.
///
/// Admission control lives here and nowhere else: try_enqueue refuses
/// when the queue holds `capacity` not-yet-started jobs across all shards
/// (the caller answers BUSY) or after close() (the caller answers
/// DRAINING).
///
/// Each worker owns one shard and pops from its front; an idle worker
/// steals from the *back* of other shards' deques. Lane priority is
/// strict and global: a fast-lane job on any shard is taken before a
/// bulk job on any shard, own shard first within each lane. Jobs are
/// distributed round-robin at enqueue, so under load every worker mostly
/// touches its own mutex; stealing only kicks in when shards go uneven.
///
/// close() stops admission but not draining: pop_blocking keeps handing
/// out queued jobs until every shard is empty, then returns nullopt to
/// each worker. Every admitted job is executed exactly once.
class ShardedJobQueue {
 public:
  /// `shards` is the worker count (>= 1); worker w owns shard w.
  ShardedJobQueue(unsigned shards, std::size_t capacity);

  enum class EnqueueResult { kAccepted, kFull, kClosed };

  /// Admits a job into its lane on a round-robin shard. On kFull/kClosed
  /// the job (and its temp files) is destroyed.
  EnqueueResult try_enqueue(QueuedJob&& job);

  /// Non-blocking take for worker `worker`: fast lane first (own shard's
  /// front, then other shards' backs), then the bulk lane the same way.
  /// nullopt when every shard is empty.
  std::optional<QueuedJob> try_pop(unsigned worker);

  /// Blocking take: waits until a job is available or the queue is closed
  /// *and* fully drained (nullopt — the worker should exit).
  std::optional<QueuedJob> pop_blocking(unsigned worker);

  /// Refuses all future enqueues (drain). Queued jobs still run.
  void close();

  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }
  /// Jobs admitted but not yet taken by a worker, across all shards.
  [[nodiscard]] std::size_t depth() const {
    return size_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] unsigned shards() const {
    return static_cast<unsigned>(shards_.size());
  }

  /// Point-in-time view of one shard, for metrics exposition.
  struct ShardSnapshot {
    std::size_t depth_fast = 0;  ///< fast-lane jobs waiting in the shard
    std::size_t depth_bulk = 0;
    std::uint64_t enqueued_fast = 0;  ///< cumulative fast-lane admissions
    std::uint64_t enqueued_bulk = 0;
    std::uint64_t steals = 0;  ///< jobs worker `shard` obtained by stealing
  };
  [[nodiscard]] ShardSnapshot shard_snapshot(unsigned shard) const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::deque<QueuedJob> fast;
    std::deque<QueuedJob> bulk;
    std::uint64_t enqueued_fast = 0;
    std::uint64_t enqueued_bulk = 0;
    /// Jobs the shard's *owner* obtained by stealing from someone else
    /// (guarded by the owner's shard mutex, read under it by snapshots).
    std::uint64_t steals = 0;
  };

  /// Pops from `shard`: front when the owner takes its own work, back
  /// when a thief steals. nullopt when the requested lane is empty.
  std::optional<QueuedJob> take(Shard& s, Lane lane, bool from_back);

  const std::size_t capacity_;
  std::vector<Shard> shards_;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::uint64_t> next_shard_{0};
  std::atomic<bool> closed_{false};

  // Two-phase sleep for idle workers: producers bump size_ first, then
  // touch sleep_mutex_ before notifying, so a worker that checked size_
  // under the mutex can never miss a wakeup.
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
};

}  // namespace satproof::service
