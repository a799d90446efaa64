#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>

#include "src/service/job_queue.hpp"
#include "src/service/run_check.hpp"

namespace satproof::service {

/// Fixed-bucket log-scale latency histogram (microsecond resolution).
///
/// Bucket i covers latencies in [2^i, 2^(i+1)) microseconds; bucket 0 also
/// absorbs sub-microsecond samples. 40 buckets reach ~12.7 days, far past
/// any job. Percentiles are reported as the upper bound of the bucket in
/// which the requested rank falls, capped at the largest recorded sample —
/// at most one power of two above the true value, which is the right
/// fidelity for a live counters endpoint (exact percentiles would need
/// unbounded sample storage).
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  void record(double seconds);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double max_ms() const { return max_ms_; }
  /// Upper-bound estimate of the p-th percentile (p in (0, 100]) in
  /// milliseconds, never above max_ms(); 0 when empty.
  [[nodiscard]] double percentile_ms(double p) const;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double max_ms_ = 0.0;
};

/// Live counters of one server instance. All mutators are internally
/// synchronized; to_json takes a consistent snapshot under the same lock.
/// The queue and running gauges are owned by the scheduler and passed in
/// at snapshot time (the metrics object has no back-pointer to the queue).
class Metrics {
 public:
  void on_connection();
  void on_malformed_frame();
  void on_accepted();
  void on_rejected_busy();
  /// Records one finished job: backend, wall-clock latency, and the
  /// arena peak of its checking run (wired from the --stats accounting).
  void on_completed(Backend backend, double seconds, bool ok,
                    std::size_t arena_peak_bytes);
  void on_timeout(Backend backend);
  /// Records one job whose wall time exceeded the --slow-job-ms threshold
  /// (the span-tree dump accompanies it on stderr).
  void on_slow_job();
  /// Records one trusted-kernel certificate post-check (serve --certify):
  /// `ok` is the kernel verdict.
  void on_certified(bool ok);

  /// Structured snapshot: jobs accepted/rejected/completed/failed,
  /// per-backend latency percentiles, queue gauges (total and per-lane
  /// depth, cumulative lane admissions), worker count and arena peak.
  /// The queue snapshot is owned by the scheduler and passed in at
  /// snapshot time.
  [[nodiscard]] std::string to_json(const JobQueue::Snapshot& queue,
                                    std::size_t queue_capacity,
                                    std::size_t running_jobs,
                                    unsigned workers) const;

  /// The same snapshot in Prometheus text exposition format
  /// (`satproofd_*` series plus the process-wide obs::MetricsRegistry).
  [[nodiscard]] std::string to_prometheus(const JobQueue::Snapshot& queue,
                                          std::size_t queue_capacity,
                                          std::size_t running_jobs,
                                          unsigned workers) const;

 private:
  struct BackendCounters {
    std::uint64_t completed = 0;  ///< verdict delivered (ok or rejected)
    std::uint64_t failed = 0;     ///< verdict was not ok
    std::uint64_t timed_out = 0;
    LatencyHistogram latency;
  };

  mutable std::mutex mutex_;
  std::uint64_t connections_ = 0;
  std::uint64_t malformed_frames_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_busy_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t timed_out_ = 0;
  std::uint64_t slow_jobs_ = 0;
  std::uint64_t certified_ = 0;       ///< kernel-verified certificates
  std::uint64_t certify_failed_ = 0;  ///< kernel REJECTs (emitter bug!)
  std::size_t arena_peak_bytes_ = 0;  ///< max over all completed jobs
  std::array<BackendCounters, kNumBackends> backends_{};
};

}  // namespace satproof::service
