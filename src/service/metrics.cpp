#include "src/service/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "src/obs/metrics.hpp"
#include "src/util/json.hpp"

namespace satproof::service {

namespace {

/// Wire ids that name a backend in their own right: 2 is an alias of
/// window and 3 is retired, so neither gets a metrics row.
bool reported_backend(std::uint8_t id) {
  return backend_from_wire(id) == static_cast<Backend>(id);
}

}  // namespace

void LatencyHistogram::record(double seconds) {
  const double us = std::max(seconds, 0.0) * 1e6;
  std::size_t bucket = 0;
  if (us >= 1.0) {
    bucket = static_cast<std::size_t>(std::log2(us));
    if (bucket >= kBuckets) bucket = kBuckets - 1;
  }
  ++buckets_[bucket];
  ++count_;
  max_ms_ = std::max(max_ms_, seconds * 1e3);
}

double LatencyHistogram::percentile_ms(double p) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 *
                static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank && rank > 0) {
      // Upper bound of bucket i, 2^(i+1) microseconds; no sample exceeds
      // the recorded maximum.
      return std::min(std::ldexp(1.0, static_cast<int>(i) + 1) / 1e3,
                      max_ms_);
    }
  }
  return max_ms_;
}

void Metrics::on_connection() {
  std::lock_guard lock(mutex_);
  ++connections_;
}

void Metrics::on_malformed_frame() {
  std::lock_guard lock(mutex_);
  ++malformed_frames_;
}

void Metrics::on_accepted() {
  std::lock_guard lock(mutex_);
  ++accepted_;
}

void Metrics::on_rejected_busy() {
  std::lock_guard lock(mutex_);
  ++rejected_busy_;
}

void Metrics::on_completed(Backend backend, double seconds, bool ok,
                           std::size_t arena_peak_bytes) {
  std::lock_guard lock(mutex_);
  ++completed_;
  if (!ok) ++failed_;
  arena_peak_bytes_ = std::max(arena_peak_bytes_, arena_peak_bytes);
  auto& bc = backends_[static_cast<std::size_t>(backend)];
  ++bc.completed;
  if (!ok) ++bc.failed;
  bc.latency.record(seconds);
}

void Metrics::on_timeout(Backend backend) {
  std::lock_guard lock(mutex_);
  ++timed_out_;
  ++backends_[static_cast<std::size_t>(backend)].timed_out;
}

void Metrics::on_slow_job() {
  std::lock_guard lock(mutex_);
  ++slow_jobs_;
}

void Metrics::on_certified(bool ok) {
  std::lock_guard lock(mutex_);
  if (ok) {
    ++certified_;
  } else {
    ++certify_failed_;
  }
}

std::string Metrics::to_json(const JobQueue::Snapshot& queue,
                             std::size_t queue_capacity,
                             std::size_t running_jobs,
                             unsigned workers) const {
  std::lock_guard lock(mutex_);
  util::JsonWriter w;
  w.begin_object();

  w.key("jobs");
  w.begin_object();
  w.key("accepted");
  w.value(accepted_);
  w.key("rejected_busy");
  w.value(rejected_busy_);
  w.key("completed");
  w.value(completed_);
  w.key("failed");
  w.value(failed_);
  w.key("timed_out");
  w.value(timed_out_);
  w.key("slow");
  w.value(slow_jobs_);
  w.key("certified");
  w.value(certified_);
  w.key("certify_failed");
  w.value(certify_failed_);
  w.end_object();

  w.key("queue");
  w.begin_object();
  w.key("depth");
  w.value(static_cast<std::uint64_t>(queue.depth()));
  w.key("capacity");
  w.value(static_cast<std::uint64_t>(queue_capacity));
  w.key("running");
  w.value(static_cast<std::uint64_t>(running_jobs));
  w.key("depth_fast");
  w.value(static_cast<std::uint64_t>(queue.depth_fast));
  w.key("depth_bulk");
  w.value(static_cast<std::uint64_t>(queue.depth_bulk));
  w.key("enqueued_fast");
  w.value(queue.enqueued_fast);
  w.key("enqueued_bulk");
  w.value(queue.enqueued_bulk);
  w.end_object();

  w.key("workers");
  w.begin_object();
  w.key("count");
  w.value(static_cast<std::uint64_t>(workers));
  w.end_object();

  w.key("protocol");
  w.begin_object();
  w.key("connections");
  w.value(connections_);
  w.key("malformed_frames");
  w.value(malformed_frames_);
  w.end_object();

  w.key("arena_peak_bytes");
  w.value(static_cast<std::uint64_t>(arena_peak_bytes_));

  w.key("backends");
  w.begin_object();
  for (std::uint8_t b = 0; b < kNumBackends; ++b) {
    if (!reported_backend(b)) continue;
    const auto& bc = backends_[b];
    w.key(backend_name(static_cast<Backend>(b)));
    w.begin_object();
    w.key("completed");
    w.value(bc.completed);
    w.key("failed");
    w.value(bc.failed);
    w.key("timed_out");
    w.value(bc.timed_out);
    w.key("latency_ms");
    w.begin_object();
    w.key("count");
    w.value(bc.latency.count());
    w.key("p50");
    w.value(bc.latency.percentile_ms(50));
    w.key("p90");
    w.value(bc.latency.percentile_ms(90));
    w.key("p99");
    w.value(bc.latency.percentile_ms(99));
    w.key("max");
    w.value(bc.latency.max_ms());
    w.end_object();
    w.end_object();
  }
  w.end_object();

  w.end_object();
  return w.take();
}

std::string Metrics::to_prometheus(const JobQueue::Snapshot& queue,
                                   std::size_t queue_capacity,
                                   std::size_t running_jobs,
                                   unsigned workers) const {
  struct Series {
    const char* name;
    const char* help;
    const char* type;
    double value;
  };
  struct Labeled {
    const char* name;
    const char* help;
    const char* type;
    double (*value)(const BackendCounters&);
  };
  std::string out;
  {
    std::lock_guard lock(mutex_);
    const Series series[] = {
        {"satproofd_connections_total", "Client connections accepted.",
         "counter", static_cast<double>(connections_)},
        {"satproofd_malformed_frames_total",
         "Protocol frames rejected as malformed.", "counter",
         static_cast<double>(malformed_frames_)},
        {"satproofd_jobs_accepted_total", "Jobs admitted to the queue.",
         "counter", static_cast<double>(accepted_)},
        {"satproofd_jobs_rejected_busy_total",
         "Jobs rejected with BUSY backpressure.", "counter",
         static_cast<double>(rejected_busy_)},
        {"satproofd_jobs_completed_total", "Jobs that delivered a verdict.",
         "counter", static_cast<double>(completed_)},
        {"satproofd_jobs_failed_total", "Jobs whose verdict was not ok.",
         "counter", static_cast<double>(failed_)},
        {"satproofd_jobs_timed_out_total",
         "Jobs cancelled at their wall-clock deadline.", "counter",
         static_cast<double>(timed_out_)},
        {"satproofd_slow_jobs_total",
         "Jobs exceeding the --slow-job-ms threshold.", "counter",
         static_cast<double>(slow_jobs_)},
        {"satproofd_certified_total",
         "Certificates verified by the trusted kernel post-check.",
         "counter", static_cast<double>(certified_)},
        {"satproofd_certify_failed_total",
         "Certificates REJECTED by the trusted kernel post-check.",
         "counter", static_cast<double>(certify_failed_)},
        {"satproofd_arena_peak_bytes",
         "Largest clause-arena peak observed over completed jobs.", "gauge",
         static_cast<double>(arena_peak_bytes_)},
        {"satproofd_queue_depth", "Jobs waiting in the queue.", "gauge",
         static_cast<double>(queue.depth())},
        {"satproofd_queue_capacity", "Configured queue capacity.", "gauge",
         static_cast<double>(queue_capacity)},
        {"satproofd_running_jobs", "Jobs currently executing.", "gauge",
         static_cast<double>(running_jobs)},
        {"satproofd_workers", "Checker worker threads.", "gauge",
         static_cast<double>(workers)},
    };
    for (const Series& s : series) {
      obs::append_header(out, s.name, s.help, s.type);
      obs::append_sample(out, s.name, s.value);
    }

    const char* depth = "satproofd_lane_queue_depth";
    obs::append_header(out, depth,
                       "Jobs waiting in the queue, by priority lane.",
                       "gauge");
    obs::append_sample(out, depth, static_cast<double>(queue.depth_fast),
                       "lane", "fast");
    obs::append_sample(out, depth, static_cast<double>(queue.depth_bulk),
                       "lane", "bulk");
    const char* enqueued = "satproofd_lane_jobs_enqueued_total";
    obs::append_header(out, enqueued, "Jobs admitted, by priority lane.",
                       "counter");
    obs::append_sample(out, enqueued,
                       static_cast<double>(queue.enqueued_fast), "lane",
                       "fast");
    obs::append_sample(out, enqueued,
                       static_cast<double>(queue.enqueued_bulk), "lane",
                       "bulk");

    const Labeled per_backend[] = {
        {"satproofd_backend_jobs_completed_total",
         "Jobs completed, by checker backend.", "counter",
         [](const BackendCounters& c) {
           return static_cast<double>(c.completed);
         }},
        {"satproofd_backend_jobs_failed_total",
         "Jobs with a non-ok verdict, by checker backend.", "counter",
         [](const BackendCounters& c) {
           return static_cast<double>(c.failed);
         }},
        {"satproofd_backend_jobs_timed_out_total",
         "Jobs timed out, by checker backend.", "counter",
         [](const BackendCounters& c) {
           return static_cast<double>(c.timed_out);
         }},
        {"satproofd_backend_latency_p99_ms",
         "Estimated p99 job latency in milliseconds, by backend.", "gauge",
         [](const BackendCounters& c) { return c.latency.percentile_ms(99); }},
    };
    for (const Labeled& l : per_backend) {
      obs::append_header(out, l.name, l.help, l.type);
      for (std::uint8_t b = 0; b < kNumBackends; ++b) {
        if (!reported_backend(b)) continue;
        obs::append_sample(out, l.name, l.value(backends_[b]), "backend",
                           backend_name(static_cast<Backend>(b)));
      }
    }
  }
  // Process-wide checker counters (resolutions, clauses built, ...) are
  // registered in the global registry by run_check.
  out += obs::MetricsRegistry::instance().render_prometheus();
  return out;
}

}  // namespace satproof::service
