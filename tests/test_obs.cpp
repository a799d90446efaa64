// Unit tests for the observability layer: span recording and nesting,
// cross-thread interleaving into one sink, the slow-job span-tree
// collector, and Prometheus text exposition format.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/service/metrics.hpp"
#include "src/util/temp_file.hpp"

namespace satproof::obs {
namespace {

// ---------------------------------------------------------------- tracing

TEST(ObsTrace, SpanOutsideSessionRecordsNothing) {
  { Span span("orphan"); }
  TraceSession session;
  flush_this_thread();
  EXPECT_EQ(session.sink().event_count(), 0u);
}

TEST(ObsTrace, NestedSpansLandInTheSinkWithContainment) {
  TraceSession session;
  {
    Span outer("outer");
    {
      Span inner("inner");
    }
  }
  flush_this_thread();
  const std::string json = session.sink().to_chrome_json();
  ASSERT_EQ(session.sink().event_count(), 2u);

  // Spans close inner-first, so "inner" precedes "outer" in the buffer.
  // Containment: inner's [ts, ts+dur] within outer's.
  const std::regex ev(
      "\\{\"name\":\"(\\w+)\",\"ph\":\"X\",\"ts\":(\\d+),\"dur\":(\\d+)");
  std::sregex_iterator it(json.begin(), json.end(), ev), end;
  std::uint64_t inner_ts = 0, inner_end = 0, outer_ts = 0, outer_end = 0;
  int seen = 0;
  for (; it != end; ++it, ++seen) {
    const std::uint64_t ts = std::stoull((*it)[2]);
    const std::uint64_t dur = std::stoull((*it)[3]);
    if ((*it)[1] == "inner") {
      inner_ts = ts;
      inner_end = ts + dur;
    } else if ((*it)[1] == "outer") {
      outer_ts = ts;
      outer_end = ts + dur;
    }
  }
  EXPECT_EQ(seen, 2);
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_end, outer_end);
}

TEST(ObsTrace, ChromeJsonShapeIsValid) {
  TraceSession session;
  { Span span("stage"); }
  flush_this_thread();
  const std::string json = session.sink().to_chrome_json();
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_EQ(json.back(), '}');
}

TEST(ObsTrace, WriteFileRoundTrips) {
  util::TempFile out("obs-trace");
  {
    TraceSession session;
    { Span span("stage"); }
    flush_this_thread();
    ASSERT_TRUE(session.sink().write_file(out.path()));
  }
  std::ifstream in(out.path());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"name\":\"stage\""), std::string::npos);
}

TEST(ObsTrace, ThreadsInterleaveIntoOneSinkWithDistinctTids) {
  TraceSession session;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 300;  // crosses the flush threshold
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span span("worker_span");
      }
      // Remaining events flush via the thread-exit destructor.
    });
  }
  for (auto& t : threads) t.join();
  { Span span("main_span"); }
  flush_this_thread();

  EXPECT_EQ(session.sink().event_count(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread + 1);
  const std::string json = session.sink().to_chrome_json();
  const std::regex tid_re("\"tid\":(\\d+)");
  std::set<std::string> tids;
  for (std::sregex_iterator it(json.begin(), json.end(), tid_re), end;
       it != end; ++it) {
    tids.insert((*it)[1]);
  }
  EXPECT_GE(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST(ObsTrace, StaleBufferedEventsDoNotLeakIntoANewSession) {
  // A worker records a span under session 1 but holds it buffered past
  // session 1's death; when the buffer finally flushes (thread exit),
  // the generation mismatch must discard it instead of delivering it to
  // session 2's sink.
  std::optional<TraceSession> first(std::in_place);
  std::atomic<bool> recorded{false};
  std::atomic<bool> release{false};
  std::thread worker([&] {
    { Span span("stale_event"); }
    recorded.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!recorded.load()) std::this_thread::yield();
  first.reset();  // session 1 dies with the event still thread-buffered

  TraceSession fresh;
  release.store(true);
  worker.join();  // thread-exit flush sees a newer generation
  { Span span("fresh_span"); }
  flush_this_thread();
  const std::string json = fresh.sink().to_chrome_json();
  EXPECT_NE(json.find("fresh_span"), std::string::npos);
  EXPECT_EQ(json.find("stale_event"), std::string::npos);
}

TEST(ObsTrace, EmitRecordsAManualSpan) {
  TraceSession session;
  emit("manual", now_us(), 123);
  flush_this_thread();
  const std::string json = session.sink().to_chrome_json();
  EXPECT_NE(json.find("\"name\":\"manual\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":123"), std::string::npos);
}

// ---------------------------------------------------- span-tree collector

TEST(ObsSpanTree, CollectorBuildsAnIndentedTree) {
  SpanTreeCollector collector;
  set_thread_collector(&collector);
  {
    Span outer("run");
    {
      Span inner("parse");
    }
    {
      Span inner("replay");
    }
  }
  collector.add_leaf("queue_wait", 0, 1500);
  set_thread_collector(nullptr);

  const std::string tree = collector.render();
  // "run" at depth 0; parse/replay nested one level below.
  EXPECT_NE(tree.find("run "), std::string::npos);
  EXPECT_NE(tree.find("\n  parse "), std::string::npos);
  EXPECT_NE(tree.find("\n  replay "), std::string::npos);
  EXPECT_NE(tree.find("queue_wait 1.500 ms"), std::string::npos);
}

TEST(ObsSpanTree, CollectorWorksWithoutATraceSession) {
  // Slow-job profiling must not require a global trace sink.
  SpanTreeCollector collector;
  set_thread_collector(&collector);
  { Span span("solo"); }
  set_thread_collector(nullptr);
  EXPECT_FALSE(collector.empty());
  EXPECT_NE(collector.render().find("solo"), std::string::npos);

  // And spans after uninstall are ignored.
  { Span span("after"); }
  EXPECT_EQ(collector.render().find("after"), std::string::npos);
}

// ---------------------------------------------------------------- metrics

/// Every non-comment, non-blank line of a Prometheus exposition must be
/// `name{labels} value` with a parseable float value.
void expect_wellformed_prometheus(const std::string& text) {
  const std::regex sample(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.eE+-]+$)");
  const std::regex comment(R"(^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$)");
  std::istringstream in(text);
  std::string line;
  int samples = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(std::regex_match(line, comment)) << "bad comment: " << line;
    } else {
      EXPECT_TRUE(std::regex_match(line, sample)) << "bad sample: " << line;
      ++samples;
    }
  }
  EXPECT_GT(samples, 0);
}

TEST(ObsMetrics, RegistryCountersAccumulateAndRender) {
  Counter& c = MetricsRegistry::instance().counter(
      "satproof_test_counter_total", "Test counter.");
  const std::uint64_t before = c.value();
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), before + 42);

  // Same name returns the same counter.
  Counter& again = MetricsRegistry::instance().counter(
      "satproof_test_counter_total", "Test counter.");
  EXPECT_EQ(&again, &c);

  const std::string text = MetricsRegistry::instance().render_prometheus();
  EXPECT_NE(text.find("# HELP satproof_test_counter_total Test counter."),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE satproof_test_counter_total counter"),
            std::string::npos);
  expect_wellformed_prometheus(text);
}

TEST(ServiceMetrics, PercentilesNeverExceedTheMaximum) {
  // 0.14 ms falls in the [128, 256) us bucket, whose upper bound 0.256 ms
  // is above the only sample.
  service::LatencyHistogram h;
  h.record(0.00014);
  EXPECT_DOUBLE_EQ(h.max_ms(), 0.14);
  EXPECT_LE(h.percentile_ms(50), h.max_ms());
  EXPECT_LE(h.percentile_ms(99), h.max_ms());
  EXPECT_DOUBLE_EQ(h.percentile_ms(99), 0.14);
}

TEST(ObsMetrics, ServiceSnapshotExposesQueueBackendsAndCheckerCounters) {
  service::Metrics m;
  m.on_connection();
  m.on_accepted();
  m.on_completed(service::Backend::kDf, 0.010, true, 4096);
  m.on_slow_job();
  // Make sure the process-wide checker counters exist (they are created on
  // first use by run_check; tests may run before any check).
  (void)CheckerCounters::get();

  service::JobQueue::Snapshot queue;
  queue.depth_fast = 3;
  queue.depth_bulk = 1;
  queue.enqueued_fast = 4;
  queue.enqueued_bulk = 2;
  const std::string text = m.to_prometheus(queue, /*queue_capacity=*/64,
                                           /*running_jobs=*/1,
                                           /*workers=*/2);
  expect_wellformed_prometheus(text);
  EXPECT_NE(text.find("satproofd_queue_depth 4"), std::string::npos);
  EXPECT_NE(text.find("satproofd_running_jobs 1"), std::string::npos);
  EXPECT_NE(text.find("satproofd_workers 2"), std::string::npos);
  EXPECT_NE(text.find("satproofd_lane_queue_depth{lane=\"fast\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("satproofd_lane_queue_depth{lane=\"bulk\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("satproofd_lane_jobs_enqueued_total{lane=\"fast\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("satproofd_lane_jobs_enqueued_total{lane=\"bulk\"} 2"),
            std::string::npos);
  // One shared queue: no per-worker series, and nothing is stolen.
  EXPECT_EQ(text.find("satproofd_worker_steals_total"), std::string::npos);
  EXPECT_EQ(text.find("satproofd_worker_queue_depth"), std::string::npos);
  EXPECT_NE(text.find("satproofd_jobs_completed_total 1"), std::string::npos);
  EXPECT_NE(text.find("satproofd_slow_jobs_total 1"), std::string::npos);
  EXPECT_NE(
      text.find("satproofd_backend_jobs_completed_total{backend=\"df\"} 1"),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "satproofd_backend_jobs_completed_total{backend=\"window\"} 0"),
      std::string::npos);
  // Wire id 2 aliases window and id 3 is retired: neither gets a row.
  EXPECT_EQ(text.find("backend=\"hybrid\""), std::string::npos);
  EXPECT_EQ(text.find("backend=\"parallel\""), std::string::npos);
  EXPECT_NE(text.find("# TYPE satproof_resolutions_total counter"),
            std::string::npos);
}

/// The lines of `text` that contain `needle`, each with its newline.
std::string golden_lines(const std::string& text, const std::string& needle) {
  std::istringstream in(text);
  std::string line, kept;
  while (std::getline(in, line)) {
    if (line.find(needle) != std::string::npos) kept += line + "\n";
  }
  return kept;
}

/// A fixed service::Metrics state that sets every counter, every reported
/// backend row and both lanes. Each percentile it yields is a bucket bound
/// capped at its backend's max; only df's p50 (0.256 of 2.1 ms) is not.
void fill_golden_state(service::Metrics& m) {
  for (int i = 0; i < 3; ++i) m.on_connection();
  m.on_malformed_frame();
  for (int i = 0; i < 5; ++i) m.on_accepted();
  m.on_rejected_busy();
  m.on_rejected_busy();
  m.on_completed(service::Backend::kDf, 0.00014, true, 4096);
  m.on_completed(service::Backend::kDf, 0.0021, true, 8192);
  m.on_completed(service::Backend::kBf, 0.0375, false, 1024);
  m.on_completed(service::Backend::kWindow, 0.250, true, 65536);
  m.on_completed(service::Backend::kDrup, 1.5, true, 0);
  m.on_timeout(service::Backend::kWindow);
  m.on_slow_job();
  m.on_certified(true);
  m.on_certified(true);
  m.on_certified(false);
}

service::JobQueue::Snapshot golden_queue() {
  service::JobQueue::Snapshot queue;
  queue.depth_fast = 2;
  queue.depth_bulk = 1;
  queue.enqueued_fast = 7;
  queue.enqueued_bulk = 3;
  return queue;
}

TEST(ServiceMetricsGolden, JsonSnapshotIsPinned) {
  service::Metrics m;
  fill_golden_state(m);
  const std::string want =
      R"({"jobs":{"accepted":5,"rejected_busy":2,"completed":5,"failed":1,)"
      R"("timed_out":1,"slow":1,"certified":2,"certify_failed":1},)"
      R"("queue":{"depth":3,"capacity":64,"running":2,"depth_fast":2,)"
      R"("depth_bulk":1,"enqueued_fast":7,"enqueued_bulk":3},)"
      R"("workers":{"count":4},"protocol":{"connections":3,)"
      R"("malformed_frames":1},"arena_peak_bytes":65536,)"
      R"("backends":{"df":{"completed":2,"failed":0,"timed_out":0,)"
      R"("latency_ms":{"count":2,"p50":0.256,"p90":2.1,"p99":2.1,)"
      R"("max":2.1}},"bf":{"completed":1,"failed":1,"timed_out":0,)"
      R"("latency_ms":{"count":1,"p50":37.5,"p90":37.5,"p99":37.5,)"
      R"("max":37.5}},"drup":{"completed":1,"failed":0,"timed_out":0,)"
      R"("latency_ms":{"count":1,"p50":1500,"p90":1500,"p99":1500,)"
      R"("max":1500}},"window":{"completed":1,"failed":0,)"
      R"("timed_out":1,"latency_ms":{"count":1,"p50":250,"p90":250,)"
      R"("p99":250,"max":250}}}})";
  EXPECT_EQ(m.to_json(golden_queue(), 64, 2, 4), want);
}

TEST(ServiceMetricsGolden, PrometheusServiceSeriesArePinned) {
  service::Metrics m;
  fill_golden_state(m);
  const std::string want = R"(# HELP satproofd_connections_total Client connections accepted.
# TYPE satproofd_connections_total counter
satproofd_connections_total 3
# HELP satproofd_malformed_frames_total Protocol frames rejected as malformed.
# TYPE satproofd_malformed_frames_total counter
satproofd_malformed_frames_total 1
# HELP satproofd_jobs_accepted_total Jobs admitted to the queue.
# TYPE satproofd_jobs_accepted_total counter
satproofd_jobs_accepted_total 5
# HELP satproofd_jobs_rejected_busy_total Jobs rejected with BUSY backpressure.
# TYPE satproofd_jobs_rejected_busy_total counter
satproofd_jobs_rejected_busy_total 2
# HELP satproofd_jobs_completed_total Jobs that delivered a verdict.
# TYPE satproofd_jobs_completed_total counter
satproofd_jobs_completed_total 5
# HELP satproofd_jobs_failed_total Jobs whose verdict was not ok.
# TYPE satproofd_jobs_failed_total counter
satproofd_jobs_failed_total 1
# HELP satproofd_jobs_timed_out_total Jobs cancelled at their wall-clock deadline.
# TYPE satproofd_jobs_timed_out_total counter
satproofd_jobs_timed_out_total 1
# HELP satproofd_slow_jobs_total Jobs exceeding the --slow-job-ms threshold.
# TYPE satproofd_slow_jobs_total counter
satproofd_slow_jobs_total 1
# HELP satproofd_certified_total Certificates verified by the trusted kernel post-check.
# TYPE satproofd_certified_total counter
satproofd_certified_total 2
# HELP satproofd_certify_failed_total Certificates REJECTED by the trusted kernel post-check.
# TYPE satproofd_certify_failed_total counter
satproofd_certify_failed_total 1
# HELP satproofd_arena_peak_bytes Largest clause-arena peak observed over completed jobs.
# TYPE satproofd_arena_peak_bytes gauge
satproofd_arena_peak_bytes 65536
# HELP satproofd_queue_depth Jobs waiting in the queue.
# TYPE satproofd_queue_depth gauge
satproofd_queue_depth 3
# HELP satproofd_queue_capacity Configured queue capacity.
# TYPE satproofd_queue_capacity gauge
satproofd_queue_capacity 64
# HELP satproofd_running_jobs Jobs currently executing.
# TYPE satproofd_running_jobs gauge
satproofd_running_jobs 2
# HELP satproofd_workers Checker worker threads.
# TYPE satproofd_workers gauge
satproofd_workers 4
# HELP satproofd_lane_queue_depth Jobs waiting in the queue, by priority lane.
# TYPE satproofd_lane_queue_depth gauge
satproofd_lane_queue_depth{lane="fast"} 2
satproofd_lane_queue_depth{lane="bulk"} 1
# HELP satproofd_lane_jobs_enqueued_total Jobs admitted, by priority lane.
# TYPE satproofd_lane_jobs_enqueued_total counter
satproofd_lane_jobs_enqueued_total{lane="fast"} 7
satproofd_lane_jobs_enqueued_total{lane="bulk"} 3
# HELP satproofd_backend_jobs_completed_total Jobs completed, by checker backend.
# TYPE satproofd_backend_jobs_completed_total counter
satproofd_backend_jobs_completed_total{backend="df"} 2
satproofd_backend_jobs_completed_total{backend="bf"} 1
satproofd_backend_jobs_completed_total{backend="drup"} 1
satproofd_backend_jobs_completed_total{backend="window"} 1
# HELP satproofd_backend_jobs_failed_total Jobs with a non-ok verdict, by checker backend.
# TYPE satproofd_backend_jobs_failed_total counter
satproofd_backend_jobs_failed_total{backend="df"} 0
satproofd_backend_jobs_failed_total{backend="bf"} 1
satproofd_backend_jobs_failed_total{backend="drup"} 0
satproofd_backend_jobs_failed_total{backend="window"} 0
# HELP satproofd_backend_jobs_timed_out_total Jobs timed out, by checker backend.
# TYPE satproofd_backend_jobs_timed_out_total counter
satproofd_backend_jobs_timed_out_total{backend="df"} 0
satproofd_backend_jobs_timed_out_total{backend="bf"} 0
satproofd_backend_jobs_timed_out_total{backend="drup"} 0
satproofd_backend_jobs_timed_out_total{backend="window"} 1
# HELP satproofd_backend_latency_p99_ms Estimated p99 job latency in milliseconds, by backend.
# TYPE satproofd_backend_latency_p99_ms gauge
satproofd_backend_latency_p99_ms{backend="df"} 2.1000000000000001
satproofd_backend_latency_p99_ms{backend="bf"} 37.5
satproofd_backend_latency_p99_ms{backend="drup"} 1500
satproofd_backend_latency_p99_ms{backend="window"} 250
)";
  EXPECT_EQ(golden_lines(m.to_prometheus(golden_queue(), 64, 2, 4),
                         "satproofd_"),
            want);
}

}  // namespace
}  // namespace satproof::obs
