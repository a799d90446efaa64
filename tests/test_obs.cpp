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

TEST(ObsMetrics, GaugesSampleTheirCallbackAtRenderTime) {
  double value = 1.0;
  MetricsRegistry::instance().register_gauge(
      "satproof_test_gauge", "Test gauge.", [&value] { return value; });
  std::string text = MetricsRegistry::instance().render_prometheus();
  EXPECT_NE(text.find("satproof_test_gauge 1"), std::string::npos);
  value = 7.5;
  text = MetricsRegistry::instance().render_prometheus();
  EXPECT_NE(text.find("satproof_test_gauge 7.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE satproof_test_gauge gauge"), std::string::npos);
  MetricsRegistry::instance().unregister_gauge("satproof_test_gauge");
  text = MetricsRegistry::instance().render_prometheus();
  EXPECT_EQ(text.find("satproof_test_gauge"), std::string::npos);
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

}  // namespace
}  // namespace satproof::obs
