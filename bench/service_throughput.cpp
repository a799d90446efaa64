// Throughput/latency benchmark for satproofd: an in-process server on a
// unix socket, N concurrent clients submitting wait-mode jobs round-robin
// over the solved suite, jobs/sec plus client-observed p50/p99 latency.
//
//   service_throughput [--quick] [--json FILE]
//
// Prints one JSON document (recorded in BENCH_service.json). --quick runs
// the small suite with fewer jobs — the CI-friendly smoke variant; --json
// additionally writes the document to FILE for tools/bench_compare.py.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/suite_runner.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/service/client.hpp"
#include "src/service/server.hpp"
#include "src/trace/binary.hpp"
#include "src/util/json.hpp"
#include "src/util/temp_file.hpp"
#include "src/util/timer.hpp"

namespace satproof {
namespace {

/// Replays an in-memory trace into another writer (here: the binary file
/// writer), so the bench feeds the service the same zero-copy mmap format
/// production clients use.
void pipe_trace(const trace::MemoryTrace& mt, trace::TraceWriter& w) {
  trace::MemoryTraceReader reader(mt);
  w.begin(reader.num_vars(), reader.num_original());
  trace::Record rec;
  while (reader.next(rec)) {
    switch (rec.kind) {
      case trace::RecordKind::Derivation:
        w.derivation(rec.id, rec.sources);
        break;
      case trace::RecordKind::FinalConflict:
        w.final_conflict(rec.id);
        break;
      case trace::RecordKind::Level0:
        w.level0(rec.var, rec.value, rec.antecedent);
        break;
      case trace::RecordKind::Assumption:
        w.assumption(rec.var, rec.value);
        break;
      case trace::RecordKind::End:
        break;
    }
    if (rec.kind == trace::RecordKind::End) break;
  }
  w.end();
}

struct OnDiskInstance {
  std::string name;
  util::TempFile cnf{"svc-bench-cnf"};
  util::TempFile trace{"svc-bench-trace"};
};

double percentile(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted_ms.size())));
  return sorted_ms[std::min(idx == 0 ? 0 : idx - 1, sorted_ms.size() - 1)];
}

struct RunResult {
  bool ok = false;
  int clients = 0;
  int jobs = 0;
  double seconds = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

// A failed job must NOT std::exit from inside a worker thread: that skips
// every TempFile destructor on the main thread and strands the on-disk
// CNF/trace/socket files in /tmp. Workers record the failure and bail out
// of their loop; the main thread reports it after joining.
RunResult run_load(const std::string& socket_path,
                   const std::vector<OnDiskInstance>& work, int clients,
                   int jobs_per_client) {
  std::vector<std::vector<double>> latencies_ms(
      static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  std::string first_error;
  util::Timer wall;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      service::Client client = service::Client::connect_unix(socket_path);
      for (int j = 0; j < jobs_per_client; ++j) {
        if (failed.load(std::memory_order_relaxed)) return;
        const OnDiskInstance& inst =
            work[static_cast<std::size_t>(c + j) % work.size()];
        util::Timer timer;
        const service::Client::SubmitReply reply = client.submit(
            inst.cnf.path().string(), inst.trace.path().string(),
            service::Backend::kDf, /*wait=*/true);
        if (!reply.transport_ok ||
            reply.status != service::JobStatus::kOk) {
          const std::lock_guard<std::mutex> lock(err_mu);
          if (!failed.exchange(true)) {
            first_error =
                "job failed on " + inst.name + ": " +
                (reply.error.empty() ? reply.verdict : reply.error);
          }
          return;
        }
        latencies_ms[static_cast<std::size_t>(c)].push_back(
            timer.elapsed_seconds() * 1e3);
      }
    });
  }
  for (auto& t : threads) t.join();
  if (failed.load()) {
    std::cerr << "FATAL: " << first_error << "\n";
    return RunResult{};  // ok=false; caller unwinds so RAII cleans up
  }

  RunResult res;
  res.ok = true;
  res.clients = clients;
  res.seconds = wall.elapsed_seconds();
  std::vector<double> all;
  for (const auto& v : latencies_ms) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  res.jobs = static_cast<int>(all.size());
  res.p50_ms = percentile(all, 50.0);
  res.p99_ms = percentile(all, 99.0);
  return res;
}

int run(bool quick, const std::string& json_path) {
  // Solve the suite once, then persist every instance as (DIMACS, binary
  // trace) so the service ingests real files through its streaming path.
  const encode::SuiteScale scale =
      quick ? encode::SuiteScale::Small : encode::SuiteScale::Standard;
  std::vector<bench::SolvedInstance> solved = bench::solve_suite(scale);
  std::vector<OnDiskInstance> work(solved.size());
  for (std::size_t i = 0; i < solved.size(); ++i) {
    work[i].name = solved[i].instance.name;
    dimacs::write_file(work[i].cnf.path().string(),
                       solved[i].instance.formula, work[i].name);
    std::ofstream out(work[i].trace.path(),
                      std::ios::out | std::ios::binary);
    trace::BinaryTraceWriter writer(out);
    pipe_trace(solved[i].trace, writer);
  }

  const std::vector<int> client_counts =
      quick ? std::vector<int>{1, 4} : std::vector<int>{1, 4, 8};
  const int jobs_per_client = quick ? 6 : 16;

  // Client-count sweep on a single worker: the historical baseline shape
  // (pinned to one worker so the series stays comparable across
  // scheduler rewrites).
  std::vector<RunResult> runs;
  {
    util::TempFile socket_file{"svc-bench-sock"};
    service::ServerOptions opts;
    opts.unix_socket_path = socket_file.path().string();
    opts.queue_capacity = 256;  // measure scheduling, not backpressure
    opts.workers = 1;
    service::Server server(opts);
    server.start();

    // One warmup pass so first-touch costs don't land in run #1.
    if (!run_load(opts.unix_socket_path, work, 1, 2).ok) {
      server.drain_and_wait();
      return 1;
    }
    for (const int clients : client_counts) {
      RunResult r =
          run_load(opts.unix_socket_path, work, clients, jobs_per_client);
      if (!r.ok) {
        server.drain_and_wait();
        return 1;
      }
      runs.push_back(r);
    }
    server.drain_and_wait();
  }

  // Worker-count sweep at a fixed client load: the multi-core scaling
  // curve. A fresh server per point so worker pools never share state.
  std::vector<unsigned> worker_counts{1, 2, 4};
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  if (std::find(worker_counts.begin(), worker_counts.end(), hw) ==
      worker_counts.end()) {
    worker_counts.push_back(hw);
  }
  const int sweep_clients = quick ? 4 : 8;
  std::vector<std::pair<unsigned, RunResult>> sweep;
  for (const unsigned workers : worker_counts) {
    util::TempFile socket_file{"svc-bench-sock"};
    service::ServerOptions opts;
    opts.unix_socket_path = socket_file.path().string();
    opts.queue_capacity = 256;
    opts.workers = workers;
    service::Server server(opts);
    server.start();
    if (!run_load(opts.unix_socket_path, work, 1, 2).ok) {  // warmup
      server.drain_and_wait();
      return 1;
    }
    RunResult r = run_load(opts.unix_socket_path, work, sweep_clients,
                           jobs_per_client);
    if (!r.ok) {
      server.drain_and_wait();
      return 1;
    }
    sweep.emplace_back(workers, r);
    server.drain_and_wait();
  }

  util::JsonWriter w;
  w.begin_object();
  w.key("bench");
  w.value("service_throughput");
  w.key("quick");
  w.value(quick);
  w.key("suite");
  w.value(quick ? "small" : "standard");
  w.key("backend");
  w.value("df");
  w.key("hardware_threads");
  w.value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("instances");
  w.begin_array();
  for (const auto& inst : work) w.value(inst.name);
  w.end_array();
  w.key("runs");
  w.begin_array();
  for (const RunResult& r : runs) {
    w.begin_object();
    w.key("clients");
    w.value(static_cast<std::int64_t>(r.clients));
    w.key("jobs");
    w.value(static_cast<std::int64_t>(r.jobs));
    w.key("seconds");
    w.value(r.seconds);
    w.key("jobs_per_sec");
    w.value(r.seconds > 0 ? static_cast<double>(r.jobs) / r.seconds : 0.0);
    w.key("p50_ms");
    w.value(r.p50_ms);
    w.key("p99_ms");
    w.value(r.p99_ms);
    w.end_object();
  }
  w.end_array();
  w.key("worker_sweep");
  w.begin_array();
  for (const auto& [workers, r] : sweep) {
    w.begin_object();
    w.key("workers");
    w.value(static_cast<std::int64_t>(workers));
    w.key("clients");
    w.value(static_cast<std::int64_t>(r.clients));
    w.key("jobs");
    w.value(static_cast<std::int64_t>(r.jobs));
    w.key("seconds");
    w.value(r.seconds);
    w.key("jobs_per_sec");
    w.value(r.seconds > 0 ? static_cast<double>(r.jobs) / r.seconds : 0.0);
    w.key("p50_ms");
    w.value(r.p50_ms);
    w.key("p99_ms");
    w.value(r.p99_ms);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  const std::string doc = w.take();
  std::cout << doc << "\n";
  if (!json_path.empty()) {
    std::ofstream js(json_path);
    if (!js) {
      std::cerr << "FATAL: cannot open " << json_path << "\n";
      return 1;
    }
    js << doc << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace satproof

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: service_throughput [--quick] [--json FILE]\n";
      return 1;
    }
  }
  return satproof::run(quick, json_path);
}
