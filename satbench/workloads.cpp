// The four workloads. Each one: set up kSetupReps times (the last setup is
// kept), run its ops for ctx.seconds, check every op's outcome against the
// input's known answer, and report end-to-end metrics — or, in a traced run,
// an untraced half, a traced half and the layer probes.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "satbench/workloads.hpp"
#include "src/cert/kernel.hpp"
#include "src/service/client.hpp"
#include "src/util/rng.hpp"

namespace satbench {

namespace {

using satproof::service::Backend;
using satproof::service::Client;
using satproof::service::JobStatus;

constexpr int kSetupReps = 3;
/// svc-small: pool size, injected-fault share, offered rate (jobs/s, below
/// saturation of a 2-worker daemon on a 4-thread host) and generator
/// connections.
constexpr std::size_t kSmallPool = 36;
constexpr std::size_t kSmallFaults = 4;
constexpr double kSvcRate = 250;
constexpr unsigned kSvcConnections = 4;
constexpr unsigned kCertifyClients = 2;
/// check-stream's --mem-limit: below the DF need (~6x trace bytes) of every
/// solver trace but bw8's, which stays on DF; clique9_c8 lands in the
/// hybrid band, everything larger in window.
constexpr std::size_t kStreamBudget = 2560u << 10;
/// Ladder traces: check-large checks four (seeded apart), check-stream the
/// first two. Equal sizes keep a round's slowest ops alike from seed to
/// seed.
constexpr std::uint64_t kLadderBytes = 16u << 20;
constexpr std::size_t kLargeLadders = 4;
constexpr std::size_t kStreamLadders = 2;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  return seed * 0x9e3779b97f4a7c15ULL ^ (salt * 0xbf58476d1ce4e5b9ULL);
}

/// Inputs plus, for service workloads, the running daemon.
struct Prepared {
  std::vector<Input> inputs;
  SolveTotals solve;
  std::unique_ptr<Daemon> daemon;
  std::string socket;
};

/// The harness's own resident size. A child's wait4 peak can never read
/// below the parent's size at fork, so this is the floor of peak_rss_mb.
double self_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return 0;
}

/// Runs `setup` kSetupReps times, each into a fresh directory with
/// identical work; keeps the last result and reports the median duration.
Prepared timed_setup(const Context& ctx,
                     const std::function<Prepared(const fs::path&)>& setup,
                     double& setup_s, RunResult& r) {
  std::vector<double> times;
  Prepared keep;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const fs::path dir = ctx.work_dir / ("setup" + std::to_string(rep));
    fs::create_directories(dir);
    const double t0 = now_s();
    Prepared p = setup(dir);
    times.push_back(now_s() - t0);
    if (rep + 1 < kSetupReps) {
      if (p.daemon) p.daemon->stop();
      fs::remove_all(dir);
    } else {
      keep = std::move(p);
    }
  }
  setup_s = quantile(times, 0.5);
  r.notes.push_back("harness RSS after setup: " +
                    std::to_string(self_rss_mb()) + " MiB");
  return keep;
}


void start_daemon(const Context& ctx, Prepared& p, const fs::path& dir,
                  bool certify) {
  p.socket = (dir / "d.sock").string();
  std::vector<std::string> argv = {ctx.satproof(), "serve",  "--socket",
                                   p.socket,       "--workers", "2",
                                   "--queue",      "256"};
  if (certify) argv.push_back("--certify");
  p.daemon = std::make_unique<Daemon>(argv, dir / "daemon.log", dir);
  const double deadline = now_s() + 30;
  for (;;) {
    try {
      (void)Client::connect_unix(p.socket);
      return;
    } catch (const std::exception&) {
      if (now_s() > deadline) throw std::runtime_error("satproofd not up");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

/// Does a service reply match the input's known answer?
bool reply_ok(const Client::SubmitReply& r, const Input& in, bool certify) {
  if (!r.transport_ok || !r.accepted || !r.have_result) return false;
  if (!in.expect_ok) return r.status == JobStatus::kCheckFailed;
  return r.status == JobStatus::kOk && r.verdict.rfind("VERIFIED", 0) == 0 &&
         (!certify || r.have_certificate);
}

/// Mean over op kinds of each kind's mean value, so every kind of the mix
/// counts once however many of its ops a run happened to issue.
double kind_mean(const std::vector<std::size_t>& kinds,
                 const std::vector<double>& values, std::size_t n_kinds) {
  std::vector<double> sum(n_kinds, 0), cnt(n_kinds, 0);
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    sum[kinds[i]] += values[i];
    cnt[kinds[i]] += 1;
  }
  double total = 0;
  std::size_t seen = 0;
  for (std::size_t k = 0; k < n_kinds; ++k) {
    if (cnt[k] == 0) continue;
    total += sum[k] / cnt[k];
    ++seen;
  }
  return seen > 0 ? total / static_cast<double>(seen) : 0;
}

/// Polls the daemon's stats over its own connection while a traced half
/// runs: queue-depth high-water mark, work steals, stats_json round trip.
class StatsSampler {
 public:
  StatsSampler(const std::string& socket, Tracer& tracer)
      : thread_([this, socket, &tracer] { poll(socket, tracer); }) {}

  /// Stops polling and records what was seen.
  void finish(LayerReport& l) {
    stop_ = true;
    thread_.join();
    l.queue_depth_max = depth_max_;
    l.steals = std::max(0.0, steals_last_ - steals_first_);
    l.stats_ms = mean(ms_);
  }

 private:
  void poll(const std::string& socket, Tracer& tracer) {
    Client c = Client::connect_unix(socket);
    for (std::uint64_t op = 1u << 29; !stop_.load(); ++op) {
      const double t0 = now_s();
      std::string json;
      {
        Tracer::Span span(tracer, "service.Client::stats_json", op);
        json = c.stats_json();
      }
      ms_.push_back((now_s() - t0) * 1e3);
      depth_max_ =
          std::max(depth_max_, json_number(json, "depth").value_or(0));
      double steals = 0;
      for (std::size_t at = 0;
           (at = json.find("\"steals\":", at)) != std::string::npos; ++at) {
        steals += json_number(json, "steals", at).value_or(0);
      }
      if (steals_first_ < 0) steals_first_ = steals;
      steals_last_ = steals;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  std::atomic<bool> stop_{false};
  std::vector<double> ms_;
  double depth_max_ = 0;
  double steals_first_ = -1;
  double steals_last_ = 0;
  std::jthread thread_;  // last: joins before the members it uses go away
};

/// One pass over a workload's op mix: its ops' latencies and the time, from
/// the phase start, at which its last op completed.
struct Round {
  std::vector<double> latency_s;
  double end_s = 0;
};

/// Latency and throughput are medians over the run's rounds: each round's
/// median and slowest op, and its ops over the time since the previous
/// round ended. A host slowdown of a few seconds then spoils a few rounds,
/// not the run's figures.
void add_end_to_end(RunResult& r, double setup_s,
                    const std::vector<Round>& rounds, double peak_rss_mb) {
  std::vector<double> p50, slowest, rate;
  double prev_end = 0;
  for (const Round& round : rounds) {
    p50.push_back(quantile(round.latency_s, 0.5) * 1e3);
    slowest.push_back(
        *std::max_element(round.latency_s.begin(), round.latency_s.end()) *
        1e3);
    const double end = std::max(prev_end, round.end_s);
    if (end > prev_end) {
      rate.push_back(static_cast<double>(round.latency_s.size()) /
                     (end - prev_end));
    }
    prev_end = end;
  }
  r.notes.push_back("latency_tail_ms is the median over " +
                    std::to_string(rounds.size()) +
                    " rounds of each round's slowest op");
  if (rounds.size() < 3) r.notes.push_back("warning: fewer than 3 rounds");
  r.metric("setup_s", setup_s, "s");
  r.metric("latency_p50_ms", median(p50), "ms");
  r.metric("latency_tail_ms", median(slowest), "ms");
  r.metric("ops_per_s", median(rate), "1/s");
  r.metric("peak_rss_mb", peak_rss_mb, "MiB");
  r.metric("ok_rate",
           r.attempted > 0 ? 1.0 - static_cast<double>(r.failed) /
                                       static_cast<double>(r.attempted)
                           : 0,
           "ratio");
}

// ================================================================ svc-small

struct OpenLoopJob {
  double due = 0;
  std::size_t input = 0;
  double sent = 0;
  double done = 0;
  bool ok = false;
};

std::vector<OpenLoopJob> poisson_schedule(std::uint64_t seed, double rate,
                                          double duration, std::size_t pool) {
  satproof::util::Rng rng(seed);
  std::vector<OpenLoopJob> jobs;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.next_double()) / rate;
    if (t >= duration) break;
    OpenLoopJob j;
    j.due = t;
    j.input = rng.next_below(pool);
    jobs.push_back(j);
  }
  return jobs;
}

/// Sends `jobs` on their schedule over kSvcConnections connections; times
/// are relative to the phase start.
void run_open_loop(const Prepared& p, std::vector<OpenLoopJob>& jobs,
                   Tracer& tracer, std::uint64_t op_base) {
  std::atomic<std::size_t> next{0};
  const double t0 = now_s() + 0.01;
  auto sender = [&] {
    std::optional<Client> client;
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= jobs.size()) break;
      OpenLoopJob& j = jobs[i];
      const double wait = t0 + j.due - now_s();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      j.sent = now_s() - t0;
      const Input& in = p.inputs[j.input];
      try {
        if (!client) client.emplace(Client::connect_unix(p.socket));
        Tracer::Span span(tracer, "service.Client::submit", op_base + i);
        const auto reply = client->submit(in.cnf, in.trace, Backend::kDf, true);
        j.ok = reply_ok(reply, in, false);
        if (!reply.transport_ok) client.reset();
      } catch (const std::exception&) {
        client.reset();
      }
      j.done = now_s() - t0;
    }
  };
  std::vector<std::jthread> threads;
  for (unsigned c = 0; c < kSvcConnections; ++c) threads.emplace_back(sender);
}

Prepared setup_svc_small(const Context& ctx, const fs::path& dir) {
  Prepared p;
  std::vector<SolveJob> jobs;
  for (Instance& inst : small_instances(ctx.seed, kSmallPool)) {
    jobs.push_back({std::move(inst)});
  }
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  satproof::util::Rng rng(mix_seed(ctx.seed, 1));
  rng.shuffle(order.begin(), order.end());
  for (std::size_t k = 0; k < kSmallFaults; ++k) {
    jobs[order[k]].fault_seed = mix_seed(ctx.seed, 100 + k) | 1;
  }
  p.inputs = solve_all(std::move(jobs), dir, p.solve);
  start_daemon(ctx, p, dir, false);
  Client warm = Client::connect_unix(p.socket);
  for (const Input& in : p.inputs) {
    (void)warm.submit(in.cnf, in.trace, Backend::kDf, true);
  }
  return p;
}

RunResult run_svc_small(const Context& ctx, Tracer& tracer) {
  RunResult r;
  double setup_s = 0;
  Prepared p = timed_setup(
      ctx, [&](const fs::path& d) { return setup_svc_small(ctx, d); },
      setup_s, r);

  auto account = [&](const std::vector<OpenLoopJob>& jobs) {
    for (const auto& j : jobs) {
      ++r.attempted;
      if (!j.ok) r.mismatch("job on " + p.inputs[j.input].name);
    }
  };
  auto latencies = [](const std::vector<OpenLoopJob>& jobs) {
    std::vector<double> v;
    for (const auto& j : jobs) v.push_back(j.done - j.due);
    return v;
  };
  // Open-loop validity: the jobs due by the end of the schedule must have
  // completed by then, up to what is legitimately in flight.
  auto sustained = [&](const std::vector<OpenLoopJob>& jobs, double dur) {
    std::size_t done = 0;
    for (const auto& j : jobs) done += j.done <= dur ? 1 : 0;
    const std::size_t backlog = jobs.size() - done;
    const bool ok = backlog <= std::max<std::size_t>(8, jobs.size() / 50);
    if (!ok) {
      r.notes.push_back("open loop NOT sustained: backlog " +
                        std::to_string(backlog) + " of " +
                        std::to_string(jobs.size()) + " jobs at schedule end");
    }
    return ok;
  };
  auto lateness = [](const std::vector<OpenLoopJob>& jobs) {
    std::vector<double> v;
    for (const auto& j : jobs) v.push_back(j.sent - j.due);
    return v;
  };
  if (!ctx.trace) {
    auto jobs = poisson_schedule(mix_seed(ctx.seed, 2), kSvcRate, ctx.seconds,
                                 p.inputs.size());
    run_open_loop(p, jobs, tracer, 0);
    const double rss = p.daemon->stop();
    account(jobs);
    const bool ok = sustained(jobs, ctx.seconds);
    r.notes.push_back("loadgen late p99 ms: " +
                      std::to_string(quantile(lateness(jobs), 0.99) * 1e3) +
                      (ok ? " (sustained)" : " (NOT sustained)"));
    // A round is one second's worth of the schedule, in due order.
    std::vector<Round> rounds;
    const auto per_round = static_cast<std::size_t>(kSvcRate);
    for (std::size_t i = 0; i + per_round <= jobs.size(); i += per_round) {
      Round& round = rounds.emplace_back();
      for (std::size_t k = i; k < i + per_round; ++k) {
        round.latency_s.push_back(jobs[k].done - jobs[k].due);
        round.end_s = std::max(round.end_s, jobs[k].done);
      }
    }
    add_end_to_end(r, setup_s, rounds, rss);
    return r;
  }

  const double half = ctx.seconds / 2;
  auto plain = poisson_schedule(mix_seed(ctx.seed, 2), kSvcRate, half,
                                p.inputs.size());
  run_open_loop(p, plain, tracer, 0);
  tracer.enable();
  auto traced = poisson_schedule(mix_seed(ctx.seed, 3), kSvcRate, half,
                                 p.inputs.size());
  LayerReport l;
  StatsSampler sampler(p.socket, tracer);
  run_open_loop(p, traced, tracer, 1u << 20);
  sampler.finish(l);
  p.daemon->stop();
  account(plain);
  account(traced);

  std::vector<std::size_t> kinds;
  std::vector<double> rt;
  for (const auto& j : traced) {
    kinds.push_back(j.input);
    rt.push_back((j.done - j.sent) * 1e3);
  }
  l.roundtrip_ms = kind_mean(kinds, rt, p.inputs.size());
  l.overhead_frac =
      mean(latencies(traced)) / std::max(1e-12, mean(latencies(plain))) - 1;
  l.solve_s = p.solve.solve_s;
  l.trace_mb = p.solve.trace_mb;
  std::vector<Op> kinds_of_ops;
  for (const Input& in : p.inputs) kinds_of_ops.push_back(Op{&in});
  probe_layers(kinds_of_ops, tracer, l);
  add_layer_metrics(r, l);
  r.metric("loadgen.late_p99_ms", quantile(lateness(traced), 0.99) * 1e3, "ms");
  r.metric("loadgen.sustained",
           sustained(traced, half) && sustained(plain, half) ? 1 : 0, "bool");
  return r;
}

// ================================================================= certify

Prepared setup_certify(const Context& ctx, const fs::path& dir) {
  Prepared p;
  std::vector<SolveJob> jobs;
  for (Instance& inst : medium_instances(ctx.seed)) {
    jobs.push_back({std::move(inst)});
  }
  p.inputs = solve_all(std::move(jobs), dir, p.solve);
  start_daemon(ctx, p, dir, true);
  Client warm = Client::connect_unix(p.socket);
  for (const Input& in : p.inputs) {
    (void)warm.submit(in.cnf, in.trace, Backend::kDf, true, 0, 0, true);
  }
  return p;
}

struct CertJob {
  std::size_t seq = 0;  ///< issue order; each pool-sized block is one round
  std::size_t input = 0;
  double sent = 0;
  double done = 0;
  bool ok = false;
  std::size_t cert_hash = 0;
  std::size_t cert_bytes = 0;
};

/// Closed loop: kCertifyClients clients each submit their next certify job
/// as soon as the previous one's RESULT and RESULT_CERT arrived.
std::vector<CertJob> run_closed_loop(
    const Prepared& p, double duration, std::uint64_t seed, Tracer& tracer,
    std::uint64_t op_base,
    std::map<std::pair<std::size_t, std::size_t>, std::string>& certs) {
  std::vector<std::size_t> order;
  satproof::util::Rng rng(seed);
  for (int round = 0; round < 64; ++round) {
    std::vector<std::size_t> perm(p.inputs.size());
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    rng.shuffle(perm.begin(), perm.end());
    order.insert(order.end(), perm.begin(), perm.end());
  }
  std::mutex mu;
  std::vector<CertJob> jobs;
  std::atomic<std::size_t> next{0};
  const double t0 = now_s();
  auto client_loop = [&] {
    Client client = Client::connect_unix(p.socket);
    while (now_s() - t0 < duration) {
      const std::size_t i = next.fetch_add(1);
      CertJob j;
      j.seq = i;
      j.input = order[i % order.size()];
      const Input& in = p.inputs[j.input];
      j.sent = now_s() - t0;
      Client::SubmitReply reply;
      {
        Tracer::Span span(tracer, "service.Client::submit", op_base + i);
        reply = client.submit(in.cnf, in.trace, Backend::kDf, true, 0, 0, true);
      }
      j.done = now_s() - t0;
      j.ok = reply_ok(reply, in, true);
      j.cert_hash = std::hash<std::string>{}(reply.certificate);
      j.cert_bytes = reply.certificate.size();
      std::lock_guard lock(mu);
      const auto key = std::make_pair(j.input, j.cert_hash);
      if (j.ok && !certs.contains(key)) certs[key] = std::move(reply.certificate);
      jobs.push_back(j);
      if (!reply.transport_ok) break;
    }
  };
  {
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < kCertifyClients; ++c) {
      threads.emplace_back(client_loop);
    }
  }
  return jobs;
}

RunResult run_certify(const Context& ctx, Tracer& tracer) {
  RunResult r;
  double setup_s = 0;
  Prepared p = timed_setup(
      ctx, [&](const fs::path& d) { return setup_certify(ctx, d); }, setup_s,
      r);
  std::map<std::pair<std::size_t, std::size_t>, std::string> certs;

  LayerReport l;
  std::vector<CertJob> plain, traced;
  if (ctx.trace) {
    plain = run_closed_loop(p, ctx.seconds / 2, mix_seed(ctx.seed, 4), tracer,
                            0, certs);
    tracer.enable();
    StatsSampler sampler(p.socket, tracer);
    traced = run_closed_loop(p, ctx.seconds / 2, mix_seed(ctx.seed, 5), tracer,
                             1u << 20, certs);
    sampler.finish(l);
  } else {
    plain = run_closed_loop(p, ctx.seconds, mix_seed(ctx.seed, 4), tracer, 0,
                            certs);
  }
  const double rss = p.daemon->stop();

  // Oracle: every distinct certificate is re-verified by the trusted kernel
  // (identical bytes share one verification).
  std::map<std::pair<std::size_t, std::size_t>, bool> verified;
  for (const auto& [key, cert] : certs) {
    std::ifstream cnf(p.inputs[key.first].cnf);
    std::istringstream lrat(cert);
    const auto v = satproof::kern::verify_lrat(cnf, lrat);
    verified[key] = v.verified;
  }
  auto account = [&](const std::vector<CertJob>& jobs) {
    for (const auto& j : jobs) {
      ++r.attempted;
      const auto it = verified.find({j.input, j.cert_hash});
      if (!j.ok || it == verified.end() || !it->second) {
        r.mismatch("certify job on " + p.inputs[j.input].name);
      }
    }
  };
  account(plain);
  account(traced);

  auto ops_per_s = [](const std::vector<CertJob>& jobs) {
    double end = 0;
    for (const auto& j : jobs) end = std::max(end, j.done);
    return end > 0 ? static_cast<double>(jobs.size()) / end : 0;
  };
  if (!ctx.trace) {
    // The issue order is whole shuffles of the pool, so each pool-sized
    // block of it is a round; the last, unfinished one is dropped.
    const std::size_t pool = p.inputs.size();
    std::vector<Round> rounds(plain.size() / pool);
    for (const auto& j : plain) {
      if (j.seq / pool >= rounds.size()) continue;
      Round& round = rounds[j.seq / pool];
      round.latency_s.push_back(j.done - j.sent);
      round.end_s = std::max(round.end_s, j.done);
    }
    for (std::size_t k = 0; k < pool; ++k) {
      std::vector<double> ms;
      for (const auto& j : plain) {
        if (j.input == k) ms.push_back((j.done - j.sent) * 1e3);
      }
      r.notes.push_back("certify " + p.inputs[k].name + ": median " +
                        std::to_string(median(ms)) + " ms over " +
                        std::to_string(ms.size()) + " jobs");
    }
    add_end_to_end(r, setup_s, rounds, rss);
    return r;
  }
  std::vector<std::size_t> kinds;
  std::vector<double> rt, bytes;
  for (const auto& j : traced) {
    kinds.push_back(j.input);
    rt.push_back((j.done - j.sent) * 1e3);
    bytes.push_back(static_cast<double>(j.cert_bytes));
  }
  l.roundtrip_ms = kind_mean(kinds, rt, p.inputs.size());
  l.cert_bytes = kind_mean(kinds, bytes, p.inputs.size());
  l.overhead_frac = 1 - ops_per_s(traced) / std::max(1e-12, ops_per_s(plain));
  l.solve_s = p.solve.solve_s;
  l.trace_mb = p.solve.trace_mb;
  std::vector<Op> kinds_of_ops;
  for (const Input& in : p.inputs) {
    Op op{&in};
    op.certify = true;
    kinds_of_ops.push_back(op);
  }
  probe_layers(kinds_of_ops, tracer, l);
  add_layer_metrics(r, l);
  return r;
}

// ====================================================== check-large/stream

Prepared setup_cli(const Context& ctx, const fs::path& dir, bool stream) {
  Prepared p;
  // Largest first, so the slowest solve (php9) starts at once.
  std::vector<SolveJob> jobs;
  for (Instance& inst : large_instances(ctx.seed)) {
    jobs.push_back({std::move(inst)});
  }
  const std::size_t n_large = jobs.size();
  if (stream) {
    for (Instance& inst : medium_instances(ctx.seed)) {
      jobs.push_back({std::move(inst), true});
    }
  }
  std::vector<Input> solved = solve_all(std::move(jobs), dir, p.solve);
  p.inputs.assign(solved.begin(), solved.begin() + n_large);
  for (std::size_t k = 0; k < (stream ? kStreamLadders : kLargeLadders); ++k) {
    p.inputs.push_back(ladder_trace(ctx, dir, "ladder" + std::to_string(k),
                                    kLadderBytes, mix_seed(ctx.seed, 10 + k)));
  }
  // The DRUP half checks the medium instances' DRUP proofs, not traces.
  for (std::size_t i = n_large; i < solved.size(); ++i) {
    solved[i].trace.clear();
    solved[i].trace_bytes = 0;
    p.inputs.push_back(std::move(solved[i]));
  }
  // Warm the executable into the page cache.
  const Input& first = p.inputs.front();
  (void)run_child({ctx.satproof(), "check", first.cnf, first.trace}, dir);
  return p;
}

std::vector<std::string> cli_argv(const Context& ctx, const Op& op) {
  if (op.drup) return {ctx.satproof(), "drup", op.in->cnf, op.in->drup};
  std::vector<std::string> argv = {ctx.satproof(), "check", op.in->cnf,
                                   op.in->trace, "--stats=json"};
  if (op.mem_limit != 0) {
    argv.push_back("--mem-limit=" + std::to_string(op.mem_limit));
  }
  return argv;
}

struct CliStats {
  double resolutions = -1;
  double clauses_built = -1;
  double total_derivations = -1;
  std::string backend;
  bool operator==(const CliStats&) const = default;
};

CliStats parse_cli_stats(const std::string& out) {
  CliStats s;
  s.resolutions = json_number(out, "resolutions").value_or(-1);
  s.clauses_built = json_number(out, "clauses_built").value_or(-1);
  s.total_derivations = json_number(out, "total_derivations").value_or(-1);
  s.backend = json_string(out, "backend").value_or("");
  return s;
}

struct CliRun {
  std::vector<std::size_t> kind;  ///< index into the op list
  std::vector<double> latency_s;
  std::vector<double> rss_mb;
  std::vector<Round> rounds;  ///< one per cycle
  double elapsed_s = 0;
};

/// Runs whole cycles over the ops, one process at a time, while the last
/// cycle's length still fits in `duration`. Whole cycles run every op kind
/// equally often, so a percentile falls on the same kind in every run.
CliRun run_cli_ops(const Context& ctx, const std::vector<Op>& ops,
                   double duration, Tracer& tracer, std::uint64_t op_base,
                   std::vector<std::optional<CliStats>>& first_stats,
                   RunResult& r) {
  CliRun run;
  const fs::path io = ctx.work_dir / "io";
  fs::create_directories(io);
  auto run_op = [&](std::size_t kind, std::uint64_t op_id) {
    const Op& op = ops[kind];
    ChildResult c;
    {
      Tracer::Span span(tracer, op.drup ? "cli.satproof_drup"
                                        : "cli.satproof_check",
                        op_id);
      c = run_child(cli_argv(ctx, op), io);
    }
    ++r.attempted;
    run.kind.push_back(kind);
    run.latency_s.push_back(c.wall_s);
    run.rss_mb.push_back(c.maxrss_mb);
    const char* want = op.drup ? "VERIFIED (DRUP)" : "VERIFIED: ";
    bool ok = c.exit_code == 0 && c.out.rfind(want, 0) == 0;
    if (ok && !op.drup) {
      // The same trace must give the same stats on every op.
      const CliStats s = parse_cli_stats(c.out);
      if (!first_stats[kind]) first_stats[kind] = s;
      ok = s.resolutions >= 0 && *first_stats[kind] == s;
    }
    if (!ok) r.mismatch(op.in->name + ": " + c.out + c.err);
  };
  const double t0 = now_s();
  double cycle_s = 0;
  std::uint64_t op_id = op_base;
  do {
    const double c0 = now_s();
    for (std::size_t kind = 0; kind < ops.size(); ++kind) run_op(kind, op_id++);
    cycle_s = now_s() - c0;
    Round& round = run.rounds.emplace_back();
    round.latency_s.assign(run.latency_s.end() - ops.size(),
                           run.latency_s.end());
    round.end_s = now_s() - t0;
  } while (now_s() - t0 + cycle_s <= duration);
  run.elapsed_s = now_s() - t0;
  return run;
}

RunResult run_cli_workload(const Context& ctx, Tracer& tracer, bool stream) {
  RunResult r;
  double setup_s = 0;
  Prepared p = timed_setup(
      ctx, [&](const fs::path& d) { return setup_cli(ctx, d, stream); },
      setup_s, r);

  std::vector<Op> ops;
  for (const Input& in : p.inputs) {
    Op op{&in};
    if (in.trace.empty()) {
      op.drup = true;
    } else if (stream) {
      op.mem_limit = kStreamBudget;
    }
    ops.push_back(op);
  }
  satproof::util::Rng rng(mix_seed(ctx.seed, 20));
  rng.shuffle(ops.begin(), ops.end());

  std::vector<std::optional<CliStats>> first(ops.size());
  CliRun plain, traced;
  if (ctx.trace) {
    plain = run_cli_ops(ctx, ops, ctx.seconds / 2, tracer, 0, first, r);
    tracer.enable();
    traced = run_cli_ops(ctx, ops, ctx.seconds / 2, tracer, 1u << 20, first, r);
  } else {
    plain = run_cli_ops(ctx, ops, ctx.seconds, tracer, 0, first, r);
  }

  if (stream) {
    // Oracle: window replay must reproduce the default DF run's stats on
    // the same trace (the check-large op).
    const fs::path io = ctx.work_dir / "io";
    for (std::size_t k = 0; k < ops.size(); ++k) {
      if (!first[k] || first[k]->backend != "window") continue;
      Op df = ops[k];
      df.mem_limit = 0;
      const ChildResult c = run_child(cli_argv(ctx, df), io);
      const CliStats s = parse_cli_stats(c.out);
      if (c.exit_code != 0 || s.resolutions != first[k]->resolutions ||
          s.clauses_built != first[k]->clauses_built) {
        r.mismatch("window stats differ from df on " + ops[k].in->name);
      }
    }
  }

  for (std::size_t k = 0; k < ops.size(); ++k) {
    std::vector<double> ms;
    double rss = 0;
    for (std::size_t i = 0; i < plain.kind.size(); ++i) {
      if (plain.kind[i] != k) continue;
      ms.push_back(plain.latency_s[i] * 1e3);
      rss = std::max(rss, plain.rss_mb[i]);
    }
    r.notes.push_back(std::string(ops[k].drup ? "drup " : "check ") +
                      ops[k].in->name + ": median " +
                      std::to_string(quantile(ms, 0.5)) + " ms over " +
                      std::to_string(ms.size()) + " ops, peak RSS " +
                      std::to_string(rss) + " MiB");
  }
  if (!ctx.trace) {
    add_end_to_end(r, setup_s, plain.rounds,
                   *std::max_element(plain.rss_mb.begin(), plain.rss_mb.end()));
    return r;
  }
  LayerReport l;
  // A CLI op's latency is its own process's, untouched by the harness's
  // tracing, so both halves count; together they cover every op kind.
  std::vector<std::size_t> kinds = plain.kind;
  kinds.insert(kinds.end(), traced.kind.begin(), traced.kind.end());
  std::vector<double> ms;
  for (const double s : plain.latency_s) ms.push_back(s * 1e3);
  for (const double s : traced.latency_s) ms.push_back(s * 1e3);
  l.cli_latency_ms = kind_mean(kinds, ms, ops.size());
  const double plain_rate =
      static_cast<double>(plain.latency_s.size()) / plain.elapsed_s;
  const double traced_rate =
      static_cast<double>(traced.latency_s.size()) / traced.elapsed_s;
  l.overhead_frac = 1 - traced_rate / std::max(1e-12, plain_rate);
  l.solve_s = p.solve.solve_s;
  l.trace_mb = p.solve.trace_mb;
  probe_layers(ops, tracer, l);
  add_layer_metrics(r, l);
  return r;
}

}  // namespace

RunResult run_workload(const Context& ctx, Tracer& tracer) {
  if (ctx.workload == "svc-small") return run_svc_small(ctx, tracer);
  if (ctx.workload == "certify") return run_certify(ctx, tracer);
  if (ctx.workload == "check-large") return run_cli_workload(ctx, tracer, false);
  if (ctx.workload == "check-stream") return run_cli_workload(ctx, tracer, true);
  throw std::runtime_error("unknown workload " + ctx.workload);
}

}  // namespace satbench
