// The traced run's layer probes: the harness's own calls into each layer's
// public functions, one span per call, on the workload's inputs.

#include <algorithm>
#include <fstream>
#include <sstream>

#include "satbench/workloads.hpp"
#include "src/cert/kernel.hpp"
#include "src/cert/lrat_emitter.hpp"
#include "src/checker/depth_first.hpp"
#include "src/checker/drup.hpp"
#include "src/checker/window.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/service/run_check.hpp"
#include "src/trace/binary.hpp"

namespace satbench {

namespace {

using satproof::service::Backend;

/// Running mean.
struct Mean {
  double sum = 0;
  double n = 0;
  void add(double v) {
    sum += v;
    n += 1;
  }
  [[nodiscard]] double get() const { return n > 0 ? sum / n : 0; }
};

/// Calls fn() inside a span; returns its duration in ms.
template <typename Fn>
double span_ms(Tracer& t, const char* name, std::uint64_t op, Fn&& fn) {
  const std::uint64_t s = satproof::obs::now_us();
  fn();
  const std::uint64_t d = satproof::obs::now_us() - s;
  t.add(name, op, s, d);
  return static_cast<double>(d) / 1e3;
}

/// Median over `reps` calls of fn() (each returning ms).
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(fn());
  return quantile(v, 0.5);
}

}  // namespace

void probe_layers(const std::vector<Op>& ops, Tracer& tracer,
                  LayerReport& out) {
  Mean parse, run_check, decode, df, reject, replay, window, drup, emit,
      kernel, mix_df, mix_hybrid, mix_window;
  double records = 0, decode_s = 0, resolutions = 0, replay_s = 0;
  double built = 0, derivations = 0, recycled = 0, allocated = 0;
  double props = 0, drup_s = 0, emit_sum = 0, df_emit_base = 0;
  std::uint64_t op_id = 1u << 30;  // distinct from the workload's op ids

  for (const Op& op : ops) {
    const Input& in = *op.in;
    // Small inputs run in tens of microseconds; repeat them for a median.
    const int reps = in.trace_bytes < (1u << 20) && !op.drup ? 3 : 1;
    ++op_id;
    satproof::Formula f;
    parse.add(median_ms(reps, [&] {
                return span_ms(tracer, "cnf.parse_file", op_id, [&] {
                  f = satproof::dimacs::parse_file(in.cnf);
                });
              }));
    const Backend backend = op.drup ? Backend::kDrup : Backend::kDf;
    run_check.add(median_ms(reps, [&] {
                    std::ostringstream cert;
                    satproof::service::CertOptions copts;
                    if (op.certify) copts.sink = &cert;
                    return span_ms(tracer, "service.run_check", op_id, [&] {
                      (void)satproof::service::run_check(
                          in.cnf, op.drup ? in.drup : in.trace, backend, 0,
                          nullptr, copts, op.mem_limit);
                    });
                  }));

    if (op.drup) {
      satproof::checker::DrupCheckResult res;
      const double ms = span_ms(tracer, "checker.check_drup", op_id, [&] {
        std::ifstream proof(in.drup);
        res = satproof::checker::check_drup(f, proof);
      });
      drup.add(ms);
      props += static_cast<double>(res.propagations);
      drup_s += ms / 1e3;
      continue;
    }

    std::uint64_t n_records = 0;
    const double dec_ms = median_ms(reps, [&] {
      n_records = 0;
      return span_ms(tracer, "trace.decode_scan", op_id, [&] {
        try {
          auto reader = satproof::trace::open_binary_trace_file(in.trace);
          satproof::trace::Record rec;
          while (reader->next(rec)) ++n_records;
        } catch (const std::exception&) {
          // A corrupted trace may stop decoding early; the scan still
          // measures what was decoded.
        }
      });
    });
    satproof::checker::CheckResult res;
    const double df_ms = median_ms(reps, [&] {
      return span_ms(tracer, "checker.check_depth_first", op_id, [&] {
        auto reader = satproof::trace::open_binary_trace_file(in.trace);
        res = satproof::checker::check_depth_first(f, *reader);
      });
    });
    if (!in.expect_ok) {
      reject.add(df_ms);
      continue;
    }
    df.add(df_ms);
    decode.add(dec_ms);
    replay.add(df_ms - dec_ms);
    records += static_cast<double>(n_records);
    decode_s += dec_ms / 1e3;
    resolutions += static_cast<double>(res.stats.resolutions);
    replay_s += (df_ms - dec_ms) / 1e3;
    built += static_cast<double>(res.stats.clauses_built);
    derivations += static_cast<double>(res.stats.total_derivations);
    out.df_peak_mb = std::max(
        out.df_peak_mb, static_cast<double>(res.stats.peak_mem_bytes) / (1 << 20));
    satproof::checker::CheckStats arena = res.stats;

    if (op.mem_limit != 0) {
      const Backend b =
          satproof::service::select_backend_for_budget(in.trace_bytes,
                                                       op.mem_limit);
      mix_df.add(b == Backend::kDf ? 1 : 0);
      mix_hybrid.add(b == Backend::kHybrid ? 1 : 0);
      mix_window.add(b == Backend::kWindow ? 1 : 0);
      if (b == Backend::kWindow) {
        satproof::checker::CheckResult wres;
        window.add(span_ms(tracer, "checker.check_window", op_id, [&] {
                     auto reader =
                         satproof::trace::open_binary_trace_file(in.trace);
                     satproof::checker::WindowOptions wopts;
                     wopts.mem_limit_bytes = op.mem_limit;
                     wres = satproof::checker::check_window(f, *reader, wopts);
                   }));
        out.window_peak_mb =
            std::max(out.window_peak_mb,
                     static_cast<double>(wres.stats.peak_mem_bytes) / (1 << 20));
        arena = wres.stats;
      }
    }
    recycled += static_cast<double>(arena.arena_recycled_bytes);
    allocated += static_cast<double>(arena.arena_allocated_bytes);

    if (op.certify) {
      std::ostringstream cert;
      const double ms = span_ms(tracer, "cert.emit_depth_first", op_id, [&] {
        satproof::cert::TextLratWriter writer(cert);
        satproof::cert::LratEmitter emitter(writer, f.num_clauses());
        auto reader = satproof::trace::open_binary_trace_file(in.trace);
        satproof::checker::DepthFirstOptions dopts;
        dopts.observer = &emitter;
        (void)satproof::checker::check_depth_first(f, *reader, dopts);
        writer.finish();
      });
      emit.add(ms);
      emit_sum += ms;
      df_emit_base += df_ms;
      kernel.add(span_ms(tracer, "cert.verify_lrat", op_id, [&] {
                   std::ifstream cnf(in.cnf);
                   std::istringstream lrat(cert.str());
                   (void)satproof::kern::verify_lrat(cnf, lrat);
                 }));
    }
  }

  out.parse_ms = parse.get();
  out.run_check_ms = run_check.get();
  out.decode_ms = decode.get();
  out.records_per_s = decode_s > 0 ? records / decode_s : 0;
  out.df_ms = df.get();
  out.reject_ms = reject.get();
  out.replay_ms = replay.get();
  out.resolutions_per_s = replay_s > 0 ? resolutions / replay_s : 0;
  out.built_frac = derivations > 0 ? built / derivations : 0;
  out.arena_recycled_frac = allocated > 0 ? recycled / allocated : 0;
  out.window_ms = window.get();
  out.mix_df = mix_df.get();
  out.mix_hybrid = mix_hybrid.get();
  out.mix_window = mix_window.get();
  out.drup_ms = drup.get();
  out.drup_props_per_s = drup_s > 0 ? props / drup_s : 0;
  out.emit_ms = emit.get();
  out.emit_ratio = df_emit_base > 0 ? emit_sum / df_emit_base : 0;
  out.kernel_ms = kernel.get();
}

void add_layer_metrics(RunResult& r, const LayerReport& l) {
  r.metric("service.roundtrip_ms", l.roundtrip_ms, "ms");
  r.metric("service.run_check_ms", l.roundtrip_ms > 0 ? l.run_check_ms : 0,
           "ms");
  r.metric("service.overhead_ms",
           l.roundtrip_ms > 0 ? l.roundtrip_ms - l.run_check_ms : 0, "ms");
  r.metric("service.queue_depth_max", l.queue_depth_max, "count");
  r.metric("service.steals", l.steals, "count");
  r.metric("service.stats_ms", l.stats_ms, "ms");
  r.metric("cnf.parse_ms", l.parse_ms, "ms");
  r.metric("trace.decode_ms", l.decode_ms, "ms");
  r.metric("trace.records_per_s", l.records_per_s, "1/s");
  r.metric("checker.df_ms", l.df_ms, "ms");
  r.metric("checker.reject_ms", l.reject_ms, "ms");
  r.metric("checker.replay_ms", l.replay_ms, "ms");
  r.metric("checker.resolutions_per_s", l.resolutions_per_s, "1/s");
  r.metric("checker.built_frac", l.built_frac, "ratio");
  r.metric("checker.df_peak_mb", l.df_peak_mb, "MiB");
  r.metric("checker.arena_recycled_frac", l.arena_recycled_frac, "ratio");
  r.metric("cli.overhead_ms",
           l.cli_latency_ms > 0 ? l.cli_latency_ms - l.run_check_ms : 0, "ms");
  r.metric("checker.window_ms", l.window_ms, "ms");
  r.metric("checker.window_peak_mb", l.window_peak_mb, "MiB");
  r.metric("checker.backend_mix.df", l.mix_df, "ratio");
  r.metric("checker.backend_mix.hybrid", l.mix_hybrid, "ratio");
  r.metric("checker.backend_mix.window", l.mix_window, "ratio");
  r.metric("checker.drup_ms", l.drup_ms, "ms");
  r.metric("checker.drup_props_per_s", l.drup_props_per_s, "1/s");
  r.metric("cert.emit_ms", l.emit_ms, "ms");
  r.metric("cert.emit_ratio", l.emit_ratio, "ratio");
  r.metric("cert.bytes_per_job", l.cert_bytes, "bytes");
  r.metric("cert.kernel_ms", l.kernel_ms, "ms");
  r.metric("solver.solve_s", l.solve_s, "s");
  r.metric("solver.trace_mb", l.trace_mb, "MiB");
  r.metric("obs.trace_overhead_frac", l.overhead_frac, "ratio");
  r.metric("error_rate",
           r.attempted > 0 ? static_cast<double>(r.failed) /
                                 static_cast<double>(r.attempted)
                           : 0,
           "ratio");
}

}  // namespace satbench
