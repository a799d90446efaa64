// Reproduces Table 2 of the paper: depth-first vs breadth-first vs hybrid
// (window replay over one unbounded window) checking of the trace of every suite instance, and emits the numbers as
// JSON so regressions of the checker hot path are visible in review.
//
// Paper columns: Instance Name | Trace Size (KB) | Depth First {Num. Cls
// Built, Built%, Runtime (s), Peak Mem (KB)} | Breadth First {Runtime (s),
// Peak Mem (KB)}.
//
// Expected shape (paper): checking is always much cheaper than solving;
// depth-first is ~2x faster but much more memory-hungry (it holds the
// whole trace plus every built clause, and runs out of memory on the two
// hardest instances under an 800 MB cap); breadth-first finishes
// everything in a small, bounded clause window; built% is 19-90%.
//
// The timed path reads the *binary* trace format from disk — the
// production configuration — so both trace decoding and clause storage
// are inside the measurement.
//
// usage: table2_checkers [--quick] [--json FILE] [--baseline FILE]
//                        [--trace-out FILE]
//   --quick      run the Small suite (CI smoke; seconds in total)
//   --json FILE  write the measurements as JSON; also measures the cost of
//                span tracing (an extra DF sweep with a live TraceSession)
//                and records it as the "tracing_overhead" block, plus the
//                cost of LRAT certificate emission (an extra DF sweep with
//                a live LratEmitter streaming text LRAT to a temp file)
//                recorded as the "lrat_overhead" block
//   --baseline FILE
//                embed a previous --json run as the "baseline" block and
//                emit a baseline-vs-current comparison (DF speedup, peak
//                reduction)
//   --trace-out FILE
//                record the whole run under an obs::TraceSession and write
//                the Chrome-trace JSON (per-stage checker spans) to FILE.
//                Note: this keeps tracing live during the timed runs, so
//                don't combine an artifact run with a regression-gate run.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/cert/lrat_emitter.hpp"
#include "src/checker/breadth_first.hpp"
#include "src/checker/depth_first.hpp"
#include "src/checker/window.hpp"
#include "src/encode/suite.hpp"
#include "src/obs/trace.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/binary.hpp"
#include "src/util/table.hpp"
#include "src/util/temp_file.hpp"
#include "src/util/timer.hpp"

namespace {

using namespace satproof;

constexpr int kTimingRuns = 3;  // wall time is the best of these

// The window backend's budget for the timed column: big enough that every
// suite trace's resident index fits, small enough that the largest traces
// shift through several windows (the configuration the >= 0.5x-of-DF
// speed expectation is stated against).
constexpr std::size_t kWindowBenchBudget = 4u << 20;

struct BackendNumbers {
  double seconds = 0.0;
  std::size_t peak_bytes = 0;  ///< checker-reported (MemTracker + arena)
  std::size_t rss_bytes = 0;   ///< OS-reported peak RSS delta (getrusage)
  checker::CheckResult result;
};

struct InstanceNumbers {
  std::string name;
  std::uintmax_t trace_bytes = 0;
  double solve_seconds = 0.0;
  BackendNumbers df, bf, hybrid, window;
};

/// Runs `fn` in a forked child and returns the child's peak RSS in bytes
/// (0 on fork/measure failure). fork() resets the child's RSS high-water
/// mark to its current RSS, so the measurement starts from the inherited
/// image — callers subtract a no-op child's reading to isolate what `fn`
/// itself touched. The child leaves via _exit so no parent-owned
/// destructor (TempFile unlinks!) or stdio flush runs twice.
template <typename Fn>
std::size_t forked_peak_rss(Fn fn) {
  int fds[2];
  if (::pipe(fds) != 0) return 0;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return 0;
  }
  if (pid == 0) {
    ::close(fds[0]);
    try {
      fn();
    } catch (...) {
      ::_exit(1);
    }
    struct rusage ru {};
    ::getrusage(RUSAGE_SELF, &ru);
    const auto bytes =
        static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // Linux: KB
    const ssize_t wrote = ::write(fds[1], &bytes, sizeof bytes);
    ::_exit(wrote == sizeof bytes ? 0 : 1);
  }
  ::close(fds[1]);
  std::uint64_t bytes = 0;
  const ssize_t got = ::read(fds[0], &bytes, sizeof bytes);
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (got != sizeof bytes || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return 0;
  }
  return static_cast<std::size_t>(bytes);
}

/// Opens the binary trace for one timed checking run.
std::unique_ptr<trace::TraceReader> open_trace(std::ifstream& in,
                                               const std::string& path) {
  in.open(path, std::ios::in | std::ios::binary);
  if (!in) {
    std::cerr << "FATAL: cannot reopen trace " << path << "\n";
    std::exit(1);
  }
  return std::make_unique<trace::BinaryTraceReader>(in);
}

template <typename CheckFn>
BackendNumbers time_backend(const std::string& trace_path, const char* name,
                            const std::string& instance, CheckFn check) {
  BackendNumbers out;
  out.seconds = 1e100;
  for (int run = 0; run < kTimingRuns; ++run) {
    std::ifstream in;
    const auto reader = open_trace(in, trace_path);
    util::Timer t;
    checker::CheckResult r = check(*reader);
    const double secs = t.elapsed_seconds();
    if (!r.ok) {
      std::cerr << "FATAL: " << name << " check failed on " << instance
                << ": " << r.error << "\n";
      std::exit(1);
    }
    out.seconds = std::min(out.seconds, secs);
    out.peak_bytes = r.stats.peak_mem_bytes;
    out.result = std::move(r);
  }
  return out;
}

void json_backend(std::ostream& os, const char* key,
                  const BackendNumbers& b) {
  os << "\"" << key << "\": {\"seconds\": " << b.seconds
     << ", \"peak_bytes\": " << b.peak_bytes << "}";
}

/// Extracts the number following `"key": ` in a JSON blob emitted by this
/// bench. Returns -1 when absent. (The baseline file is our own output, so
/// a targeted scan is enough — no JSON library in the toolchain.)
double extract_number(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path, baseline_path, trace_out_path;
  auto scale = encode::SuiteScale::Standard;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      scale = encode::SuiteScale::Small;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out_path = argv[++i];
    } else {
      std::cerr << "usage: table2_checkers [--quick] [--json FILE] "
                   "[--baseline FILE] [--trace-out FILE]\n";
      return 1;
    }
  }

  std::optional<obs::TraceSession> trace_session;
  if (!trace_out_path.empty()) trace_session.emplace();

  util::Table table({"Instance", "Trace (KB)", "Solve (s)", "DF Cls Built",
                     "Built%", "DF Time (s)", "DF Peak (KB)", "BF Time (s)",
                     "BF Peak (KB)", "HY Time (s)", "HY Peak (KB)",
                     "WN Time (s)", "WN Peak (KB)"});

  // Tracing-overhead probe: when emitting JSON (and not already recording
  // a --trace-out artifact), re-time the DF sweep with a live TraceSession
  // so BENCH_checkers.json documents what span recording costs. The main
  // table numbers are the tracing-disabled configuration.
  const bool measure_overhead = !json_path.empty() && !trace_session;
  double traced_df_secs = 0.0;
  // LRAT-emission probe (same conditions): re-time the DF sweep with a
  // live certificate emitter streaming text LRAT to disk, so
  // BENCH_checkers.json documents what `export-lrat` costs over a plain
  // check. The main table numbers stay the emission-off configuration —
  // the null-observer default the <5%-overhead claim is gated on.
  double lrat_df_secs = 0.0;
  std::uintmax_t lrat_bytes_total = 0;

  std::vector<InstanceNumbers> rows;
  for (const auto& inst : encode::unsat_suite(scale)) {
    InstanceNumbers row;
    row.name = inst.name;

    util::TempFile trace_file("table2-trace");
    {
      std::ofstream out(trace_file.path(),
                        std::ios::out | std::ios::binary);
      trace::BinaryTraceWriter writer(out);
      solver::Solver s;
      s.add_formula(inst.formula);
      s.set_trace_writer(&writer);
      util::Timer t;
      if (s.solve() != solver::SolveResult::Unsatisfiable) {
        std::cerr << "FATAL: " << inst.name << " not UNSAT\n";
        return 1;
      }
      row.solve_seconds = t.elapsed_seconds();
    }
    row.trace_bytes = std::filesystem::file_size(trace_file.path());
    const std::string path = trace_file.path().string();

    row.df = time_backend(path, "depth-first", inst.name,
                          [&](trace::TraceReader& r) {
                            return checker::check_depth_first(inst.formula, r);
                          });
    row.bf = time_backend(path, "breadth-first", inst.name,
                          [&](trace::TraceReader& r) {
                            return checker::check_breadth_first(inst.formula,
                                                                r);
                          });
    checker::WindowOptions hopts;
    hopts.mem_limit_bytes = 0;
    row.hybrid = time_backend(path, "hybrid", inst.name,
                              [&](trace::TraceReader& r) {
                                return checker::check_window(inst.formula, r,
                                                             hopts);
                              });
    checker::WindowOptions wopts;
    wopts.mem_limit_bytes = kWindowBenchBudget;
    row.window = time_backend(path, "window", inst.name,
                              [&](trace::TraceReader& r) {
                                return checker::check_window(inst.formula, r,
                                                             wopts);
                              });

    // OS-level peak-RSS per backend, one forked child each, against a
    // no-op child's baseline — so BENCH_checkers.json records what each
    // backend really costs the machine, not just what MemTracker counts.
    {
      const std::size_t base_rss = forked_peak_rss([] {});
      const auto measure = [&](auto check) {
        const std::size_t rss = forked_peak_rss([&] {
          std::ifstream in;
          const auto reader = open_trace(in, path);
          if (!check(*reader).ok) throw std::runtime_error("check failed");
        });
        return rss > base_rss ? rss - base_rss : 0;
      };
      row.df.rss_bytes = measure([&](trace::TraceReader& r) {
        return checker::check_depth_first(inst.formula, r);
      });
      row.bf.rss_bytes = measure([&](trace::TraceReader& r) {
        return checker::check_breadth_first(inst.formula, r);
      });
      row.hybrid.rss_bytes = measure([&](trace::TraceReader& r) {
        return checker::check_window(inst.formula, r, hopts);
      });
      row.window.rss_bytes = measure([&](trace::TraceReader& r) {
        return checker::check_window(inst.formula, r, wopts);
      });
    }
    if (measure_overhead) {
      {
        obs::TraceSession probe;
        const BackendNumbers traced =
            time_backend(path, "depth-first (traced)", inst.name,
                         [&](trace::TraceReader& r) {
                           return checker::check_depth_first(inst.formula, r);
                         });
        obs::flush_this_thread();
        traced_df_secs += traced.seconds;
      }
      util::TempFile lrat_file("table2-lrat");
      const BackendNumbers emitting = time_backend(
          path, "depth-first (lrat)", inst.name,
          [&](trace::TraceReader& r) {
            std::ofstream sink(lrat_file.path(),
                               std::ios::out | std::ios::trunc);
            cert::TextLratWriter writer(sink);
            cert::LratEmitter emitter(writer, inst.formula.num_clauses());
            checker::DepthFirstOptions opts;
            opts.observer = &emitter;
            return checker::check_depth_first(inst.formula, r, opts);
          });
      lrat_df_secs += emitting.seconds;
      lrat_bytes_total += std::filesystem::file_size(lrat_file.path());
    }

    const auto& df = row.df.result;
    table.add_row(
        {row.name, util::format_kb(row.trace_bytes),
         util::format_double(row.solve_seconds, 3),
         std::to_string(df.stats.clauses_built),
         util::format_percent(static_cast<double>(df.stats.clauses_built),
                              static_cast<double>(df.stats.total_derivations)),
         util::format_double(row.df.seconds, 3),
         util::format_kb(row.df.peak_bytes),
         util::format_double(row.bf.seconds, 3),
         util::format_kb(row.bf.peak_bytes),
         util::format_double(row.hybrid.seconds, 3),
         util::format_kb(row.hybrid.peak_bytes),
         util::format_double(row.window.seconds, 3),
         util::format_kb(row.window.peak_bytes)});
    rows.push_back(std::move(row));
  }

  std::cout
      << "Table 2: depth-first vs breadth-first proof checking\n"
      << "(paper: check time << solve time; DF faster but memory-hungry;\n"
      << " BF bounded memory; DF builds only 19-90% of learned clauses.\n"
      << " HY columns: the hybrid checker the paper's conclusion calls for —\n"
      << " window replay over one unbounded window: builds only the DF\n"
      << " subgraph inside a BF-style clause window.\n"
      << " WN columns: the window-shifting checker replaying under a "
      << (kWindowBenchBudget >> 20) << " MB\n"
      << " --mem-limit budget)\n\n"
      << table.to_string();

  if (trace_session) {
    obs::flush_this_thread();
    if (!trace_session->sink().write_file(trace_out_path)) {
      std::cerr << "FATAL: cannot write trace " << trace_out_path << "\n";
      return 1;
    }
    std::cout << "\nChrome trace written to " << trace_out_path << "\n";
  }

  if (json_path.empty()) return 0;

  // Totals drive the baseline comparison.
  double df_secs = 0, bf_secs = 0, hy_secs = 0, wn_secs = 0;
  std::size_t df_peak = 0, bf_peak = 0, hy_peak = 0, wn_peak = 0;
  std::size_t df_rss = 0, bf_rss = 0, hy_rss = 0, wn_rss = 0;
  std::uintmax_t trace_total = 0;
  for (const auto& row : rows) {
    df_secs += row.df.seconds;
    bf_secs += row.bf.seconds;
    hy_secs += row.hybrid.seconds;
    wn_secs += row.window.seconds;
    df_peak += row.df.peak_bytes;
    bf_peak += row.bf.peak_bytes;
    hy_peak += row.hybrid.peak_bytes;
    wn_peak += row.window.peak_bytes;
    df_rss += row.df.rss_bytes;
    bf_rss += row.bf.rss_bytes;
    hy_rss += row.hybrid.rss_bytes;
    wn_rss += row.window.rss_bytes;
    trace_total += row.trace_bytes;
  }

  std::ostringstream current;
  current << "{\n    \"suite\": \""
          << (scale == encode::SuiteScale::Small ? "small" : "standard")
          << "\",\n    \"trace_format\": \"binary\",\n    \"instances\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    current << "      {\"name\": \"" << row.name
            << "\", \"trace_bytes\": " << row.trace_bytes
            << ", \"solve_seconds\": " << row.solve_seconds << ", ";
    json_backend(current, "df", row.df);
    current << ", ";
    json_backend(current, "bf", row.bf);
    current << ", ";
    json_backend(current, "hybrid", row.hybrid);
    current << ", ";
    json_backend(current, "window", row.window);
    current << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  current << "    ],\n    \"window_budget_bytes\": " << kWindowBenchBudget
          << ",\n    \"totals\": {\"trace_bytes\": " << trace_total
          << ", \"df_seconds\": " << df_secs << ", \"bf_seconds\": "
          << bf_secs << ", \"hybrid_seconds\": " << hy_secs
          << ", \"window_seconds\": " << wn_secs
          << ", \"df_peak_bytes\": " << df_peak << ", \"bf_peak_bytes\": "
          << bf_peak << ", \"hybrid_peak_bytes\": " << hy_peak
          << ", \"window_peak_bytes\": " << wn_peak
          << "},\n    \"memory\": {\"df_rss_bytes\": " << df_rss
          << ", \"bf_rss_bytes\": " << bf_rss
          << ", \"hybrid_rss_bytes\": " << hy_rss
          << ", \"window_rss_bytes\": " << wn_rss << "}\n  }";

  std::ofstream js(json_path);
  if (!js) {
    std::cerr << "FATAL: cannot open " << json_path << "\n";
    return 1;
  }
  js << "{\n  \"bench\": \"table2_checkers\",\n  \"arena\": "
     << current.str();

  if (measure_overhead) {
    js << ",\n  \"tracing_overhead\": {\"df_seconds_disabled\": " << df_secs
       << ", \"df_seconds_traced\": " << traced_df_secs
       << ", \"traced_overhead_pct\": "
       << (df_secs > 0 ? (traced_df_secs - df_secs) / df_secs * 100.0 : 0.0)
       << "}";
    js << ",\n  \"lrat_overhead\": {\"df_seconds_off\": " << df_secs
       << ", \"df_seconds_emitting\": " << lrat_df_secs
       << ", \"emitting_overhead_pct\": "
       << (df_secs > 0 ? (lrat_df_secs - df_secs) / df_secs * 100.0 : 0.0)
       << ", \"certificate_bytes\": " << lrat_bytes_total << "}";
  }

  if (!baseline_path.empty()) {
    std::ifstream bl(baseline_path);
    if (!bl) {
      std::cerr << "FATAL: cannot open baseline " << baseline_path << "\n";
      return 1;
    }
    std::ostringstream blob;
    blob << bl.rdbuf();
    const std::string text = blob.str();
    // The baseline file is a previous --json output; embed its "arena"
    // block (the measurement of whatever the tree looked like then).
    const auto begin = text.find("\"arena\": ");
    const auto end = text.rfind('}');  // closes the outer object
    std::string base_block = "null";
    if (begin != std::string::npos && end != std::string::npos) {
      base_block = text.substr(begin + 9, end - begin - 9);
      while (!base_block.empty() &&
             (base_block.back() == '\n' || base_block.back() == ' ' ||
              base_block.back() == ',')) {
        base_block.pop_back();
      }
    }
    js << ",\n  \"baseline\": " << base_block;

    const double base_df_secs = extract_number(text, "df_seconds");
    const double base_df_peak = extract_number(text, "df_peak_bytes");
    const double base_bf_peak = extract_number(text, "bf_peak_bytes");
    if (base_df_secs > 0 && base_df_peak > 0) {
      js << ",\n  \"comparison\": {\"df_speedup\": "
         << base_df_secs / df_secs << ", \"df_peak_reduction\": "
         << 1.0 - static_cast<double>(df_peak) / base_df_peak
         << ", \"bf_peak_reduction\": "
         << (base_bf_peak > 0
                 ? 1.0 - static_cast<double>(bf_peak) / base_bf_peak
                 : 0.0)
         << "}";
    }
  }
  js << "\n}\n";
  std::cout << "\nJSON written to " << json_path << "\n";
  return 0;
}
