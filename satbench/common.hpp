#pragma once

// Shared pieces of the satbench harness: sample statistics, the traced
// run's span recorder, child-process control, and the result record.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/trace.hpp"

namespace satbench {

namespace fs = std::filesystem;

/// Seconds on the monotonic clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile of `v` (sorted copy); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);
/// Median of `v`, the mean of the middle two for an even count; 0 if empty.
double median(std::vector<double> v);

/// One run's output: the result JSON plus everything recorded next to it.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> notes;  ///< recorded in the result file

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Records an oracle mismatch: it counts as a failed op and makes the run
  /// incorrect.
  void mismatch(const std::string& what);
};

/// Everything a workload needs from the command line and the build.
struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path bin_dir;   ///< where satproof and gen_bigtrace live
  fs::path work_dir;  ///< per-run scratch, removed at exit

  [[nodiscard]] std::string satproof() const {
    return (bin_dir / "satproof_tools" / "satproof").string();
  }
  [[nodiscard]] std::string gen_bigtrace() const {
    return (bin_dir / "satproof_tools" / "gen_bigtrace").string();
  }
};

// --------------------------------------------------------------- tracing

/// The traced run's span recorder. Each span is one call from the harness
/// into a layer's public function; spans of one op share `op`. Records are
/// kept here for the per-layer table (self time needs op ids) and are also
/// emitted into the active obs::TraceSession, whose sink is written as the
/// Chrome-trace file — together with the library's own stage spans of the
/// in-process calls.
class Tracer {
 public:
  struct Record {
    const char* name;
    std::uint64_t op;
    std::uint64_t start_us;
    std::uint64_t dur_us;
    std::uint64_t thread;
  };

  /// Starts an obs::TraceSession (the process has one at most).
  void enable();
  [[nodiscard]] bool enabled() const { return session_ != nullptr; }

  /// RAII span; a no-op when the tracer is disabled.
  class Span {
   public:
    Span(Tracer& t, const char* name, std::uint64_t op);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    std::uint64_t op_;
    std::uint64_t start_us_ = 0;
  };

  /// Records a span measured by the caller.
  void add(const char* name, std::uint64_t op, std::uint64_t start_us,
           std::uint64_t dur_us);

  struct Layer {
    std::uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  /// Per span name: calls, total and self time (span minus the time its
  /// direct children of the same op and thread cover).
  [[nodiscard]] std::map<std::string, Layer> layers() const;

  /// Writes `<stem>.trace.json` (Chrome trace) and `<stem>.layers.txt`;
  /// ends the session.
  void write(const fs::path& stem);

 private:
  std::unique_ptr<satproof::obs::TraceSession> session_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

// ------------------------------------------------------------- processes

/// A finished child process.
struct ChildResult {
  int exit_code = -1;  ///< -1 when killed by a signal
  double wall_s = 0;   ///< from spawn to reaped
  double maxrss_mb = 0;
  std::string out;  ///< captured stdout
  std::string err;  ///< captured stderr
};

/// Runs `argv` to completion, capturing stdout/stderr through files in
/// `io_dir`. The child dies with the harness (PR_SET_PDEATHSIG).
ChildResult run_child(const std::vector<std::string>& argv,
                      const fs::path& io_dir);

/// A long-lived child (the satproofd daemon). The destructor kills and
/// reaps it if stop() was not called.
class Daemon {
 public:
  Daemon(const std::vector<std::string>& argv, const fs::path& log,
         const fs::path& tmpdir);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// SIGTERM (a drain: admitted jobs finish), then reaps; returns the
  /// child's peak RSS in MiB. Throws when the daemon did not exit cleanly.
  double stop();

 private:
  int pid_ = -1;
};

/// Host and build provenance recorded with every result; throws when the
/// build is unoptimized or sanitized, so no number comes from one.
std::string provenance_json();

/// Reads a whole file.
std::string slurp(const fs::path& p);

/// Value of the first `"key":<number>` in a flat JSON text, or nullopt.
std::optional<double> json_number(const std::string& json,
                                  const std::string& key,
                                  std::size_t from = 0);
/// Value of the first `"key":"<string>"`, or nullopt.
std::optional<std::string> json_string(const std::string& json,
                                       const std::string& key);

}  // namespace satbench
