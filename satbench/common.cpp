#include "satbench/common.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/util/json.hpp"

namespace satbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(q * n + 0.999999);  // ceil(q*n)
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void RunResult::mismatch(const std::string& what) {
  ++failed;
  if (notes.size() < 50) notes.push_back("mismatch: " + what);
}

// --------------------------------------------------------------- tracing

void Tracer::enable() {
  session_ = std::make_unique<satproof::obs::TraceSession>();
}

Tracer::Span::Span(Tracer& t, const char* name, std::uint64_t op)
    : tracer_(t.enabled() ? &t : nullptr), name_(name), op_(op) {
  if (tracer_ != nullptr) start_us_ = satproof::obs::now_us();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->add(name_, op_, start_us_, satproof::obs::now_us() - start_us_);
}

void Tracer::add(const char* name, std::uint64_t op, std::uint64_t start_us,
                 std::uint64_t dur_us) {
  if (!enabled()) return;
  satproof::obs::emit(name, start_us, dur_us);
  const auto thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard lock(mu_);
  records_.push_back({name, op, start_us, dur_us, thread});
}

std::map<std::string, Tracer::Layer> Tracer::layers() const {
  std::vector<Record> recs;
  {
    std::lock_guard lock(mu_);
    recs = records_;
  }
  // Group by (op, thread); within a group, parents sort before the spans
  // they enclose (earlier start, then longer duration first).
  std::sort(recs.begin(), recs.end(), [](const Record& a, const Record& b) {
    if (a.op != b.op) return a.op < b.op;
    if (a.thread != b.thread) return a.thread < b.thread;
    if (a.start_us != b.start_us) return a.start_us < b.start_us;
    return a.dur_us > b.dur_us;
  });
  std::map<std::string, Layer> out;
  std::vector<double> child_us(recs.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    while (!stack.empty()) {
      const Record& top = recs[stack.back()];
      const bool same_group = top.op == r.op && top.thread == r.thread;
      if (same_group && r.start_us + r.dur_us <= top.start_us + top.dur_us) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) child_us[stack.back()] += static_cast<double>(r.dur_us);
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < recs.size(); ++i) {
    Layer& l = out[recs[i].name];
    ++l.count;
    l.total_ms += static_cast<double>(recs[i].dur_us) / 1e3;
    l.self_ms +=
        std::max(0.0, static_cast<double>(recs[i].dur_us) - child_us[i]) / 1e3;
  }
  return out;
}

void Tracer::write(const fs::path& stem) {
  if (!enabled()) return;
  satproof::obs::flush_this_thread();
  session_->sink().write_file(stem.string() + ".trace.json");
  std::ofstream t(stem.string() + ".layers.txt");
  char line[256];
  std::snprintf(line, sizeof line, "%-28s %8s %12s %12s %10s\n", "span",
                "calls", "total_ms", "self_ms", "mean_ms");
  t << line;
  for (const auto& [name, l] : layers()) {
    std::snprintf(line, sizeof line, "%-28s %8llu %12.3f %12.3f %10.4f\n",
                  name.c_str(), static_cast<unsigned long long>(l.count),
                  l.total_ms, l.self_ms,
                  l.total_ms / static_cast<double>(std::max<std::uint64_t>(
                                   l.count, 1)));
    t << line;
  }
  session_.reset();
}

// ------------------------------------------------------------- processes

namespace {

/// fork + exec with stdout/stderr redirected; the child gets SIGKILL when
/// the harness thread that forked it dies, so no child outlives a crash.
int spawn(const std::vector<std::string>& argv, const fs::path& out,
          const fs::path& err, const fs::path* tmpdir) {
  std::vector<char*> cargv;
  for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  const std::string out_s = out.string();
  const std::string err_s = err.string();
  const std::string tmp_s = tmpdir != nullptr ? tmpdir->string() : "";
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    const int fo = open(out_s.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int fe = open(err_s.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fo < 0 || fe < 0) _exit(127);
    dup2(fo, 1);
    dup2(fe, 2);
    close(fo);
    close(fe);
    if (!tmp_s.empty()) setenv("TMPDIR", tmp_s.c_str(), 1);
    execv(cargv[0], cargv.data());
    _exit(127);
  }
  return pid;
}

}  // namespace

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

ChildResult run_child(const std::vector<std::string>& argv,
                      const fs::path& io_dir) {
  const fs::path out = io_dir / "child.out";
  const fs::path err = io_dir / "child.err";
  ChildResult r;
  const double t0 = now_s();
  const int pid = spawn(argv, out, err, nullptr);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  r.wall_s = now_s() - t0;
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  r.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  r.out = slurp(out);
  r.err = slurp(err);
  return r;
}

Daemon::Daemon(const std::vector<std::string>& argv, const fs::path& log,
               const fs::path& tmpdir) {
  pid_ = spawn(argv, log, fs::path(log.string() + ".err"), &tmpdir);
}

Daemon::~Daemon() {
  if (pid_ <= 0) return;
  kill(pid_, SIGKILL);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

double Daemon::stop() {
  kill(pid_, SIGTERM);
  int status = 0;
  rusage ru{};
  while (wait4(pid_, &status, 0, &ru) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("satproofd did not drain cleanly");
  }
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------ provenance

std::string provenance_json() {
  const std::string build_type = SATBENCH_BUILD_TYPE;
  const std::string sanitize = SATBENCH_SANITIZE;
  bool optimized = false;
#ifdef __OPTIMIZE__
  optimized = true;
#endif
  bool sanitized = !sanitize.empty();
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
  if (!optimized || sanitized ||
      (build_type != "Release" && build_type != "RelWithDebInfo")) {
    throw std::runtime_error(
        "refusing to benchmark an unoptimized or sanitized build (build type '" +
        build_type + "', SATPROOF_SANITIZE '" + sanitize + "')");
  }
  std::string cpu = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        cpu = line.substr(line.find(':') + 2);
        break;
      }
    }
  }
  std::string commit = "unknown (not a git checkout)";
  FILE* p = fs::exists(".git") ? popen("git rev-parse HEAD 2>/dev/null", "r")
                               : nullptr;
  if (p != nullptr) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof buf, p) != nullptr) {
      std::string s(buf);
      while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
      if (s.size() == 40) commit = s;
    }
    pclose(p);
  }
  satproof::util::JsonWriter w;
  w.begin_object();
  w.key("cpu_model");
  w.value(cpu);
  w.key("nproc");
  w.value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("compiler");
  w.value(std::string(SATBENCH_COMPILER));
  w.key("build_type");
  w.value(build_type);
  w.key("SATPROOF_SANITIZE");
  w.value(sanitize);
  w.key("git_commit");
  w.value(commit);
  w.end_object();
  return w.take();
}

// ------------------------------------------------------------------ json

std::optional<double> json_number(const std::string& json,
                                  const std::string& key, std::size_t from) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle, from);
  if (at == std::string::npos) return std::nullopt;
  const char* begin = json.c_str() + at + needle.size();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin) return std::nullopt;
  return v;
}

std::optional<std::string> json_string(const std::string& json,
                                       const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t b = at + needle.size();
  const std::size_t e = json.find('"', b);
  if (e == std::string::npos) return std::nullopt;
  return json.substr(b, e - b);
}

}  // namespace satbench
