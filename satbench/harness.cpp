// satbench harness: runs one workload against the satproof CLI and the
// satproofd daemon and prints the result as one JSON line (the last line of
// stdout). Built and invoked by satbench/run.py; see satbench/README.md.
//
//   satbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                    --bin-dir DIR

#include <unistd.h>

#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "satbench/workloads.hpp"
#include "src/util/json.hpp"

namespace {

using namespace satbench;

Context parse_args(int argc, char** argv) {
  Context ctx;
  bool have_workload = false, have_bin = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::runtime_error(a + " needs a value");
    const std::string v = argv[++i];
    if (a == "--workload") {
      ctx.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      ctx.seed = std::stoull(v);
    } else if (a == "--seconds") {
      ctx.seconds = std::stod(v);
    } else if (a == "--trace") {
      ctx.trace = v == "1";
    } else if (a == "--bin-dir") {
      ctx.bin_dir = fs::absolute(v);
      have_bin = true;
    } else {
      throw std::runtime_error("unknown argument " + a);
    }
  }
  if (!have_workload || !have_bin || ctx.seconds <= 0) {
    throw std::runtime_error(
        "usage: satbench_harness --workload NAME --seed N --seconds S "
        "--trace 0|1 --bin-dir DIR");
  }
  return ctx;
}

std::string result_json(const RunResult& r) {
  satproof::util::JsonWriter w;
  w.begin_object();
  w.key("correct");
  w.value(r.failed == 0 && r.attempted > 0);
  w.key("attempted");
  w.value(r.attempted);
  w.key("failed");
  w.value(r.failed);
  w.key("metrics");
  w.begin_object();
  for (const auto& [name, vu] : r.metrics) {
    w.key(name);
    w.begin_object();
    w.key("value");
    w.value(vu.first);
    w.key("unit");
    w.value(vu.second);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

}  // namespace

int main(int argc, char** argv) {
  Context ctx;
  try {
    ctx = parse_args(argc, argv);
    const std::string provenance = provenance_json();
    // Relative paths keep the daemon's unix socket path short.
    const std::string run_name = ctx.workload + "-seed" +
                                 std::to_string(ctx.seed) + "-trace" +
                                 std::to_string(ctx.trace ? 1 : 0);
    ctx.work_dir = fs::path(".bench_work") /
                   (run_name + "-" + std::to_string(getpid()));
    const fs::path out_dir = ".bench_out";
    fs::create_directories(ctx.work_dir);
    fs::create_directories(out_dir);

    Tracer tracer;
    RunResult r;
    try {
      r = run_workload(ctx, tracer);
    } catch (...) {
      fs::remove_all(ctx.work_dir);
      throw;
    }
    fs::remove_all(ctx.work_dir);
    if (tracer.enabled()) tracer.write(out_dir / run_name);

    const std::string json = result_json(r);
    {
      std::ofstream f(out_dir / (run_name + ".json"));
      f << "{\"provenance\":" << provenance << ",\"notes\":[";
      for (std::size_t i = 0; i < r.notes.size(); ++i) {
        f << (i ? "," : "") << satproof::util::JsonWriter::escape(r.notes[i]);
      }
      f << "],\"result\":" << json << "}\n";
    }
    std::cout << "provenance " << provenance << "\n";
    for (const auto& n : r.notes) std::cout << "note: " << n << "\n";
    std::cout << json << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "satbench: " << e.what() << "\n";
    return 1;
  }
}
