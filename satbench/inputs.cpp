#include "satbench/inputs.hpp"

#include <malloc.h>

#include <atomic>
#include <exception>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "src/bmc/rotator.hpp"
#include "src/bmc/unroll.hpp"
#include "src/circuit/miter.hpp"
#include "src/circuit/netlist.hpp"
#include "src/circuit/words.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/encode/coloring.hpp"
#include "src/encode/fpga_routing.hpp"
#include "src/encode/parity.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/encode/planning.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/binary.hpp"
#include "src/trace/drup.hpp"
#include "src/trace/fault_injector.hpp"
#include "src/util/rng.hpp"

namespace satbench {

using satproof::Formula;
namespace circuit = satproof::circuit;
namespace encode = satproof::encode;

namespace {

/// Equivalence miter of ripple-carry vs carry-select adders (as in the
/// repository's suite).
Formula adder_miter(std::size_t width) {
  circuit::Netlist n;
  const circuit::Word a = circuit::input_word(n, width);
  const circuit::Word b = circuit::input_word(n, width);
  const auto rc = circuit::ripple_carry_adder(n, a, b);
  const auto cs = circuit::carry_select_adder(n, a, b);
  std::vector<circuit::Wire> outs_a = rc.sum;
  outs_a.push_back(rc.carry_out);
  std::vector<circuit::Wire> outs_b = cs.sum;
  outs_b.push_back(cs.carry_out);
  return circuit::miter_to_cnf(n, circuit::build_miter(n, outs_a, outs_b));
}

/// Equivalence miter of the two multiplier implementations.
Formula multiplier_miter(std::size_t width) {
  circuit::Netlist n;
  const circuit::Word a = circuit::input_word(n, width);
  const circuit::Word b = circuit::input_word(n, width);
  const circuit::Word m1 = circuit::array_multiplier(n, a, b);
  const circuit::Word m2 = circuit::multiplier_commuted(n, a, b);
  return circuit::miter_to_cnf(n, circuit::build_miter(n, m1, m2));
}

/// Blocks-world instances are not seeded: their solve and check costs vary
/// up to fivefold between random configurations, so a seeded draw would
/// move every percentile it lands on from one seed to the next.
constexpr std::uint64_t kFixedBwSeed = 1;

std::string tag(const char* family, std::uint64_t a, std::uint64_t b = 0) {
  std::string s = family;
  s += '_';
  s += std::to_string(a);
  if (b != 0) {
    s += '_';
    s += std::to_string(b);
  }
  return s;
}

}  // namespace

std::vector<Instance> small_instances(std::uint64_t seed, std::size_t count) {
  satproof::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  std::vector<Instance> out;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t s = rng.next_u64() % 100000;
    std::string name;
    Formula f;
    switch (i % 8) {
      case 0:
        f = encode::blocks_world_random(5, -1, s).formula;
        name = tag("bw5", s);
        break;
      case 1:
        f = encode::fpga_routing(9, 4, 16, s);
        name = tag("fpga9x4", s);
        break;
      case 2:
        f = encode::tseitin_torus(3, 3, s);
        name = tag("tseitin3x3", s);
        break;
      case 3: {
        const unsigned holes = 4 + static_cast<unsigned>(rng.next_below(2));
        f = encode::pigeonhole(holes);
        name = tag("php", holes);
        break;
      }
      case 4: {
        const unsigned n = 5 + static_cast<unsigned>(rng.next_below(2));
        f = encode::clique_coloring(n, n - 1);
        name = tag("clique", n, n - 1);
        break;
      }
      case 5: {
        const unsigned w = 3 + static_cast<unsigned>(rng.next_below(2));
        const unsigned k = 5 + static_cast<unsigned>(rng.next_below(3));
        f = satproof::bmc::unroll(satproof::bmc::make_rotator(w), k);
        name = tag("rotator", w, k);
        break;
      }
      case 6: {
        const unsigned w = 6 + static_cast<unsigned>(rng.next_below(4));
        f = adder_miter(w);
        name = tag("miter_add", w);
        break;
      }
      default:
        f = multiplier_miter(3);
        name = "miter_mult3";
        break;
    }
    out.push_back({name + "_" + std::to_string(i), std::move(f)});
  }
  return out;
}

std::vector<Instance> large_instances(std::uint64_t seed) {
  satproof::util::Rng rng(seed * 0x2545f4914f6cdd1dULL + 7);
  const std::uint64_t ts = rng.next_u64() % 100000;
  std::vector<Instance> out;
  out.push_back({"php9", encode::pigeonhole(9)});
  out.push_back({tag("tseitin4x5", ts), encode::tseitin_torus(4, 5, ts)});
  out.push_back({"bw8", encode::blocks_world_random(8, -1, kFixedBwSeed).formula});
  out.push_back({"miter_mult6", multiplier_miter(6)});
  out.push_back({"clique9_c8", encode::clique_coloring(9, 8)});
  return out;
}

std::vector<Instance> medium_instances(std::uint64_t seed) {
  satproof::util::Rng rng(seed * 0xd1b54a32d192ed03ULL + 5);
  std::vector<Instance> out;
  out.push_back({"php7", encode::pigeonhole(7)});
  out.push_back({"php8", encode::pigeonhole(8)});
  out.push_back({"clique8_c7", encode::clique_coloring(8, 7)});
  out.push_back({"bw7", encode::blocks_world_random(7, -1, kFixedBwSeed).formula});
  // Four draws per seeded family, so no single draw sets a percentile.
  // Names lead with the draw index, so they stay distinct.
  for (std::uint64_t k = 0; k < 4; ++k) {
    const std::uint64_t ts = rng.next_u64() % 100000;
    const std::uint64_t fp = rng.next_u64() % 100000;
    out.push_back({tag("tseitin3x5", k, ts), encode::tseitin_torus(3, 5, ts)});
    out.push_back(
        {tag("fpga16x7", k, fp), encode::fpga_routing(16, 7, 24, fp)});
  }
  return out;
}

namespace {

Input solve_to_files(const Instance& inst, const fs::path& dir,
                     bool with_drup, std::uint64_t fault_seed,
                     SolveTotals& totals) {
  using satproof::trace::FaultKind;
  Input in;
  in.name = inst.name;
  in.cnf = (dir / (inst.name + ".cnf")).string();
  in.trace = (dir / (inst.name + ".trace")).string();
  if (with_drup) in.drup = (dir / (inst.name + ".drup")).string();
  in.expect_ok = fault_seed == 0;
  satproof::dimacs::write_file(in.cnf, inst.formula);

  satproof::util::Rng rng(fault_seed);
  const FaultKind kind = rng.next_bool() ? FaultKind::TruncateTrace
                                         : FaultKind::WrongFinal;
  std::uint64_t target =
      kind == FaultKind::TruncateTrace ? rng.next_below(64) : 0;
  for (;;) {
    std::ofstream trace_out(in.trace, std::ios::binary);
    std::ofstream drup_out;
    satproof::trace::BinaryTraceWriter writer(trace_out);
    satproof::trace::FaultInjector injector(writer, kind, fault_seed, target);
    std::unique_ptr<satproof::trace::DrupWriter> drup;
    satproof::solver::Solver solver;
    solver.add_formula(inst.formula);
    solver.set_trace_writer(fault_seed != 0
                                ? static_cast<satproof::trace::TraceWriter*>(
                                      &injector)
                                : &writer);
    if (with_drup) {
      drup_out.open(in.drup);
      drup = std::make_unique<satproof::trace::DrupWriter>(drup_out);
      solver.set_drup_writer(drup.get());
    }
    const double t0 = now_s();
    const auto res = solver.solve();
    totals.solve_s += now_s() - t0;
    if (res != satproof::solver::SolveResult::Unsatisfiable) {
      throw std::runtime_error(inst.name + " did not come back UNSAT");
    }
    trace_out.close();
    if (!trace_out) throw std::runtime_error("cannot write " + in.trace);
    if (fault_seed == 0 || injector.fired()) break;
    if (target == 0) throw std::runtime_error("fault never fired: " + in.name);
    target /= 4;  // fewer records than the drawn target: move it earlier
  }
  in.trace_bytes = fs::file_size(in.trace);
  totals.trace_mb += static_cast<double>(in.trace_bytes) / (1 << 20);
  return in;
}

}  // namespace

std::vector<Input> solve_all(std::vector<SolveJob> jobs, const fs::path& dir,
                             SolveTotals& totals) {
  std::vector<Input> out(jobs.size());
  std::vector<SolveTotals> per_job(jobs.size());
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;
  auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < jobs.size();) {
      try {
        out[i] = solve_to_files(jobs[i].inst, dir, jobs[i].with_drup,
                                jobs[i].fault_seed, per_job[i]);
      } catch (...) {
        std::lock_guard lock(mu);
        if (!error) error = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) threads.emplace_back(worker);
  }
  // Free the formulas and return the solver threads' heap to the system:
  // a child forked later starts from this process's resident size, and
  // wait4 would report that as the child's peak if it were the larger.
  jobs.clear();
  jobs.shrink_to_fit();
  malloc_trim(0);
  if (error) std::rethrow_exception(error);
  for (const SolveTotals& t : per_job) {
    totals.solve_s += t.solve_s;
    totals.trace_mb += t.trace_mb;
  }
  return out;
}

Input ladder_trace(const Context& ctx, const fs::path& dir,
                   const std::string& name, std::uint64_t bytes,
                   std::uint64_t seed) {
  Input in;
  in.name = name;
  in.cnf = (dir / (name + ".cnf")).string();
  in.trace = (dir / (name + ".trace")).string();
  // 128 implication originals per step halves the derivation count against
  // the default chain, keeping the window checker's resident index small.
  const ChildResult r = run_child(
      {ctx.gen_bigtrace(), "-o", in.cnf, "-t", in.trace, "--target-bytes",
       std::to_string(bytes), "--chain", "128", "--seed",
       std::to_string(seed)},
      dir);
  if (r.exit_code != 0) throw std::runtime_error("gen_bigtrace: " + r.err);
  in.trace_bytes = fs::file_size(in.trace);
  return in;
}

}  // namespace satbench
